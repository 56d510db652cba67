package main

import (
	"fmt"
	"io"
	"os"
)

// compareMain implements `bench compare a.json b.json`: a is the
// baseline, b the candidate. It exits 1 when any gated end-to-end
// metric of b is worse than a's by more than the metric's bound, or a
// workload's failed share rose, or b has an oracle failure.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare baseline.json candidate.json")
		return 2
	}
	a, err := readResult(args[0])
	if err == nil {
		var b *resultFile
		if b, err = readResult(args[1]); err == nil {
			if compareResults(os.Stdout, a, b) {
				return 0
			}
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
	return 2
}

// worseBy returns how much worse b is than a as a share of a (negative
// when b is better).
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareResults prints the per-workload, per-metric table and reports
// whether b is within every bound.
func compareResults(out io.Writer, a, b *resultFile) bool {
	ok := true
	fmt.Fprintf(out, "baseline  %s seed %d (%g s)\ncandidate %s seed %d (%g s)\n",
		a.Header.Commit, a.Header.Seed, a.Header.Seconds, b.Header.Commit, b.Header.Seed, b.Header.Seconds)
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			fmt.Fprintf(out, "\n== %s: missing from candidate  REGRESSION\n", wa.Name)
			ok = false
			continue
		}
		fmt.Fprintf(out, "\n== %s\n  %-28s %14s %14s %9s %7s\n", wa.Name, "end-to-end metric", "baseline", "candidate", "delta", "bound")
		for _, d := range endToEndDefs {
			ma, okA := wa.EndToEnd[d.name]
			mb, okB := wb.EndToEnd[d.name]
			if !okA {
				continue
			}
			verdict := ""
			if !okB || worseBy(d.better, ma.Value, mb.Value) > d.bound {
				verdict = "REGRESSION"
				ok = false
			}
			fmt.Fprintf(out, "  %-28s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				d.name, ma.Value, mb.Value, 100*(mb.Value-ma.Value)/nonZero(ma.Value), 100*d.bound, verdict)
		}
		fa, fb := failedShare(wa), failedShare(wb)
		verdict := ""
		if fb > fa {
			verdict = "REGRESSION"
			ok = false
		}
		fmt.Fprintf(out, "  %-28s %14.6g %14.6g %27s\n", "ops_failed/ops_attempted", fa, fb, verdict)
		if !wb.Correct {
			fmt.Fprintf(out, "  oracle failed in candidate: %s  REGRESSION\n", wb.Oracle)
			ok = false
		}

		compareUngated(out, wa.PerLayer, wb.PerLayer)
	}
	if len(a.Layers) > 0 && len(b.Layers) > 0 {
		fmt.Fprintln(out, "\n== layer probes")
		compareUngated(out, a.Layers, b.Layers)
	}
	if ok {
		fmt.Fprintln(out, "\nwithin bounds")
	} else {
		fmt.Fprintln(out, "\nREGRESSION: at least one end-to-end metric is outside its bound")
	}
	return ok
}

// compareUngated prints the metrics both sides have.
func compareUngated(out io.Writer, a, b metrics) {
	fmt.Fprintf(out, "  %-40s %14s %14s %9s\n", "per-layer metric (not gated)", "baseline", "candidate", "delta")
	for _, n := range a.names() {
		if mb, both := b[n]; both {
			va, vb := a[n].Value, mb.Value
			fmt.Fprintf(out, "    %-38s %14.6g %14.6g %+8.2f%%\n", n, va, vb, 100*(vb-va)/nonZero(va))
		}
	}
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

func failedShare(w *workloadResult) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}
