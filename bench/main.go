// Command bench is InstantDB's one repeatable benchmark: four workloads,
// the end-to-end metrics of the gate table in result.go and a per-layer
// ladder, all driven through the program's public surfaces from inputs
// generated off -seed. README.md in this directory is the manual.
//
//	bench [-seed n] [-seconds s] [-quick] [-workload name|all] [-trace 0|1] [-fault name]
//	bench compare a.json b.json
//	bench manifest > ../BENCHMARK.json
//
// Every run has one shape (newPlan): timed set-ups, a warm-up, a measured
// phase of -seconds with tracing off and, with -trace 1 (the default),
// the one-connection untraced and traced phases after it and the layer
// probes once at the end. Every metric is printed by name and written to
// out/result.json. With one workload named, the last line of standard
// output is the benchmark driver's JSON object: the end-to-end metrics
// with -trace 0, the per-layer ones with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "manifest" {
		os.Stdout.Write(manifestJSON()) //nolint:errcheck // stdout
		return
	}
	os.Exit(benchMain(os.Args[1:]))
}

// outDir places out/ beside the harness sources whether the command
// runs from the repository root or from bench/.
func outDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "input generator seed")
	seconds := fs.Float64("seconds", 30, "length of the measured phase, cut into ten windows")
	quick := fs.Bool("quick", false, "smoke run: small preloads, a 3 s measured phase unless -seconds is given")
	name := fs.String("workload", "all", "workload to run, or all")
	trace := fs.Int("trace", 1, "1 = also run the traced phases and the layer probes; with one workload it selects the driver's line: 0 = end-to-end, 1 = per-layer")
	fault := fs.String("fault", "", "break one oracle on purpose: "+strings.Join(faultNames(), ", "))
	out := outDir()
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *fault != "" && faults[*fault] == "" {
		fmt.Fprintf(os.Stderr, "bench: unknown fault %q\n", *fault)
		return 2
	}
	secondsSet := false
	fs.Visit(func(f *flag.Flag) { secondsSet = secondsSet || f.Name == "seconds" })
	if *quick && !secondsSet {
		*seconds = 3
	}
	todo := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []*workload{w}
	}
	traced := *trace == 1

	tmpRoot := filepath.Join(out, "tmp")
	err := os.MkdirAll(tmpRoot, 0o755)
	var tmp string
	if err == nil {
		tmp, err = os.MkdirTemp(tmpRoot, "run-")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp) //nolint:errcheck // scratch data
	e := &env{seed: *seed, quick: *quick, fault: *fault, tmp: tmp, out: out, log: os.Stderr}

	fmt.Printf("instantdb bench: seed %d, %g s measured per workload, nproc %d, GOMAXPROCS %d, %s\nflush policy: %s\n",
		*seed, *seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), flushPolicy)

	file := &resultFile{Header: newHeader(*seed, *seconds, *quick)}
	failed := false
	for _, w := range todo {
		res, err := runWorkload(e, w, newPlan(*seconds, traced))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		res.print(os.Stdout)
		file.Workloads = append(file.Workloads, res)
		failed = failed || !res.Correct
	}
	if traced {
		if file.Layers, err = probeLayers(e, filepath.Join(tmp, "rig")); err != nil {
			fmt.Fprintf(os.Stderr, "bench: layer probes: %v\n", err)
			return 1
		}
		fmt.Println("\n== layer probes")
		file.Layers.print(os.Stdout)
	}
	path := filepath.Join(out, "result.json")
	if err := file.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("\nwrote %s\n", path)
	if *name != "all" {
		line, err := file.Workloads[0].driverLine(traced, file.Layers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		data, _ := json.Marshal(line) //nolint:errcheck // plain struct of numbers and strings
		fmt.Printf("%s\n", data)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "bench: an oracle failed")
		return 1
	}
	return 0
}

func faultNames() []string {
	names := make([]string, 0, len(faults))
	for n := range faults {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setups is how many times a run sets its deployment up; setup_s is
// their median and the last one is kept.
const setups = 3

// newPlan is the one run shape, scaled by the length of the measured
// phase: a warm-up of a tenth of it (at least 1 s), ten windows and,
// when traced, 4/30 of it on one connection untraced and 8/30 traced
// (4 s and 8 s at the default 30).
func newPlan(seconds float64, traced bool) plan {
	p := plan{setups: setups, warm: max(seconds/10, 1), seconds: seconds, windows: 10}
	if traced {
		p.single, p.traced = seconds*4/30, seconds*8/30
	}
	return p
}
