// Command benchrunner regenerates every experiment of the reproduction:
// the paper's three figures (F1–F3), the three quantified claims
// (E1–E3), and the §III engineering ablations (B-STORE, B-LOG, B-IDX,
// B-TXN, B-REC). Each experiment prints the table or series it
// reproduces; the tests in internal/experiments assert their outcomes.
// System performance (latency, throughput, bytes per row) is measured
// by the harness in bench/ instead: see bench/README.md.
//
// Usage:
//
//	benchrunner [-exp all|F1|F2|F3|E1|E2|E3|BSTORE|BLOG|BIDX|BTXN|BREC]
//	            [-n tuples] [-q queries] [-readers n] [-runfor d] [-quick]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"instantdb/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (all, F1, F2, F3, E1, E2, E3, BSTORE, BLOG, BIDX, BTXN, BREC)")
	n := flag.Int("n", 2000, "workload size (tuples)")
	queries := flag.Int("q", 200, "query count for B-IDX")
	readers := flag.Int("readers", 4, "reader goroutines for B-TXN")
	runFor := flag.Duration("runfor", 500*time.Millisecond, "wall-clock duration per B-TXN configuration")
	quick := flag.Bool("quick", false, "small sizes for a fast smoke run")
	flag.Parse()

	if *quick {
		*n = 400
		*queries = 40
		*runFor = 150 * time.Millisecond
	}

	exps := []struct {
		id string
		fn func() error
	}{
		{"F1", func() error { return experiments.RunF1(os.Stdout) }},
		{"F2", func() error { return experiments.RunF2(os.Stdout) }},
		{"F3", func() error { return experiments.RunF3(os.Stdout) }},
		{"E1", func() error { _, err := experiments.RunE1(os.Stdout, *n); return err }},
		{"E2", func() error { _, err := experiments.RunE2(os.Stdout, *n); return err }},
		{"E3", func() error { _, err := experiments.RunE3(os.Stdout, *n); return err }},
		{"BSTORE", func() error { _, err := experiments.RunBStore(os.Stdout, *n); return err }},
		{"BLOG", func() error { _, err := experiments.RunBLog(os.Stdout, *n); return err }},
		{"BIDX", func() error { _, err := experiments.RunBIdx(os.Stdout, *n, *queries); return err }},
		{"BTXN", func() error { _, err := experiments.RunBTxn(os.Stdout, *readers, *runFor); return err }},
		{"BREC", func() error { _, err := experiments.RunBRec(os.Stdout, *n); return err }},
	}

	want := strings.ToUpper(*exp)
	ran := false
	for _, e := range exps {
		if want != "ALL" && want != e.id {
			continue
		}
		ran = true
		start := time.Now()
		if err := e.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
