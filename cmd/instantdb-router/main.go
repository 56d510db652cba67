// Command instantdb-router fronts a horizontally sharded InstantDB
// deployment: it speaks the internal/wire protocol to clients and to
// every shard, routing single-key INSERT/UPDATE/DELETE and point
// SELECTs to the shard owning the key, fanning scans out scatter-gather
// and merging the results, and broadcasting DDL. Purpose enforcement
// and degradation stay per-shard: every downstream session carries the
// client's purpose, and each shard's own clock enforces its LCP
// deadlines — the router adds no trust and holds no data.
//
// Usage:
//
//	instantdb-router -table routing.json [-listen :7660]
//	                 [-shards name=addr,name=addr ...]
//	                 [-max-conns 0] [-max-frame 4194304]
//	                 [-metrics-listen :7661] [-trace-sample 0]
//	                 [-v]
//
// -table names the persisted routing table. With -shards the router
// generates a fresh version-1 table spreading the slot space uniformly
// over the named shards, saves it to -table, and serves it; without
// -shards the table is loaded from -table. At start (and again at every
// downstream dial) the router presents the table's version to each
// shard, which persists the highest version it has seen — a router
// holding a stale table is refused loudly instead of misrouting.
//
// -metrics-listen serves GET /metrics with the AGGREGATED deployment
// view: per-shard stats rolled up (lag-style gauges and latency
// quantile columns like request_seconds_p99 as max over shards —
// "the worst shard" — counters summed) plus the router's own
// instruments, /healthz,
// /debug/traces (the router's recent and slow traces) and
// /debug/pprof/* (the Go profiler) — all on a separate HTTP listener,
// never a session slot, so a scraper or a long CPU profile cannot
// starve the wire protocol.
//
// -trace-sample samples router-side request tracing (0 = only traces
// forced by clients via degradectl trace, 1 = every request, n = one
// in n). A traced statement propagates its trace context to every
// shard it touches, so `degradectl trace -id` against the router
// returns one stitched cross-shard span tree.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"instantdb/internal/server"
	"instantdb/internal/shard"
	"instantdb/internal/wire"
)

func main() {
	listen := flag.String("listen", ":7660", "TCP listen address")
	tablePath := flag.String("table", "", "routing-table JSON file (required; created when -shards is given)")
	shards := flag.String("shards", "", "comma-separated name=addr list: generate a fresh version-1 routing table over these shards, save it to -table and serve it")
	maxConns := flag.Int("max-conns", 0, "max concurrent client sessions (0 = unlimited)")
	maxFrame := flag.Int("max-frame", wire.MaxFrameDefault, "max request/response payload bytes")
	metricsListen := flag.String("metrics-listen", "", "HTTP listen address for GET /metrics (aggregated per-shard rollup), /healthz, /debug/traces and /debug/pprof (empty = disabled); served on its own listener so scrapers and profilers never consume a session slot")
	traceSample := flag.Int("trace-sample", 0, "router trace sampling: 0 = only remote-forced traces, 1 = every request, n = one request in n")
	slowTrace := flag.Duration("slow-trace", 0, "slow-trace ring threshold for /debug/traces (0 = 100ms default)")
	verbose := flag.Bool("v", false, "log per-connection diagnostics")
	flag.Parse()

	if *tablePath == "" {
		fmt.Fprintln(os.Stderr, "instantdb-router: -table is required")
		os.Exit(2)
	}
	var table *shard.Table
	var err error
	if *shards != "" {
		var infos []shard.Info
		if infos, err = parseShards(*shards); err == nil {
			table = shard.Uniform(infos)
			err = table.Save(*tablePath)
		}
	} else {
		table, err = shard.Load(*tablePath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "instantdb-router: %v\n", err)
		os.Exit(2)
	}

	opts := shard.Options{MaxConns: *maxConns, MaxFrame: *maxFrame, TablePath: *tablePath,
		TraceSample: *traceSample, SlowTrace: *slowTrace}
	if *verbose {
		opts.Logf = log.Printf
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	r, err := shard.New(ctx, table, opts)
	cancel()
	if err != nil {
		log.Fatalf("instantdb-router: %v", err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("instantdb-router: %v", err)
	}

	var metricsSrv *http.Server
	if *metricsListen != "" {
		metricsSrv = &http.Server{Addr: *metricsListen, Handler: metricsHandler(r)}
		go func() {
			if err := metricsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("instantdb-router: metrics listener: %v", err)
			}
		}()
		log.Printf("instantdb-router: metrics on http://%s/metrics", *metricsListen)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- r.Serve(ln) }()
	log.Printf("instantdb-router: routing table v%d over %d shards, serving on %s",
		r.Table().Version, len(r.Table().Shards), ln.Addr())

	select {
	case s := <-sig:
		log.Printf("instantdb-router: %v — draining sessions", s)
	case err := <-done:
		if err != nil {
			log.Printf("instantdb-router: serve: %v", err)
		}
	}
	if err := r.Close(); err != nil {
		log.Printf("instantdb-router: close: %v", err)
	}
	if metricsSrv != nil {
		sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := metricsSrv.Shutdown(sctx); err != nil {
			log.Printf("instantdb-router: metrics shutdown: %v", err)
		}
		scancel()
	}
	log.Printf("instantdb-router: closed cleanly")
}

// parseShards parses "name=addr,name=addr" into shard infos.
func parseShards(s string) ([]shard.Info, error) {
	var out []shard.Info
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("instantdb-router: bad -shards entry %q (want name=addr)", part)
		}
		out = append(out, shard.Info{Name: name, Addr: addr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("instantdb-router: -shards named no shards")
	}
	return out, nil
}

// metricsHandler serves the aggregated deployment view: each scrape
// performs one stats rollup across the shards (so the exposition is
// live) and renders the merged samples in Prometheus text form.
func metricsHandler(r *shard.Router) http.Handler {
	mux := http.NewServeMux()
	server.AttachDebug(mux, r.Tracer())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		ctx, cancel := context.WithTimeout(req.Context(), 10*time.Second)
		defer cancel()
		stats := r.MergedStats(ctx)
		sort.Slice(stats, func(i, j int) bool { return stats[i].Key < stats[j].Key })
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		for _, s := range stats {
			fmt.Fprintf(&b, "%s %v\n", s.Key, s.Value)
		}
		_, _ = w.Write([]byte(b.String()))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("ok\n"))
	})
	return mux
}
