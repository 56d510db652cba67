// Command instantdb-server serves an InstantDB database over TCP with
// the internal/wire protocol. Each client connection gets its own
// session (purpose, transaction), so remote clients observe the same
// purpose-limited accuracy views as embedded sessions. The degradation
// engine keeps running server-side: remote data expires on schedule
// whether or not anyone is connected.
//
// Usage:
//
//	instantdb-server [-dir path] [-log shred|plain|vacuum] [-tick 1s]
//	                 [-listen :7654] [-max-conns 0] [-max-frame 4194304]
//	                 [-replica-of host:port]
//	                 [-metrics-listen :7655] [-report-interval 0]
//	                 [-wal-segment-bytes N] [-wal-nosync]
//	                 [-trace-sample 0] [-slow-query 0] [-v]
//
// -dir empty (the default) serves an in-memory database; -log picks the
// log-degradation strategy for durable ones (default shred). -max-conns
// caps concurrent sessions (0 = unlimited) and -max-frame bounds request
// and response payloads in bytes.
// -wal-segment-bytes tunes the WAL rotation threshold and -wal-nosync
// disables the per-commit fsync (see its usage text for the durability
// caveat).
//
// Concurrent commits — user transactions and degradation steps alike —
// share their WAL fsync (group commit; see DESIGN.md).
//
// -metrics-listen serves GET /metrics (Prometheus text exposition),
// GET /healthz, GET /debug/traces (recent and slow request traces) and
// GET /debug/pprof/* (the Go profiler) on a separate HTTP listener —
// its own socket, never a session slot, so a scraper or a long CPU
// profile cannot starve the wire protocol. -report-interval logs a
// periodic one-line self-report (degradation lag, sessions, replication
// lag) without requiring a scraper. Both default to off.
//
// -trace-sample controls local request tracing: 0 records only traces
// forced by clients over the wire (degradectl trace, the shard
// router), 1 records every request, n records one request in n.
// -slow-query logs statements at or over the given duration with their
// span breakdown. Traces land in bounded in-memory rings served at
// /debug/traces and over the wire; see DESIGN.md "Tracing & audit
// trail".
//
// -replica-of starts the server as a read replica of another
// instantdb-server: it streams the leader's WAL, applies batches
// locally, serves snapshot reads, and refuses writes with a dedicated
// error code. Its degradation engine runs on its OWN clock, so LCP
// deadlines are enforced even while the leader is unreachable.
//
// SIGINT/SIGTERM shut down gracefully: stop accepting, close live
// sessions (rolling back their open transactions), then close the
// database so the degradation engine stops cleanly.
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
	"syscall"
	"time"

	"instantdb"
	"instantdb/internal/repl"
	"instantdb/internal/server"
	"instantdb/internal/wire"
)

func main() {
	dir := flag.String("dir", "", "database directory (empty = in-memory)")
	logMode := flag.String("log", "shred", "log mode for durable databases: shred, plain, vacuum")
	tick := flag.Duration("tick", time.Second, "background degradation tick interval (0 = manual)")
	listen := flag.String("listen", ":7654", "TCP listen address")
	maxConns := flag.Int("max-conns", 0, "max concurrent client sessions (0 = unlimited)")
	maxFrame := flag.Int("max-frame", wire.MaxFrameDefault, "max request/response payload bytes")
	replicaOf := flag.String("replica-of", "", "run as a read replica of the leader at host:port (writes are refused; degradation still runs locally)")
	walSegBytes := flag.Int64("wal-segment-bytes", 0, "WAL segment rotation threshold in bytes (0 = default 1 MiB)")
	metricsListen := flag.String("metrics-listen", "", "HTTP listen address for GET /metrics (Prometheus text) and /healthz (empty = disabled); served on its own listener so scrapers never consume a session slot")
	reportInterval := flag.Duration("report-interval", 0, "log a one-line self-report (degradation lag, queue depth, sessions, replication lag) at this interval (0 = disabled)")
	walNoSync := flag.Bool("wal-nosync", false, "disable the per-commit WAL fsync — faster commits, but an OS crash or power loss can silently lose the most recent commits AND the degradation transitions recorded in them, so recovered data may briefly outlive its LCP deadline until the next tick re-degrades it")
	traceSample := flag.Int("trace-sample", 0, "local trace sampling: 0 = only remote-forced traces, 1 = every request, n = one request in n")
	slowQuery := flag.Duration("slow-query", 0, "log statements taking at least this long, with span breakdown when traced (0 = disabled)")
	verbose := flag.Bool("v", false, "log per-connection diagnostics")
	flag.Parse()

	cfg := instantdb.Config{Dir: *dir, AutoDegrade: *tick, SegmentBytes: *walSegBytes, Replica: *replicaOf != "",
		TraceSample: *traceSample, SlowQuery: *slowQuery}
	if *walNoSync {
		sync := false
		cfg.WALSync = &sync
	}
	var err error
	if cfg.LogMode, err = instantdb.ParseLogMode(*logMode); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	db, err := instantdb.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}

	opts := server.Options{MaxConns: *maxConns, MaxFrame: *maxFrame, SlowQuery: *slowQuery, SlowLogf: log.Printf}
	if *verbose {
		opts.Logf = log.Printf
	}
	srv := server.New(db, opts)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		db.Close()
		log.Fatalf("instantdb-server: %v", err)
	}

	var follower *repl.Follower
	if *replicaOf != "" {
		follower = &repl.Follower{Addr: *replicaOf, DB: db, MaxFrame: *maxFrame, Logf: log.Printf}
		follower.Instrument(db.Metrics())
		follower.Start()
	}

	var metricsSrv *http.Server
	if *metricsListen != "" {
		metricsSrv = &http.Server{Addr: *metricsListen, Handler: server.MetricsHandler(db)}
		go func() {
			if err := metricsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("instantdb-server: metrics listener: %v", err)
			}
		}()
		log.Printf("instantdb-server: metrics on http://%s/metrics", *metricsListen)
	}

	stopReport := make(chan struct{})
	if *reportInterval > 0 {
		go selfReport(db, follower, *reportInterval, stopReport)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	role := ""
	if *replicaOf != "" {
		role = fmt.Sprintf(" as replica of %s", *replicaOf)
	}
	log.Printf("instantdb-server: serving %s on %s%s (log=%s tick=%v max-conns=%d)",
		dbName(*dir), ln.Addr(), role, *logMode, *tick, *maxConns)

	select {
	case s := <-sig:
		log.Printf("instantdb-server: %v — draining sessions", s)
		if err := srv.Close(); err != nil {
			log.Printf("instantdb-server: close: %v", err)
		}
	case err := <-done:
		if err != nil {
			log.Printf("instantdb-server: serve: %v", err)
		}
		// Even on an accept failure, drain live sessions (rolling back
		// their open transactions) before closing the database.
		if err := srv.Close(); err != nil {
			log.Printf("instantdb-server: close: %v", err)
		}
	}
	close(stopReport)
	if metricsSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := metricsSrv.Shutdown(ctx); err != nil {
			log.Printf("instantdb-server: metrics shutdown: %v", err)
		}
		cancel()
	}
	if follower != nil {
		follower.Stop()
	}
	if err := db.Close(); err != nil {
		log.Printf("instantdb-server: db close: %v", err)
		os.Exit(1)
	}
	log.Printf("instantdb-server: database closed cleanly")
}

// selfReport logs a periodic one-line health summary built from the
// same sources the /metrics exposition reads: the degradation engine's
// lag and queue depth (the headline SLO), live session count, and —
// when running as a replica — replication lag. One line per interval,
// grep-friendly, no scraper required.
func selfReport(db *instantdb.DB, follower *repl.Follower, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			lag := db.Degrader().Lag(db.Clock().Now())
			st := db.Degrader().Stats()
			line := fmt.Sprintf("self-report: degrade_lag=%.3fs pending=%d transitions=%d conns=%.0f",
				lag.Seconds(), st.Pending, st.Transitions, statValue(db, "instantdb_server_active_conns"))
			if p99 := statValue(db, `instantdb_server_request_seconds_p99{op="exec"}`); p99 > 0 {
				line += fmt.Sprintf(" exec_p99=%.3fms", 1000*p99)
			}
			if follower != nil {
				line += fmt.Sprintf(" repl_connected=%v repl_lag_bytes=%d", follower.Connected(), follower.LagBytes())
			}
			log.Printf("instantdb-server: %s", line)
		}
	}
}

// statValue reads one sample from the registry snapshot (0 if absent).
func statValue(db *instantdb.DB, key string) float64 {
	for _, s := range db.Metrics().Snapshot() {
		if s.Key == key {
			return s.Value
		}
	}
	return 0
}

func dbName(dir string) string {
	if dir == "" {
		return "in-memory database"
	}
	return dir
}
