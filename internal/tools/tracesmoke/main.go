// Command tracesmoke is the CI smoke test for the tracing and audit
// surface. It boots a durable database on a simulated clock, serves it
// over TCP and HTTP, and then exercises the whole diagnostic loop the
// way an operator would:
//
//   - a forced trace on an INSERT (client.ExecTraced) must dump as a
//     span tree containing the WAL append decomposed into the
//     group-commit phases (group_enqueue, group_fsync) and the publish
//     phase — the acceptance criterion for end-to-end tracing;
//   - advancing the clock past the first degradation deadline must
//     leave EvScheduled and EvFired events in the wire audit tail, and
//     the on-disk trail must verify hash-chain-intact (trace.Verify);
//   - GET /debug/traces must answer 200 and mention the traced insert;
//     GET /debug/pprof/cmdline must answer 200 (the profiler rides the
//     metrics listener, never a session slot).
//
// Exit status 0 on success; each violation is printed and makes the
// run fail. Run via `make trace-smoke`.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"instantdb"
	"instantdb/client"
	"instantdb/internal/server"
	"instantdb/internal/trace"
	"instantdb/internal/vclock"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "trace-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("trace-smoke: PASS")
}

func run() error {
	dir, err := os.MkdirTemp("", "tracesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	clock := vclock.NewSimulated(vclock.Epoch)
	db, err := instantdb.Open(instantdb.Config{Dir: dir, Clock: clock})
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.ExecScript(`
CREATE DOMAIN location TREE LEVELS (address, city, region, country)
  PATH ('Dam 1', 'Amsterdam', 'Noord-Holland', 'Netherlands');
CREATE POLICY locpol ON location (
  HOLD address FOR '15m', HOLD city FOR '1h',
  HOLD region FOR '1d', HOLD country FOR '1mo') THEN DELETE;
CREATE TABLE visits (id INT PRIMARY KEY,
  place TEXT DEGRADABLE DOMAIN location POLICY locpol)
`); err != nil {
		return fmt.Errorf("schema: %w", err)
	}

	// Wire side: a forced trace on an INSERT must decompose the commit
	// pipeline down to the shared fsync.
	srv := server.New(db, server.Options{})
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(sln) //nolint:errcheck
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	conn, err := client.Dial(ctx, sln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()

	_, tid, err := conn.ExecTraced(ctx, `INSERT INTO visits (id, place) VALUES (1, 'Dam 1')`)
	if err != nil {
		return fmt.Errorf("traced insert: %w", err)
	}
	rec, err := awaitTrace(ctx, conn, tid)
	if err != nil {
		return err
	}
	have := map[string]bool{}
	for _, sp := range rec.Spans {
		have[sp.Name] = true
	}
	for _, want := range []string{"serve_exec", "wal_encode", "wal_append",
		"group_enqueue", "group_fsync", "publish"} {
		if !have[want] {
			return fmt.Errorf("traced insert misses span %q (trace %016x: %v)", want, tid, have)
		}
	}

	// Audit side: cross the 15-minute address deadline and demand the
	// fired transition in the wire tail and an intact on-disk chain.
	clock.Advance(16 * time.Minute)
	if _, err := db.DegradeNow(); err != nil {
		return fmt.Errorf("degrade: %w", err)
	}
	evs, err := conn.AuditTail(ctx, 0)
	if err != nil {
		return fmt.Errorf("audit tail: %w", err)
	}
	var sched, fired bool
	for _, ev := range evs {
		switch ev.Kind {
		case trace.EvScheduled:
			sched = true
		case trace.EvFired:
			fired = true
		}
	}
	if !sched || !fired {
		return fmt.Errorf("audit tail misses EvScheduled/EvFired (sched=%v fired=%v, %d events)",
			sched, fired, len(evs))
	}
	// The newest events sit in the trail's open block; a checkpoint
	// (what a real deployment does periodically) seals and fsyncs it
	// before verification.
	if err := db.AuditLog().Checkpoint(); err != nil {
		return fmt.Errorf("audit checkpoint: %w", err)
	}
	if n, err := trace.Verify(filepath.Join(dir, "audit")); err != nil {
		return fmt.Errorf("audit chain broken after %d events: %w", n, err)
	} else if n == 0 {
		return fmt.Errorf("audit chain verified vacuously: no events on disk")
	}

	// HTTP side: the trace ring and the profiler ride the metrics
	// listener.
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: server.MetricsHandler(db)}
	go hs.Serve(hln) //nolint:errcheck
	defer hs.Close()
	base := "http://" + hln.Addr().String()

	body, err := get(base + "/debug/traces")
	if err != nil {
		return err
	}
	if !strings.Contains(string(body), "serve_exec") {
		return fmt.Errorf("/debug/traces does not mention the traced insert:\n%s", body)
	}
	if _, err := get(base + "/debug/pprof/cmdline"); err != nil {
		return fmt.Errorf("pprof on metrics listener: %w", err)
	}
	return nil
}

// awaitTrace polls TraceDump until the forced trace is finished (the
// root span ends after the response frame is written).
func awaitTrace(ctx context.Context, conn *client.Conn, tid uint64) (*trace.Rec, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		recs, err := conn.TraceDump(ctx, client.TraceByID, tid)
		if err != nil {
			return nil, err
		}
		if len(recs) == 1 {
			return recs[0], nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("trace %016x never appeared in the ring", tid)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// get fetches url, requiring status 200.
func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}
