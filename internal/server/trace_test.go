package server_test

import (
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"instantdb/client"
	"instantdb/internal/engine"
	"instantdb/internal/server"
	"instantdb/internal/trace"
	"instantdb/internal/vclock"
)

// startDurableServer is startServer on a durable directory (cfg.Dir, or
// a fresh temporary one): the commit path then routes through the WAL
// group committer, so traced writes carry the wal_append span and its
// group-commit phase children.
func startDurableServer(t *testing.T, cfg engine.Config, opts server.Options) (*engine.DB, string) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewSimulated(vclock.Epoch)
	}
	db, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.ExecScript(paperSchema); err != nil {
		t.Fatal(err)
	}
	addr, _ := serve(t, server.New(db, opts))
	return db, addr
}

// dumpByID polls the server for the finished trace (the root span ends
// after the response frame is written, so the record can trail the
// client's view of the statement by a scheduler beat).
func dumpByID(t *testing.T, c *client.Conn, tid uint64, wantSpans int) *trace.Rec {
	t.Helper()
	ctx := ctxT(t)
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs, err := c.TraceDump(ctx, client.TraceByID, tid)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 1 && len(recs[0].Spans) >= wantSpans {
			return recs[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %016x not dumped with >= %d spans (got %v)", tid, wantSpans, recs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTracedInsertSpansCommitPipeline is the single-node acceptance
// test: a traced INSERT over the wire yields a span tree whose WAL
// append decomposes into the group-commit phases, with durability
// (group_fsync) strictly inside the append and publish after it.
func TestTracedInsertSpansCommitPipeline(t *testing.T) {
	_, addr := startDurableServer(t, engine.Config{}, server.Options{})
	c := dial(t, addr)
	ctx := ctxT(t)

	_, tid, err := c.ExecTraced(ctx,
		`INSERT INTO visits (id, who, place) VALUES (1, 'anciaux', 'Dam 1')`)
	if err != nil {
		t.Fatal(err)
	}
	// serve_exec root, parse_bind, wal_encode, wal_append,
	// group_enqueue, group_fsync, publish.
	rec := dumpByID(t, c, tid, 7)
	if rec.TraceID != tid {
		t.Fatalf("TraceID = %016x, want %016x", rec.TraceID, tid)
	}

	byName := map[string][]trace.Span{}
	for _, sp := range rec.Spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	for _, name := range []string{"serve_exec", "parse_bind", "wal_encode",
		"wal_append", "group_enqueue", "group_fsync", "publish"} {
		if len(byName[name]) != 1 {
			t.Fatalf("span %q recorded %d times, want once (have %v)",
				name, len(byName[name]), names(rec.Spans))
		}
	}
	root := byName["serve_exec"][0]
	if root.ParentID != 0 {
		t.Fatalf("serve_exec parent = %016x, want 0 (client-rooted)", root.ParentID)
	}
	app := byName["wal_append"][0]
	for _, phase := range []string{"group_enqueue", "group_fsync"} {
		if got := byName[phase][0].ParentID; got != app.SpanID {
			t.Fatalf("%s parent = %016x, want wal_append %016x", phase, got, app.SpanID)
		}
	}
	// Visibility strictly after durability: publish starts at or after
	// the fsync phase ends.
	fs := byName["group_fsync"][0]
	if pub := byName["publish"][0]; pub.Start.Before(fs.Start.Add(fs.Duration)) {
		t.Fatalf("publish started %v, before fsync finished %v",
			pub.Start, fs.Start.Add(fs.Duration))
	}

	// The traced statement is one latency sample, under exec, as any
	// statement is; no other label counts it.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats[`instantdb_server_request_seconds_count{op="exec"}`]; got != 1 {
		t.Fatalf("exec requests counted %v after one traced exec, want 1", got)
	}
	if got := stats[`instantdb_server_request_seconds_count{op="traced"}`]; got != 0 {
		t.Fatalf("traced requests counted %v, want 0", got)
	}
}

// TestDebugEndpointsAndAuditTrail walks the diagnostic loop an operator
// has on a durable server: the traced insert on /debug/traces, the
// profiler on the same handler, a crossed deadline in the wire audit
// tail, and a hash chain on disk that verifies.
func TestDebugEndpointsAndAuditTrail(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewSimulated(vclock.Epoch)
	db, addr := startDurableServer(t, engine.Config{Dir: dir, Clock: clock}, server.Options{})
	c := dial(t, addr)
	ctx := ctxT(t)

	_, tid, err := c.ExecTraced(ctx,
		`INSERT INTO visits (id, who, place) VALUES (1, 'anciaux', 'Dam 1')`)
	if err != nil {
		t.Fatal(err)
	}
	dumpByID(t, c, tid, 1)

	h := server.MetricsHandler(db)
	for path, want := range map[string]string{
		"/debug/traces":        "serve_exec",
		"/debug/pprof/cmdline": "",
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 || !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("GET %s: status %d, want 200 mentioning %q:\n%s",
				path, rec.Code, want, rec.Body.String())
		}
	}

	// Cross the 15-minute address deadline: the wire tail must hold the
	// scheduled and the fired transition.
	clock.Advance(16 * time.Minute)
	if _, err := db.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	evs, err := c.AuditTail(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[trace.Kind]bool{}
	for _, ev := range evs {
		kinds[ev.Kind] = true
	}
	if !kinds[trace.EvScheduled] || !kinds[trace.EvFired] {
		t.Fatalf("audit tail misses EvScheduled/EvFired: %v", evs)
	}
	// The newest events sit in the trail's open block; a checkpoint
	// seals it before verification.
	if err := db.AuditLog().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n, err := trace.Verify(filepath.Join(dir, "audit")); err != nil || n == 0 {
		t.Fatalf("audit chain: %d events verified, err %v; want > 0 and nil", n, err)
	}
}

// TestLocalSamplingRecordsEveryRequest proves Config.TraceSample 1
// traces unforced wire statements into the recent ring.
func TestLocalSamplingRecordsEveryRequest(t *testing.T) {
	db, addr := startDurableServer(t, engine.Config{TraceSample: 1}, server.Options{})
	c := dial(t, addr)
	ctx := ctxT(t)

	if _, err := c.Exec(ctx, `SELECT id FROM visits`); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, rec := range db.Tracer().Recent() {
			if rec.Root == "exec" {
				for _, sp := range rec.Spans {
					if sp.Name == "exec" {
						for _, a := range sp.Attrs {
							if a.Key == "sql" && strings.Contains(a.Val, "SELECT id FROM visits") {
								return
							}
						}
					}
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("sampled exec trace never reached the recent ring: %v", db.Tracer().Recent())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSlowQueryLog proves the slow-query threshold logs statements with
// their span breakdown through Options.SlowLogf.
func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	_, addr := startDurableServer(t, engine.Config{TraceSample: 1},
		server.Options{SlowQuery: time.Nanosecond, SlowLogf: logf})
	c := dial(t, addr)
	ctx := ctxT(t)

	if _, err := c.Exec(ctx, `SELECT id FROM visits`); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		joined := strings.Join(lines, "\n")
		mu.Unlock()
		if strings.Contains(joined, "slow query") &&
			strings.Contains(joined, "SELECT id FROM visits") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no slow-query log line; got %q", joined)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func names(spans []trace.Span) []string {
	var out []string
	for _, sp := range spans {
		out = append(out, sp.Name)
	}
	return out
}
