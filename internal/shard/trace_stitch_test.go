package shard_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"instantdb/client"
	"instantdb/internal/server"
	"instantdb/internal/shard"
	"instantdb/internal/trace"
	"instantdb/internal/value"
	"instantdb/internal/wire"
)

// dumpStitched polls the router for the trace until it has stitched at
// least want spans (shards finish their records asynchronously, after
// their responses to the router are already on the wire) or the
// deadline passes; it returns the last dump either way.
func dumpStitched(t *testing.T, conn *client.Conn, tid uint64, want int) *trace.Rec {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(5 * time.Second)
	var rec *trace.Rec
	for {
		recs, err := conn.TraceDump(ctx, client.TraceByID, tid)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 1 {
			rec = recs[0]
			if len(rec.Spans) >= want {
				return rec
			}
		} else if len(recs) > 1 {
			t.Fatalf("TraceByID returned %d records, want at most 1", len(recs))
		}
		if time.Now().After(deadline) {
			if rec == nil {
				t.Fatalf("trace %016x never appeared", tid)
			}
			return rec
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// spansNamed returns the spans with the given name.
func spansNamed(rec *trace.Rec, name string) []trace.Span {
	var out []trace.Span
	for _, sp := range rec.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// TestTracedScatterStitch is the tentpole acceptance test for
// cross-shard tracing: one forced trace on a scatter SELECT through the
// router must dump as ONE record whose spans span both services and
// link up — each shard's server-side root hangs under the router span
// that dialed it.
func TestTracedScatterStitch(t *testing.T) {
	c := startCluster(t, 3)
	conn := dialRouter(t, c)
	ctx := context.Background()
	insertVisits(t, conn, 12)

	res, tid, err := conn.ExecTraced(ctx, "SELECT id FROM visits ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if tid == 0 {
		t.Fatal("ExecTraced allocated trace id 0")
	}
	if res.Rows == nil || res.Rows.Len() != 12 {
		t.Fatalf("scatter select returned %v rows, want 12", res.Rows)
	}

	// Router root + plan + merge + 3 shard_exec, plus 3 shard-side
	// serve_exec roots: the stitched record has at least 9 spans.
	rec := dumpStitched(t, conn, tid, 9)
	if rec.TraceID != tid {
		t.Fatalf("stitched TraceID = %016x, want %016x", rec.TraceID, tid)
	}

	services := map[string]int{}
	for _, sp := range rec.Spans {
		if sp.TraceID != tid {
			t.Fatalf("span %q carries trace id %016x, want %016x", sp.Name, sp.TraceID, tid)
		}
		services[sp.Service]++
	}
	if services["router"] == 0 || services["server"] == 0 {
		t.Fatalf("stitched record misses a service: %v", services)
	}

	roots := spansNamed(rec, "route_exec")
	if len(roots) != 1 || roots[0].ParentID != 0 {
		t.Fatalf("route_exec roots = %+v, want exactly one with ParentID 0", roots)
	}
	if len(spansNamed(rec, "plan")) == 0 {
		t.Fatal("no plan span recorded")
	}
	if len(spansNamed(rec, "merge")) != 1 {
		t.Fatalf("merge spans = %d, want 1", len(spansNamed(rec, "merge")))
	}

	scatter := spansNamed(rec, "shard_exec")
	if len(scatter) != 3 {
		t.Fatalf("shard_exec spans = %d, want one per shard (3)", len(scatter))
	}
	scatterIDs := map[uint64]bool{}
	for _, sp := range scatter {
		if sp.Service != "router" {
			t.Fatalf("shard_exec recorded by %q, want router", sp.Service)
		}
		scatterIDs[sp.SpanID] = true
	}

	serves := spansNamed(rec, "serve_exec")
	if len(serves) != 3 {
		t.Fatalf("serve_exec spans = %d, want one per shard (3)", len(serves))
	}
	for _, sp := range serves {
		if sp.Service != "server" {
			t.Fatalf("serve_exec recorded by %q, want server", sp.Service)
		}
		// The stitching point: the shard's root is parented under the
		// router span whose id rode the wire in its OpExec frame.
		if !scatterIDs[sp.ParentID] {
			t.Fatalf("serve_exec parent %016x matches no shard_exec span", sp.ParentID)
		}
	}
}

// TestTracedInsertThroughRouter proves a traced single-key write
// propagates into the owning shard's commit pipeline: the stitched
// record contains the WAL append span decomposed into the group-commit
// phases, recorded on the shard.
func TestTracedInsertThroughRouter(t *testing.T) {
	c := startCluster(t, 3)
	conn := dialRouter(t, c)
	ctx := context.Background()

	_, tid, err := conn.ExecTraced(ctx,
		"INSERT INTO visits (id, who, place) VALUES (501, 'anciaux', 'Dam 1')")
	if err != nil {
		t.Fatal(err)
	}

	// route_exec + plan + shard_exec on the router; serve_exec +
	// wal_encode + wal_append + group_enqueue + group_fsync + publish
	// on the shard.
	rec := dumpStitched(t, conn, tid, 9)

	appends := spansNamed(rec, "wal_append")
	if len(appends) != 1 || appends[0].Service != "server" {
		t.Fatalf("wal_append spans = %+v, want exactly one from the shard", appends)
	}
	for _, phase := range []string{"group_enqueue", "group_fsync"} {
		sps := spansNamed(rec, phase)
		if len(sps) != 1 {
			t.Fatalf("%s spans = %d, want 1", phase, len(sps))
		}
		if sps[0].ParentID != appends[0].SpanID {
			t.Fatalf("%s parent = %016x, want the wal_append span %016x",
				phase, sps[0].ParentID, appends[0].SpanID)
		}
	}
	if len(spansNamed(rec, "publish")) != 1 {
		t.Fatal("no publish span recorded on the shard")
	}
}

// TestRouterAuditTailMergesShards proves the router's OpAuditTail
// answer merges every shard's trail in event-time order: after inserts
// land on all three shards, the merged tail carries each shard's
// EvScheduled events with non-decreasing timestamps.
func TestRouterAuditTailMergesShards(t *testing.T) {
	c := startCluster(t, 3)
	conn := dialRouter(t, c)
	ctx := context.Background()
	insertVisits(t, conn, 12)

	evs, err := conn.AuditTail(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Each insert schedules one attribute transition and one
	// tuple-delete event on its owning shard.
	if len(evs) < 24 {
		t.Fatalf("merged audit tail has %d events, want >= 24", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].UnixNano < evs[i-1].UnixNano {
			t.Fatalf("merged tail out of order at %d: %d after %d",
				i, evs[i].UnixNano, evs[i-1].UnixNano)
		}
	}
	scheduled := 0
	for _, ev := range evs {
		if ev.Kind == trace.EvScheduled && ev.Table == "visits" {
			scheduled++
		}
	}
	if scheduled < 12 {
		t.Fatalf("merged tail carries %d visits EvScheduled events, want >= 12", scheduled)
	}
}

// TestScatterArgumentsStayOutOfShardText: an aggregated scatter reaches
// each shard as the client's own text with its arguments bound apart,
// so no argument value lands in what a shard writes down about the
// statement — span attributes of its traces (every request sampled) or
// its slow-query lines — and the shard's sql attribute is the client's
// text.
func TestScatterArgumentsStayOutOfShardText(t *testing.T) {
	const marker = "marker-q7Zr"
	var mu sync.Mutex
	var slow []string
	logf := func(format string, args ...any) {
		mu.Lock()
		slow = append(slow, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	shards := make([]*testShard, 2)
	for i := range shards {
		shards[i] = startShardWith(t, fmt.Sprintf("s%d", i), 1, server.Options{SlowQuery: time.Nanosecond, SlowLogf: logf})
	}
	c := routeShards(t, shards, shard.Options{})
	conn := dialRouter(t, c)
	insertVisits(t, conn, 12)

	const sql = "SELECT who, COUNT(*) AS n, AVG(id) FROM visits WHERE who <> ? GROUP BY who ORDER BY who"
	rows, err := conn.Query(context.Background(), sql, value.Text(marker))
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 5 {
		t.Fatalf("grouped scatter answered %d groups, want 5", rows.Len())
	}
	for _, s := range shards {
		sawText := false
		for _, rec := range s.db.Tracer().Recent() {
			for _, sp := range rec.Spans {
				for _, a := range sp.Attrs {
					if strings.Contains(a.Val, marker) {
						t.Errorf("shard %s span %s attribute %s = %q holds the argument", s.name, sp.Name, a.Key, a.Val)
					}
					sawText = sawText || a.Key == "sql" && a.Val == sql
				}
			}
		}
		if !sawText {
			t.Errorf("shard %s recorded no span whose sql attribute is the client's text", s.name)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slow) == 0 {
		t.Fatal("no slow-query line logged")
	}
	for _, line := range slow {
		if strings.Contains(line, marker) {
			t.Errorf("slow-query line holds the argument: %s", line)
		}
	}
}

// TestRouterRefusesPartialFrame: the partial bit is for the router's own
// requests to shards. A client frame carrying it is refused as a
// statement error, and the session lives on.
func TestRouterRefusesPartialFrame(t *testing.T) {
	c := startCluster(t, 2)
	conn := dialRouter(t, c)
	ctx := context.Background()
	insertVisits(t, conn, 6)
	_, err := conn.ExecFrame(ctx, wire.Exec{Partial: true, SQL: "SELECT who, AVG(id) FROM visits GROUP BY who"})
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeSQL {
		t.Fatalf("partial frame through the router = %v, want a statement error", err)
	}
	if rows, err := conn.Query(ctx, "SELECT COUNT(*) FROM visits"); err != nil || rows.Data[0][0].Int() != 6 {
		t.Fatalf("session after the refusal: %v, %v", rows, err)
	}
}
