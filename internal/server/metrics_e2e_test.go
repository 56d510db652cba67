package server_test

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"instantdb/internal/metrics"
	"instantdb/internal/server"
)

// TestStatsOpcodeAndMetricsExposition is the observability acceptance
// test: the headline gauge instantdb_degrade_lag_seconds is served both
// over the wire Stats opcode and on /metrics, and it moves — zero while
// nothing is overdue, the exact overdue distance once simulated time
// crosses an LCP deadline, and back to zero after the degrader runs.
// The exposition lints clean and carries the queue, transaction,
// per-index / per-table resident-state, page I/O, torn-move repair and
// audit-trail families.
func TestStatsOpcodeAndMetricsExposition(t *testing.T) {
	db, clock, addr := startServer(t, server.Options{})
	ctx := ctxT(t)
	c := dial(t, addr)

	// A B+tree index, so the per-index resident-state gauges have a
	// series to report.
	if _, err := c.Exec(ctx, `CREATE INDEX ix_place ON visits (place) USING BTREE`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, `INSERT INTO visits (id, who, place) VALUES (1, 'anciaux', 'Dam 1')`); err != nil {
		t.Fatal(err)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats["instantdb_degrade_lag_seconds"]; got != 0 {
		t.Fatalf("lag before any deadline = %v, want 0", got)
	}
	// One row, two queue entries: the place attribute queue plus the
	// THEN DELETE tuple queue.
	if got := stats["instantdb_degrade_queue_depth"]; got != 2 {
		t.Fatalf("queue depth = %v, want 2", got)
	}
	if got := stats["instantdb_degrade_queue_bytes"]; got <= 0 {
		t.Fatalf("queue bytes with a backlog = %v, want > 0", got)
	}
	if got := stats["instantdb_server_active_conns"]; got != 1 {
		t.Fatalf("active conns = %v, want 1", got)
	}
	if got := stats[`instantdb_writes_total{purpose="full"}`]; got < 1 {
		t.Fatalf("per-purpose write counter = %v, want >= 1", got)
	}
	// The insert's two scheduled events reached the trail; an in-memory
	// trail writes no segment bytes.
	if got := stats["instantdb_audit_events_total"]; got != 2 {
		t.Fatalf("audit events = %v, want 2", got)
	}
	if got, ok := stats["instantdb_audit_bytes_total"]; !ok || got != 0 {
		t.Fatalf("audit bytes of an in-memory trail = %v (present %v), want 0", got, ok)
	}

	// Cross the 15-minute address deadline by exactly one minute: the
	// lag gauge must report the overdue distance without any tick.
	clock.Advance(16 * time.Minute)
	stats, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats["instantdb_degrade_lag_seconds"]; got != 60 {
		t.Fatalf("lag one minute past the deadline = %v, want 60", got)
	}

	// HTTP side: same gauge on /metrics, lint-clean exposition, and a
	// liveness line on /healthz.
	rec := httptest.NewRecorder()
	server.MetricsHandler(db).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "instantdb_degrade_lag_seconds 60") {
		t.Fatalf("/metrics missing the lag gauge at 60s:\n%s", body)
	}
	if errs := metrics.Lint(rec.Body.Bytes()); len(errs) > 0 {
		t.Fatalf("/metrics exposition lint: %v", errs)
	}
	for _, want := range []string{
		"instantdb_degrade_queue_depth",
		"instantdb_active_txns",
		"instantdb_index_entries{index=",
		"instantdb_index_bytes{index=",
		"instantdb_storage_directory_bytes{table=",
		"instantdb_storage_page_reads_total",
		"instantdb_storage_page_writes_total",
		"instantdb_storage_torn_moves_healed_total",
		"instantdb_audit_events_total",
		"instantdb_audit_bytes_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	rec = httptest.NewRecorder()
	server.MetricsHandler(db).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if got := rec.Body.String(); !strings.HasPrefix(got, "ok lag=60.000s") {
		t.Fatalf("/healthz = %q, want ok lag=60.000s", got)
	}

	// Enforcement brings the gauge back to zero and the transition
	// counter up.
	if _, err := db.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	stats, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats["instantdb_degrade_lag_seconds"]; got != 0 {
		t.Fatalf("lag after enforcement = %v, want 0", got)
	}
	if got := stats["instantdb_degrade_transitions_total"]; got < 1 {
		t.Fatalf("transitions after enforcement = %v, want >= 1", got)
	}
	if got := stats["instantdb_degrade_max_lag_seconds"]; got < 60 {
		t.Fatalf("max lag after enforcement = %v, want >= 60", got)
	}

	// The request histogram saw the two fully completed Stats round
	// trips (the in-flight one observes its latency after replying).
	if got := stats[`instantdb_server_request_seconds_count{op="stats"}`]; got < 2 {
		t.Fatalf("stats opcode histogram count = %v, want >= 2", got)
	}
	if got := stats[`instantdb_server_request_seconds_count{op="exec"}`]; got < 1 {
		t.Fatalf("exec opcode histogram count = %v, want >= 1", got)
	}

	// Past the policy's horizon the tuple is deleted and the queues are
	// drained: they are empty and hold no memory.
	clock.Advance(40 * 24 * time.Hour)
	if _, err := db.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	stats, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if depth, bytes := stats["instantdb_degrade_queue_depth"], stats["instantdb_degrade_queue_bytes"]; depth != 0 || bytes != 0 {
		t.Fatalf("drained queues: depth = %v, bytes = %v, want 0 and 0", depth, bytes)
	}
}
