package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"instantdb/client"
	"instantdb/internal/engine"
	"instantdb/internal/query"
	"instantdb/internal/server"
	"instantdb/internal/shard"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
	"instantdb/internal/wire"
)

// testSchema mirrors the paper's running example: a degradable location
// attribute under a 15m/1h/1d/1mo policy, plus a pk-less side table to
// exercise whole-table pinning.
const testSchema = `
CREATE DOMAIN location TREE LEVELS (address, city, region, country)
  PATH ('Dam 1', 'Amsterdam', 'Noord-Holland', 'Netherlands')
  PATH ('Coolsingel 40', 'Rotterdam', 'Zuid-Holland', 'Netherlands');
CREATE POLICY locpol ON location (
  HOLD address FOR '15m',
  HOLD city FOR '1h',
  HOLD region FOR '1d',
  HOLD country FOR '1mo'
) THEN DELETE;
CREATE TABLE visits (
  id INT PRIMARY KEY,
  who TEXT NOT NULL,
  place TEXT DEGRADABLE DOMAIN location POLICY locpol
);
CREATE TABLE logs (body TEXT);
DECLARE PURPOSE precise SET ACCURACY LEVEL address FOR visits.place;
`

// testShard is one live shard: its own directory, simulated clock,
// engine and wire server.
type testShard struct {
	name  string
	dir   string
	clock *vclock.Simulated
	db    *engine.DB
	srv   *server.Server
	addr  string
}

func startShard(t *testing.T, name string) *testShard {
	t.Helper()
	return startShardWith(t, name, 0, server.Options{})
}

// startShardWith is startShard with the engine's trace sampling rate
// and the shard server's options.
func startShardWith(t *testing.T, name string, traceSample int, opts server.Options) *testShard {
	t.Helper()
	s := &testShard{name: name, clock: vclock.NewSimulated(vclock.Epoch)}
	s.dir = filepath.Join(t.TempDir(), name)
	db, err := engine.Open(engine.Config{Dir: s.dir, Clock: s.clock, ShredBucket: time.Minute, TraceSample: traceSample})
	if err != nil {
		t.Fatal(err)
	}
	s.db = db
	if err := db.ExecScript(testSchema); err != nil {
		t.Fatal(err)
	}
	s.srv = server.New(db, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.addr = ln.Addr().String()
	go s.srv.Serve(ln) //nolint:errcheck // closed via srv.Close
	t.Cleanup(func() {
		s.srv.Close()
		s.db.Close()
	})
	return s
}

// cluster is N shards behind one router.
type cluster struct {
	shards []*testShard
	table  *shard.Table
	router *shard.Router
	addr   string
}

func startCluster(t *testing.T, n int) *cluster {
	t.Helper()
	return startClusterWith(t, n, shard.Options{})
}

// startClusterWith is startCluster with the router's options (the
// request timeout is always 10s).
func startClusterWith(t *testing.T, n int, opts shard.Options) *cluster {
	t.Helper()
	shards := make([]*testShard, n)
	for i := range shards {
		shards[i] = startShard(t, fmt.Sprintf("s%d", i))
	}
	return routeShards(t, shards, opts)
}

// routeShards starts a router with opts over running shards.
func routeShards(t *testing.T, shards []*testShard, opts shard.Options) *cluster {
	t.Helper()
	c := &cluster{shards: shards}
	var infos []shard.Info
	for _, s := range shards {
		infos = append(infos, shard.Info{Name: s.name, Addr: s.addr})
	}
	c.table = shard.Uniform(infos)
	opts.RequestTimeout = 10 * time.Second
	r, err := shard.New(context.Background(), c.table, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.router = r
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.addr = ln.Addr().String()
	go r.Serve(ln) //nolint:errcheck // closed via r.Close
	t.Cleanup(func() { r.Close() })
	return c
}

func dialRouter(t *testing.T, c *cluster, opts ...client.Option) *client.Conn {
	t.Helper()
	conn, err := client.Dial(context.Background(), c.addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// shardIDs queries one shard directly for the visit ids it stores.
func shardIDs(t *testing.T, s *testShard) []int {
	t.Helper()
	rows, err := s.db.NewConn().Query("SELECT id FROM visits ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for _, r := range rows.Data {
		out = append(out, int(r[0].Int()))
	}
	return out
}

func insertVisits(t *testing.T, conn *client.Conn, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 1; i <= n; i++ {
		place := "Dam 1"
		if i%2 == 0 {
			place = "Coolsingel 40"
		}
		res, err := conn.Exec(ctx, "INSERT INTO visits (id, who, place) VALUES (?, ?, ?)",
			value.Int(int64(i)), value.Text(fmt.Sprintf("user%d", i%5)), value.Text(place))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if res.RowsAffected != 1 {
			t.Fatalf("insert %d affected %d rows", i, res.RowsAffected)
		}
	}
}

// TestRouterSingleKeyRouting proves writes land on exactly the shard the
// table owns, point reads find them through the router, and pk-less
// tables pin whole to one shard.
func TestRouterSingleKeyRouting(t *testing.T) {
	c := startCluster(t, 3)
	conn := dialRouter(t, c)
	ctx := context.Background()
	const n = 40
	insertVisits(t, conn, n)

	total := 0
	for idx, s := range c.shards {
		ids := shardIDs(t, s)
		total += len(ids)
		for _, id := range ids {
			if want := c.table.ShardForKey(value.Int(int64(id))); want != idx {
				t.Fatalf("id %d stored on shard %d, table owns it to %d", id, idx, want)
			}
		}
	}
	if total != n {
		t.Fatalf("shards hold %d rows total, want %d", total, n)
	}

	// Point SELECT routes to the owner (single-shard answer, no scatter).
	rows, err := conn.Query(ctx, "SELECT who FROM visits WHERE id = ?", value.Int(7))
	if err != nil || rows.Len() != 1 || rows.Data[0][0].Text() != "user2" {
		t.Fatalf("point select: rows=%v err=%v", rows, err)
	}

	// Keyed UPDATE and DELETE route the same way.
	if res, err := conn.Exec(ctx, "UPDATE visits SET who = ? WHERE id = ?",
		value.Text("renamed"), value.Int(7)); err != nil || res.RowsAffected != 1 {
		t.Fatalf("keyed update: %+v err=%v", res, err)
	}
	rows, err = conn.Query(ctx, "SELECT who FROM visits WHERE id = ?", value.Int(7))
	if err != nil || rows.Len() != 1 || rows.Data[0][0].Text() != "renamed" {
		t.Fatalf("update not visible: rows=%v err=%v", rows, err)
	}
	if res, err := conn.Exec(ctx, "DELETE FROM visits WHERE id = ?", value.Int(7)); err != nil || res.RowsAffected != 1 {
		t.Fatalf("keyed delete: %+v err=%v", res, err)
	}

	// Unkeyed UPDATE broadcasts and sums per-shard counts.
	res, err := conn.Exec(ctx, "UPDATE visits SET who = ? WHERE who = ?",
		value.Text("user0x"), value.Text("user0"))
	if err != nil {
		t.Fatalf("broadcast update: %v", err)
	}
	if res.RowsAffected != 8 { // ids 5,10,...,40 minus none named user0 deleted
		t.Fatalf("broadcast update affected %d rows, want 8", res.RowsAffected)
	}

	// pk-less table: all rows on the one owning shard.
	for i := 0; i < 6; i++ {
		if _, err := conn.Exec(ctx, "INSERT INTO logs (body) VALUES (?)",
			value.Text(fmt.Sprintf("line %d", i))); err != nil {
			t.Fatalf("logs insert: %v", err)
		}
	}
	owner := c.table.ShardForTable("logs")
	for idx, s := range c.shards {
		rows, err := s.db.NewConn().Query("SELECT body FROM logs")
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if idx == owner {
			want = 6
		}
		if rows.Len() != want {
			t.Fatalf("shard %d holds %d logs rows, want %d", idx, rows.Len(), want)
		}
	}
	rows, err = conn.Query(ctx, "SELECT body FROM logs")
	if err != nil || rows.Len() != 6 {
		t.Fatalf("logs through router: %d rows err=%v", rows.Len(), err)
	}
}

// TestRouterOversizedMergedResult: every shard's part fits the frame
// limit but the merged scan does not. The router must refuse it as a
// statement error, as a server does, instead of sending a frame its
// client has to reject, and the session must survive.
func TestRouterOversizedMergedResult(t *testing.T) {
	c := startClusterWith(t, 2, shard.Options{MaxFrame: 4096})
	conn := dialRouter(t, c, client.WithMaxFrame(4096))
	ctx := context.Background()
	who := strings.Repeat("x", 700)
	for id := 1; id <= 6; id++ {
		if _, err := conn.Exec(ctx, "INSERT INTO visits (id, who, place) VALUES (?, ?, 'Dam 1')",
			value.Int(int64(id)), value.Text(who)); err != nil {
			t.Fatalf("insert %d: %v", id, err)
		}
	}
	for _, s := range c.shards {
		if n := len(shardIDs(t, s)); n > 4 {
			t.Fatalf("shard %s holds %d rows; its part would not fit the frame limit", s.name, n)
		}
	}
	_, err := conn.Query(ctx, "SELECT id, who FROM visits")
	var werr *client.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeSQL {
		t.Fatalf("want CodeSQL frame-limit error, got %v", err)
	}
	if err := conn.Ping(ctx); err != nil {
		t.Fatalf("session should survive an oversized result: %v", err)
	}
	rows, err := conn.Query(ctx, "SELECT id, who FROM visits ORDER BY id LIMIT 2")
	if err != nil || rows.Len() != 2 {
		t.Fatalf("narrowed query: rows=%v err=%v", rows, err)
	}
}

// TestRouterScatterGather proves scans and aggregates recombine to
// exactly the single-node answer, and the merges the router cannot do
// exactly are refused rather than computed wrong.
func TestRouterScatterGather(t *testing.T) {
	c := startCluster(t, 3)
	conn := dialRouter(t, c)
	ctx := context.Background()
	const n = 30
	insertVisits(t, conn, n)

	rows, err := conn.Query(ctx, "SELECT id FROM visits ORDER BY id")
	if err != nil {
		t.Fatalf("scatter scan: %v", err)
	}
	if rows.Len() != n {
		t.Fatalf("scatter scan returned %d rows, want %d", rows.Len(), n)
	}
	for i, r := range rows.Data {
		if int(r[0].Int()) != i+1 {
			t.Fatalf("scatter ORDER BY broken at %d: %v", i, r[0])
		}
	}

	rows, err = conn.Query(ctx, "SELECT id FROM visits ORDER BY id DESC LIMIT 5")
	if err != nil || rows.Len() != 5 || rows.Data[0][0].Int() != n {
		t.Fatalf("scatter order/limit: rows=%v err=%v", rows, err)
	}

	rows, err = conn.Query(ctx, "SELECT COUNT(*), SUM(id), MIN(id), MAX(id) FROM visits")
	if err != nil || rows.Len() != 1 {
		t.Fatalf("scatter aggregates: rows=%v err=%v", rows, err)
	}
	got := rows.Data[0]
	if got[0].Int() != n || got[1].Int() != n*(n+1)/2 || got[2].Int() != 1 || got[3].Int() != n {
		t.Fatalf("scatter aggregates wrong: %v", got)
	}

	rows, err = conn.Query(ctx, "SELECT who, COUNT(*) FROM visits GROUP BY who")
	if err != nil {
		t.Fatalf("scatter group by: %v", err)
	}
	counts := map[string]int{}
	for _, r := range rows.Data {
		counts[r[0].Text()] = int(r[1].Int())
	}
	if len(counts) != 5 || counts["user0"] != 6 || counts["user4"] != 6 {
		t.Fatalf("scatter group by wrong: %v", counts)
	}

	// ORDER BY and LIMIT over groups apply at the router, after the merge.
	rows, err = conn.Query(ctx, "SELECT who, COUNT(*) AS n FROM visits GROUP BY who ORDER BY who DESC LIMIT 2")
	if err != nil || rows.Len() != 2 || rows.Data[0][0].Text() != "user4" || rows.Data[1][1].Int() != 6 {
		t.Fatalf("scatter group by + order/limit: rows=%v err=%v", rows, err)
	}

	// Refusals: merges that cannot be exact are errors, not wrong answers.
	for _, q := range []string{
		"SELECT COUNT(*) FROM visits GROUP BY who",
		"BEGIN",
	} {
		if _, err := conn.Query(ctx, q); err == nil {
			t.Fatalf("%q should have been refused", q)
		}
	}
	if err := conn.Begin(ctx); err == nil {
		t.Fatal("Begin through the router should be refused")
	}
	if err := conn.Ping(ctx); err != nil {
		t.Fatalf("session should survive refusals: %v", err)
	}
}

// TestRouterAvgScatter proves AVG recombines exactly across shards via
// the SUM+COUNT partial rewrite: global and grouped averages match the
// single-node arithmetic, output columns keep the engine's naming,
// NULL-only groups answer NULL, and bound arguments survive the
// rewrite.
func TestRouterAvgScatter(t *testing.T) {
	c := startCluster(t, 3)
	conn := dialRouter(t, c)
	ctx := context.Background()
	const n = 30
	insertVisits(t, conn, n)

	rows, err := conn.Query(ctx, "SELECT AVG(id) FROM visits")
	if err != nil || rows.Len() != 1 {
		t.Fatalf("global AVG: rows=%v err=%v", rows, err)
	}
	if len(rows.Columns) != 1 || rows.Columns[0] != "avg(id)" {
		t.Fatalf("global AVG columns = %v, want [avg(id)]", rows.Columns)
	}
	if got := rows.Data[0][0].Float(); got != float64(n+1)/2 {
		t.Fatalf("global AVG = %v, want %v", got, float64(n+1)/2)
	}

	// Bound argument: the rewrite renders the bound literal, not the ?.
	rows, err = conn.Query(ctx, "SELECT AVG(id) AS a FROM visits WHERE id > ?", value.Int(20))
	if err != nil || rows.Len() != 1 || rows.Columns[0] != "a" {
		t.Fatalf("AVG with arg: rows=%v err=%v", rows, err)
	}
	if got := rows.Data[0][0].Float(); got != 25.5 { // mean of 21..30
		t.Fatalf("AVG(id) WHERE id > 20 = %v, want 25.5", got)
	}

	// Grouped AVG, mixed with other aggregates, ordered on the alias.
	rows, err = conn.Query(ctx,
		"SELECT who, AVG(id) AS a, COUNT(*) FROM visits GROUP BY who ORDER BY a DESC")
	if err != nil {
		t.Fatalf("grouped AVG: %v", err)
	}
	want := map[string][2]float64{}
	for i := 1; i <= n; i++ {
		who := fmt.Sprintf("user%d", i%5)
		w := want[who]
		want[who] = [2]float64{w[0] + float64(i), w[1] + 1}
	}
	if rows.Len() != len(want) {
		t.Fatalf("grouped AVG returned %d groups, want %d", rows.Len(), len(want))
	}
	prev := math.Inf(1)
	for _, r := range rows.Data {
		who, got, cnt := r[0].Text(), r[1].Float(), r[2].Int()
		w := want[who]
		if got != w[0]/w[1] || float64(cnt) != w[1] {
			t.Fatalf("group %s: avg=%v count=%d, want avg=%v count=%v", who, got, cnt, w[0]/w[1], w[1])
		}
		if got > prev {
			t.Fatalf("ORDER BY a DESC violated: %v after %v", got, prev)
		}
		prev = got
	}

	// NULL-only groups: AVG over no non-NULL input is NULL, exactly as a
	// single node answers; groups with values are unaffected.
	if _, err := conn.Exec(ctx, "CREATE TABLE m (id INT PRIMARY KEY, grp TEXT, v INT)"); err != nil {
		t.Fatalf("create m: %v", err)
	}
	for i, row := range []string{
		"(1, 'empty', NULL)", "(2, 'empty', NULL)", "(3, 'empty', NULL)",
		"(4, 'full', 10)", "(5, 'full', NULL)", "(6, 'full', 20)",
	} {
		if _, err := conn.Exec(ctx, "INSERT INTO m (id, grp, v) VALUES "+row); err != nil {
			t.Fatalf("insert m row %d: %v", i, err)
		}
	}
	rows, err = conn.Query(ctx, "SELECT grp, AVG(v) FROM m GROUP BY grp")
	if err != nil {
		t.Fatalf("NULL-group AVG: %v", err)
	}
	got := map[string]value.Value{}
	for _, r := range rows.Data {
		got[r[0].Text()] = r[1]
	}
	if !got["empty"].IsNull() {
		t.Fatalf("AVG over NULL-only group = %v, want NULL", got["empty"])
	}
	if v := got["full"]; v.IsNull() || v.Float() != 15 {
		t.Fatalf("AVG over full group = %v, want 15", v)
	}
	rows, err = conn.Query(ctx, "SELECT AVG(v) FROM m WHERE grp = 'empty'")
	if err != nil || rows.Len() != 1 || !rows.Data[0][0].IsNull() {
		t.Fatalf("global AVG over all-NULL rows: rows=%v err=%v, want one NULL", rows, err)
	}
}

// TestRouterPurposeEnforcement proves the purpose travels to every shard
// and is enforced there, and that the router refuses an undeclared
// purpose itself, from its schema mirror, as a server would.
func TestRouterPurposeEnforcement(t *testing.T) {
	c := startCluster(t, 3)
	full := dialRouter(t, c)
	ctx := context.Background()
	insertVisits(t, full, 12)

	precise := dialRouter(t, c, client.WithPurpose("precise"))
	rows, err := precise.Query(ctx, "SELECT place FROM visits WHERE id = ?", value.Int(3))
	if err != nil || rows.Len() != 1 || rows.Data[0][0].Text() != "Dam 1" {
		t.Fatalf("precise point read: rows=%v err=%v", rows, err)
	}
	rows, err = precise.Query(ctx, "SELECT id, place FROM visits ORDER BY id")
	if err != nil || rows.Len() != 12 {
		t.Fatalf("precise scatter: %d rows err=%v", rows.Len(), err)
	}

	// An unknown purpose fails the router handshake, as it fails a
	// server's.
	if _, err := client.Dial(ctx, c.addr, client.WithPurpose("no-such-purpose")); !errors.Is(err, client.ErrUnknownPurpose) {
		t.Fatalf("unknown purpose at the router handshake: %v, want ErrUnknownPurpose", err)
	}

	// SET PURPOSE switches every downstream session.
	if _, err := full.Exec(ctx, "SELECT id, place FROM visits ORDER BY id"); err != nil {
		t.Fatalf("pre-switch scatter: %v", err)
	}
	if err := full.SetPurpose(ctx, "precise"); err != nil {
		t.Fatalf("set purpose via router: %v", err)
	}
	rows, err = full.Query(ctx, "SELECT place FROM visits WHERE id = ?", value.Int(4))
	if err != nil || rows.Len() != 1 || rows.Data[0][0].Text() != "Coolsingel 40" {
		t.Fatalf("post-switch read: rows=%v err=%v", rows, err)
	}
	if err := full.SetPurpose(ctx, "does-not-exist"); err == nil {
		t.Fatal("SET PURPOSE to unknown purpose should fail")
	}
	if err := full.SetPurpose(ctx, "nosuch"); !errors.Is(err, client.ErrUnknownPurpose) {
		t.Fatalf("SET PURPOSE to unknown purpose: %v, want ErrUnknownPurpose", err)
	}
}

// TestRouterStaleVersionFailsLoud proves the mixed-version guard: once
// any shard has served under a newer routing table, connections
// presenting the old one are rejected at the shard, and a router cannot
// even start with the stale table.
func TestRouterStaleVersionFailsLoud(t *testing.T) {
	c := startCluster(t, 3)
	ctx := context.Background()
	conn := dialRouter(t, c)
	insertVisits(t, conn, 10)

	// Shard 0 learns (and persists) version 99 out of band.
	direct, err := client.Dial(ctx, c.shards[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := direct.ShardCheck(ctx, 99); err != nil {
		t.Fatalf("bump shard version: %v", err)
	}
	direct.Close()

	// A fresh router with the v1 table must refuse to start.
	if _, err := shard.New(ctx, c.table, shard.Options{}); err == nil ||
		!strings.Contains(err.Error(), "refused table v1") {
		t.Fatalf("stale router start: err=%v, want shard-stale refusal", err)
	}

	// A fresh session through the live (now stale) router fails loud on
	// any statement that needs shard 0 — never misroutes silently.
	var idOnShard0 int64
	for id := int64(1); id <= 10; id++ {
		if c.table.ShardForKey(value.Int(id)) == 0 {
			idOnShard0 = id
			break
		}
	}
	if idOnShard0 == 0 {
		t.Fatal("no test id maps to shard 0")
	}
	fresh := dialRouter(t, c)
	if _, err := fresh.Query(ctx, "SELECT who FROM visits WHERE id = ?", value.Int(idOnShard0)); err == nil ||
		!strings.Contains(err.Error(), "refused table") {
		t.Fatalf("stale route should fail loud, got err=%v", err)
	}
}

// TestRouterMergedStats proves the aggregation rule: lag-style gauges
// take the max over shards, counters sum, and a dead shard is reported
// down without blocking the rollup.
func TestRouterMergedStats(t *testing.T) {
	c := startCluster(t, 3)
	conn := dialRouter(t, c)
	ctx := context.Background()
	insertVisits(t, conn, 9)

	stats, err := conn.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats["instantdb_router_shards"]; got != 3 {
		t.Fatalf("instantdb_router_shards = %v, want 3", got)
	}
	if got := stats["instantdb_router_table_version"]; got != 1 {
		t.Fatalf("instantdb_router_table_version = %v, want 1", got)
	}
	// Write counters sum across shards: at least the 9 routed inserts
	// (the counter is labeled by purpose, so sum the family).
	var writes float64
	for k, v := range stats {
		if strings.HasPrefix(k, "instantdb_writes_total") {
			writes += v
		}
	}
	if writes < 9 {
		t.Fatalf("summed instantdb_writes_total = %v, want >= 9", writes)
	}
	for _, s := range c.shards {
		key := fmt.Sprintf("instantdb_router_shard_up{shard=%q}", s.name)
		if got := stats[key]; got != 1 {
			t.Fatalf("%s = %v, want 1", key, got)
		}
	}
	if _, ok := stats["instantdb_router_degrade_lag_max_seconds"]; !ok {
		t.Fatal("max-lag rollup gauge missing from merged stats")
	}

	// Kill one shard's server: the rollup still answers, reporting it down.
	c.shards[2].srv.Close()
	stats, err = conn.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats[fmt.Sprintf("instantdb_router_shard_up{shard=%q}", c.shards[2].name)]; got != 0 {
		t.Fatalf("dead shard reported up: %v", got)
	}
}

// TestRouterSchemaMirror proves OpSchema through the router reflects the
// shards' DDL, including DDL broadcast after start.
func TestRouterSchemaMirror(t *testing.T) {
	c := startCluster(t, 2)
	conn := dialRouter(t, c)
	ctx := context.Background()

	script, err := conn.Schema(ctx)
	if err != nil || !strings.Contains(strings.ToUpper(script), "CREATE TABLE") {
		t.Fatalf("router schema: %q err=%v", script, err)
	}
	if _, err := conn.Exec(ctx, "CREATE TABLE extra (k INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatalf("broadcast DDL: %v", err)
	}
	// The new table routes immediately (schema mirror updated in place).
	if _, err := conn.Exec(ctx, "INSERT INTO extra (k, v) VALUES (?, ?)",
		value.Int(1), value.Text("x")); err != nil {
		t.Fatalf("insert into broadcast-created table: %v", err)
	}
	found := 0
	for _, s := range c.shards {
		rows, err := s.db.NewConn().Query("SELECT k FROM extra")
		if err != nil {
			t.Fatalf("extra missing on a shard: %v", err)
		}
		found += rows.Len()
	}
	if found != 1 {
		t.Fatalf("broadcast-created table holds %d rows across shards, want 1", found)
	}
}

// TestSchemaScriptKeepsLiterals: a DDL literal holding a ';' survives
// the router's schema mirror. The shard persists each statement as
// written, the mirror keeps each statement of the shard's script whole,
// and the script it serves for OpSchema parses to the same statements.
func TestSchemaScriptKeepsLiterals(t *testing.T) {
	const ddl = `CREATE DOMAIN codes TREE LEVELS (code, family) PATH ('x;y', 'z') PATH ('w', 'z');
CREATE POLICY cp ON codes (HOLD code FOR '1h') THEN SUPPRESS;
CREATE TABLE tagged (id INT PRIMARY KEY, code TEXT DEGRADABLE DOMAIN codes POLICY cp)`
	db, err := engine.Open(engine.Config{Dir: t.TempDir(), Clock: vclock.NewSimulated(vclock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(ddl); err != nil {
		t.Fatal(err)
	}
	script, err := db.CatalogScript()
	if err != nil {
		t.Fatal(err)
	}
	mirror := shard.NewSchema()
	if err := mirror.ApplyScript(script); err != nil {
		t.Fatal(err)
	}
	served := mirror.Script()
	got, _, err := query.ParseScript(served)
	if err != nil {
		t.Fatalf("the mirror's script does not parse: %v\n%s", err, served)
	}
	want, _, err := query.ParseScript(ddl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the mirror serves\n%s\nwhich parses to %#v, want %#v", served, got, want)
	}
	if names := mirror.TableNames(); len(names) != 1 || names[0] != "tagged" {
		t.Fatalf("mirrored tables %v, want [tagged]", names)
	}
}
