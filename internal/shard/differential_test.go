package shard_test

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"instantdb/client"
	"instantdb/internal/engine"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
)

// diffDDL extends testSchema with a measures table (NULLs, integers past
// 2^53, floats) and a purpose that reads visits.place two levels up.
var diffDDL = []string{
	"CREATE TABLE m (id INT PRIMARY KEY, grp TEXT, v INT, f FLOAT)",
	"DECLARE PURPOSE regional SET ACCURACY LEVEL region FOR visits.place",
}

type diffCase struct {
	purpose string // session purpose ("" = default)
	sql     string
	args    []value.Value
}

// diffCases are the SELECT shapes a 3-shard cluster must answer exactly
// as one node does. A statement without ORDER BY is compared as a bag of
// rows; every ORDER BY here is total, so those compare in order.
var diffCases = []diffCase{
	// Plain scans: verbatim, ORDER BY and LIMIT pushed down and re-applied.
	{sql: "SELECT * FROM m"},
	{sql: "SELECT id, who FROM visits ORDER BY id"},
	{sql: "SELECT who, id FROM visits ORDER BY who DESC, id LIMIT 7"},
	{sql: "SELECT id, v FROM m WHERE v IS NOT NULL ORDER BY v DESC, id LIMIT 3"},
	{sql: "SELECT id FROM m WHERE id < 0"},
	// Each aggregate alone.
	{sql: "SELECT COUNT(*) FROM m"},
	{sql: "SELECT COUNT(v) FROM m"},
	{sql: "SELECT SUM(v) FROM m"},
	{sql: "SELECT SUM(v) FROM m WHERE id <= 2"},
	{sql: "SELECT SUM(f) FROM m"},
	{sql: "SELECT AVG(v) FROM m"},
	{sql: "SELECT AVG(f) FROM m"},
	{sql: "SELECT MIN(v) FROM m"},
	{sql: "SELECT MAX(grp) FROM m"},
	// Mixed, with aliases.
	{sql: "SELECT COUNT(*) AS n, SUM(v) AS s, AVG(v), MIN(f) AS lo, MAX(f), COUNT(grp) FROM m"},
	// Grouped.
	{sql: "SELECT grp, COUNT(*) FROM m GROUP BY grp"},
	{sql: "SELECT grp, SUM(v), MIN(v), MAX(f) FROM m GROUP BY grp ORDER BY grp DESC"},
	{sql: "SELECT who, COUNT(*) AS n FROM visits GROUP BY who ORDER BY n DESC LIMIT 2"},
	{sql: "SELECT COUNT(*) AS n, who FROM visits GROUP BY who ORDER BY n LIMIT 3"},
	{sql: "SELECT grp FROM m GROUP BY grp ORDER BY grp LIMIT 2"},
	// AVG ordered on its alias, beside other aggregates.
	{sql: "SELECT grp, AVG(f) AS a, COUNT(*) FROM m WHERE f IS NOT NULL GROUP BY grp ORDER BY a DESC, grp"},
	{sql: "SELECT AVG(v) AS a, grp, AVG(f) FROM m GROUP BY grp ORDER BY grp LIMIT 3"},
	// Empty input: a global aggregate answers one row, a grouped one none.
	{sql: "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM m WHERE id < 0"},
	{sql: "SELECT grp, AVG(v) FROM m WHERE id < 0 GROUP BY grp"},
	// Bound arguments survive the partial form.
	{sql: "SELECT AVG(v) AS a, COUNT(*) FROM m WHERE id > ? AND grp = ?", args: []value.Value{value.Int(10), value.Text("g1")}},
	{sql: "SELECT grp, SUM(f) FROM m WHERE f BETWEEN ? AND ? GROUP BY grp ORDER BY grp", args: []value.Value{value.Float(-10.5), value.Float(40)}},
	{sql: "SELECT id FROM m WHERE grp = ? ORDER BY id DESC LIMIT 4", args: []value.Value{value.Text("g2")}},
	// Non-finite arguments, which SQL text has no literal for.
	{sql: "SELECT COUNT(*), AVG(v) FROM m WHERE f < ?", args: []value.Value{value.Float(math.Inf(1))}},
	{sql: "SELECT grp, COUNT(*) AS n, SUM(f) FROM m WHERE f > ? GROUP BY grp ORDER BY grp", args: []value.Value{value.Float(math.Inf(-1))}},
	{sql: "SELECT COUNT(*), MAX(f) FROM m WHERE f <> ? OR v > ?", args: []value.Value{value.Float(math.NaN()), value.Int(0)}},
	// A degradable column read at a coarse purpose, by session and by clause.
	{purpose: "regional", sql: "SELECT place, COUNT(*) AS n, AVG(id) FROM visits GROUP BY place ORDER BY place"},
	{purpose: "regional", sql: "SELECT id, place FROM visits WHERE place = 'Noord-Holland' ORDER BY id LIMIT 5"},
	{purpose: "regional", sql: "SELECT MIN(place), MAX(place), COUNT(place) FROM visits"},
	{sql: "SELECT place, COUNT(*) AS n FROM visits GROUP BY place ORDER BY n DESC, place LIMIT 1 FOR PURPOSE regional"},
}

// TestScatterMatchesSingleNode loads the same seed-drawn rows into one
// node and into a 3-shard cluster and requires identical columns and rows
// for every shape in diffCases. A failure names the seed.
func TestScatterMatchesSingleNode(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { scatterMatchesSingleNode(t, seed) })
	}
}

func scatterMatchesSingleNode(t *testing.T, seed int64) {
	ctx := context.Background()
	c := startCluster(t, 3)
	db, err := engine.Open(engine.Config{Clock: vclock.NewSimulated(vclock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.ExecScript(testSchema); err != nil {
		t.Fatal(err)
	}
	single := map[string]*engine.Conn{}
	routed := map[string]*client.Conn{}
	for _, p := range []string{"", "regional"} {
		single[p] = db.NewConn()
		routed[p] = dialRouter(t, c) // the purpose is declared below, so switch after
	}
	both := func(sql string, args ...value.Value) {
		t.Helper()
		if _, err := single[""].Exec(sql, args...); err != nil {
			t.Fatalf("single node: %s: %v", sql, err)
		}
		if _, err := routed[""].Exec(ctx, sql, args...); err != nil {
			t.Fatalf("cluster: %s: %v", sql, err)
		}
	}
	for _, ddl := range diffDDL {
		both(ddl)
	}
	if err := single["regional"].SetPurpose("regional"); err != nil {
		t.Fatal(err)
	}
	if err := routed["regional"].SetPurpose(ctx, "regional"); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	// visits: the k-th who has 2^k visits (the last one what is left), so
	// group counts are distinct and ORDER BY n is total.
	for id := 1; id <= 40; id++ {
		place := []string{"Dam 1", "Coolsingel 40"}[rng.Intn(2)]
		both("INSERT INTO visits (id, who, place) VALUES (?, ?, ?)",
			value.Int(int64(id)), value.Text(fmt.Sprintf("user%d", bits.Len(uint(id)))), value.Text(place))
	}
	// m: the two rows of the exact-SUM case first, then drawn ones.
	both("INSERT INTO m (id, grp, v, f) VALUES (1, 'g0', 9007199254740993, 0.5)")
	both("INSERT INTO m (id, grp, v, f) VALUES (2, 'g0', 0, NULL)")
	for id := 3; id <= 60; id++ {
		grp, v, f := value.Text(fmt.Sprintf("g%d", rng.Intn(4))), value.Int(int64(rng.Intn(2000)-1000)), value.Float(float64(rng.Intn(400)-200)/2)
		if rng.Intn(7) == 0 {
			grp = value.Null()
		}
		switch rng.Intn(6) {
		case 0:
			v = value.Null()
		case 1:
			v = value.Int(1<<53 + 1 + int64(rng.Intn(1000)))
		}
		if rng.Intn(5) == 0 {
			f = value.Null()
		}
		both("INSERT INTO m (id, grp, v, f) VALUES (?, ?, ?, ?)", value.Int(int64(id)), grp, v, f)
	}
	spread := 0
	for _, s := range c.shards {
		if len(shardIDs(t, s)) > 0 {
			spread++
		}
	}
	if spread != 3 {
		t.Fatalf("rows landed on %d of 3 shards", spread)
	}

	for _, tc := range diffCases {
		want, err := single[tc.purpose].Query(tc.sql, tc.args...)
		if err != nil {
			t.Fatalf("seed %d: single node: %s: %v", seed, tc.sql, err)
		}
		got, err := routed[tc.purpose].Query(ctx, tc.sql, tc.args...)
		if err != nil {
			t.Errorf("seed %d: cluster: %s: %v", seed, tc.sql, err)
			continue
		}
		ordered := strings.Contains(tc.sql, "ORDER BY")
		w, g := showResult(want.Columns, want.Data, ordered), showResult(got.Columns, got.Data, ordered)
		if w != g {
			t.Errorf("seed %d: %s %v\ncluster:\n%ssingle node:\n%s", seed, tc.sql, tc.args, g, w)
		}
	}
	// Not just the same answer: the right one.
	rows, err := routed[""].Query(ctx, "SELECT SUM(v) FROM m WHERE id <= 2")
	if err != nil || rows.Data[0][0].Int() != 9007199254740993 {
		t.Errorf("seed %d: SUM(9007199254740993, 0) through the router = %v, %v", seed, rows, err)
	}
}

// showResult prints a result with the kind of every cell; unordered
// results print as a sorted bag.
func showResult(cols []string, data [][]value.Value, ordered bool) string {
	lines := make([]string, len(data))
	for i, row := range data {
		var b strings.Builder
		for _, v := range row {
			fmt.Fprintf(&b, " %s:%s", v.Kind(), v)
		}
		lines[i] = b.String()
	}
	if !ordered {
		sort.Strings(lines)
	}
	return fmt.Sprintf("%v\n%s\n", cols, strings.Join(lines, "\n"))
}
