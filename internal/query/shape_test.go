package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"instantdb/internal/value"
)

var shapeCols = []string{"id", "g", "i", "f"}

func shapeOf(t *testing.T, sql string) *Shape {
	t.Helper()
	sh, err := NewShape(mustParse(t, sql).(*Select), shapeCols)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return sh
}

// evalRows runs sh over input rows the way a single node does.
func evalRows(t *testing.T, sh *Shape, in [][]value.Value) [][]value.Value {
	t.Helper()
	acc := sh.Begin()
	for _, row := range in {
		if err := acc.Feed(row); err != nil {
			t.Fatal(err)
		}
	}
	out, err := acc.Rows()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func showRows(rows [][]value.Value) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%v %v\n", r, kindsOf(r))
	}
	return b.String()
}

func kindsOf(row []value.Value) []value.Kind {
	out := make([]value.Kind, len(row))
	for i, v := range row {
		out[i] = v.Kind()
	}
	return out
}

// randRows draws rows of (id, g, i, f): a unique id, a group label that
// is sometimes NULL, an integer that is sometimes NULL and sometimes past
// 2^53, and a float on the half-grid (so float sums are exact whatever
// the order of addition) that is sometimes NULL.
func randRows(rng *rand.Rand, n int) [][]value.Value {
	rows := make([][]value.Value, n)
	for k := range rows {
		g, i, f := value.Text(fmt.Sprintf("g%d", rng.Intn(4))), value.Int(int64(rng.Intn(200)-100)), value.Float(float64(rng.Intn(400)-200)/2)
		if rng.Intn(6) == 0 {
			g = value.Null()
		}
		switch rng.Intn(6) {
		case 0:
			i = value.Null()
		case 1:
			i = value.Int(1<<53 + int64(rng.Intn(1000)))
		}
		if rng.Intn(5) == 0 {
			f = value.Null()
		}
		rows[k] = []value.Value{value.Int(int64(k)), g, i, f}
	}
	return rows
}

// TestFeedEqualsMergeOfPartitions: feeding all rows into one evaluation
// gives the rows that come out of splitting them at random, running the
// partial form over each part as a shard would (the shape of the partial
// statement, fed the part), and merging — for every statement shape,
// including the empty input and empty parts.
func TestFeedEqualsMergeOfPartitions(t *testing.T) {
	stmts := []string{
		"SELECT * FROM t ORDER BY id",
		"SELECT id, g FROM t ORDER BY id DESC LIMIT 7",
		"SELECT g, id FROM t ORDER BY g, id LIMIT 5",
		"SELECT COUNT(*) FROM t",
		"SELECT COUNT(i), COUNT(f), COUNT(g) FROM t",
		"SELECT SUM(i), SUM(f) FROM t",
		"SELECT AVG(i), AVG(f) FROM t",
		"SELECT MIN(i), MAX(i), MIN(g), MAX(f) FROM t",
		"SELECT COUNT(*) AS n, SUM(i) AS s, AVG(f) AS a, MIN(id), MAX(id) FROM t LIMIT 1",
		"SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g",
		"SELECT g, AVG(i) AS a, SUM(f), COUNT(i) FROM t GROUP BY g ORDER BY g DESC",
		"SELECT AVG(f) AS a, g, MAX(i) FROM t GROUP BY g ORDER BY g LIMIT 2",
		"SELECT g FROM t GROUP BY g ORDER BY g",
	}
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := randRows(rng, rng.Intn(40))
		parts := make([][][]value.Value, 1+rng.Intn(4))
		for _, row := range rows {
			p := rng.Intn(len(parts))
			parts[p] = append(parts[p], row)
		}
		for _, sql := range stmts {
			sh := shapeOf(t, sql)
			want := evalRows(t, sh, rows)

			partial, err := sh.Partial()
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			psh, err := NewShape(partial, shapeCols) // what a shard runs
			if err != nil {
				t.Fatalf("%s: shape of the partial form: %v", sql, err)
			}
			acc := sh.Begin()
			for _, part := range parts {
				for _, row := range evalRows(t, psh, part) {
					if err := acc.Merge(row); err != nil {
						t.Fatalf("seed %d %s: merge: %v", seed, sql, err)
					}
				}
			}
			got, err := acc.Rows()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, sql, err)
			}
			if showRows(got) != showRows(want) {
				t.Fatalf("seed %d, %d parts: %s\npartial columns: %v\nmerged:\n%ssingle:\n%s", seed, len(parts), sql, psh.Columns, showRows(got), showRows(want))
			}
		}
	}
}

func TestAggregateRules(t *testing.T) {
	feed := func(fn AggFunc, vs ...value.Value) value.Value {
		t.Helper()
		a := aggState{fn: fn}
		for _, v := range vs {
			if err := a.feed(v); err != nil {
				t.Fatal(err)
			}
		}
		return a.result()
	}
	// Integer sums are exact past 2^53.
	if got := feed(AggSum, value.Int(9007199254740993), value.Null(), value.Int(0)); got.Kind() != value.KindInt || got.Int() != 9007199254740993 {
		t.Fatalf("SUM = %v", got)
	}
	// A sum that leaves int64 carries on as a float instead of wrapping.
	if got := feed(AggSum, value.Int(math.MaxInt64), value.Int(math.MaxInt64)); got.Kind() != value.KindFloat || got.Float() != 2*float64(math.MaxInt64) {
		t.Fatalf("overflowing SUM = %v", got)
	}
	if got := feed(AggSum, value.Int(math.MinInt64), value.Int(-1), value.Int(5)); got.Kind() != value.KindFloat || got.Float() != float64(math.MinInt64) {
		t.Fatalf("underflowing SUM = %v", got)
	}
	// One float input makes the sum a float.
	if got := feed(AggSum, value.Int(2), value.Float(0.5)); got.Kind() != value.KindFloat || got.Float() != 2.5 {
		t.Fatalf("mixed SUM = %v", got)
	}
	if got := feed(AggAvg, value.Int(1), value.Null(), value.Int(2)); got.Float() != 1.5 {
		t.Fatalf("AVG = %v", got)
	}
	// A value that does not compare with the running extreme is skipped.
	mixed := []value.Value{value.Int(3), value.Text("2000-3000"), value.Int(1), value.Float(7.5)}
	if lo, hi := feed(AggMin, mixed...), feed(AggMax, mixed...); lo.Int() != 1 || hi.Float() != 7.5 {
		t.Fatalf("MIN, MAX over mixed kinds = %v, %v", lo, hi)
	}
	if err := (&aggState{fn: AggSum}).merge([]value.Value{value.Text("x")}); err == nil {
		t.Fatal("SUM partial of kind text accepted")
	}
	if err := (&aggState{fn: AggCount}).merge([]value.Value{value.Float(1)}); err == nil {
		t.Fatal("COUNT partial of kind float accepted")
	}
	for _, fn := range []AggFunc{AggSum, AggAvg, AggMin, AggMax} {
		if got := feed(fn, value.Null()); !got.IsNull() {
			t.Fatalf("aggregate %d over no input = %v, want NULL", fn, got)
		}
	}
	if got := feed(AggCount); got.Int() != 0 {
		t.Fatalf("COUNT over no input = %v", got)
	}
}

func TestShapeRefusals(t *testing.T) {
	for _, sql := range []string{
		"SELECT *, COUNT(*) FROM t",
		"SELECT * FROM t GROUP BY g",
		"SELECT id, COUNT(*) FROM t GROUP BY g",
		"SELECT id FROM t ORDER BY g",
		"SELECT nosuch FROM t",
		"SELECT SUM(nosuch) FROM t",
		"SELECT COUNT(*) FROM t GROUP BY nosuch",
	} {
		if _, err := NewShape(mustParse(t, sql).(*Select), shapeCols); err == nil {
			t.Errorf("%s: accepted", sql)
		}
	}
	// A single node groups by a column it does not select; the router
	// cannot find such a row's group again.
	sh := shapeOf(t, "SELECT COUNT(*) FROM t GROUP BY g")
	if _, err := sh.Partial(); err == nil {
		t.Error("partial form of an unselected GROUP BY column accepted")
	}
	if got := evalRows(t, sh, randRows(rand.New(rand.NewSource(1)), 30)); len(got) < 2 {
		t.Errorf("unselected GROUP BY column gave %d groups", len(got))
	}
	// Rows from outside the process are checked before they are indexed.
	if err := shapeOf(t, "SELECT g, AVG(i) FROM t GROUP BY g").Begin().Merge([]value.Value{value.Text("g0"), value.Int(1)}); err == nil {
		t.Error("short partial row accepted")
	}
	// ORDER BY and LIMIT are withheld from an aggregated partial form and
	// pushed down with a plain scan.
	for sql, want := range map[string]string{
		"SELECT g, AVG(i) AS a FROM t WHERE id > 3 GROUP BY g ORDER BY a DESC LIMIT 2": "SELECT g, SUM(i), COUNT(i) FROM t WHERE id > 3 GROUP BY g",
		"SELECT id FROM t ORDER BY id DESC LIMIT 2":                                    "SELECT id FROM t ORDER BY id DESC LIMIT 2",
	} {
		p, err := shapeOf(t, sql).Partial()
		if err != nil {
			t.Fatal(err)
		}
		if w := mustParse(t, want); !reflect.DeepEqual(p, w) {
			t.Errorf("partial of %s\n got %+v\nwant %+v (%s)", sql, p, w, want)
		}
	}
}
