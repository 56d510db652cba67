package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"instantdb/internal/query"
	"instantdb/internal/value"
)

const p53 = 1 << 53 // past it, float64 no longer holds every INT

// TestIntPrimaryKeysBeyondFloatPrecision: INT primary keys that one
// float64 cannot tell apart are distinct keys, and a true duplicate is
// still refused.
func TestIntPrimaryKeysBeyondFloatPrecision(t *testing.T) {
	db, _ := openSim(t)
	db.MustExec(`CREATE TABLE u (id INT PRIMARY KEY, k INT)`)
	ids := []int64{p53, p53 + 1, p53 - 1, -p53, -p53 - 1, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1}
	for i, id := range ids {
		if _, err := db.Exec(`INSERT INTO u (id, k) VALUES (?, ?)`, value.Int(id), value.Int(int64(i))); err != nil {
			t.Fatalf("insert id=%d: %v", id, err)
		}
	}
	for _, id := range ids {
		if _, err := db.Exec(`INSERT INTO u (id, k) VALUES (?, 0)`, value.Int(id)); !errors.Is(err, ErrDuplicateKey) {
			t.Fatalf("second insert of id=%d: %v, want a duplicate key", id, err)
		}
	}
	for i, id := range ids {
		res := db.MustExec(`SELECT k FROM u WHERE id = ?`, value.Int(id))
		if res.Rows.Len() != 1 || res.Rows.Data[0][0].Int() != int64(i) {
			t.Fatalf("id=%d reads %v, want k=%d", id, res.Rows.Data, i)
		}
	}
	if n := db.indexes["pk_u"].bt.Len(); n != len(ids) {
		t.Fatalf("primary key index holds %d keys, want %d", n, len(ids))
	}
}

// TestIndexedIntPredicatesMatchScan: a B+tree index on an INT or a FLOAT
// column answers every comparison as a scan of an unindexed copy of the
// table does — at the edges of float64 precision and of the INT range,
// for INT constants and for FLOAT ones on either column.
func TestIndexedIntPredicatesMatchScan(t *testing.T) {
	db, _ := openSim(t)
	for _, tbl := range []string{"ix", "scan"} {
		db.MustExec(`CREATE TABLE ` + tbl + ` (id INT PRIMARY KEY, k INT, f FLOAT)`)
	}
	db.MustExec(`CREATE INDEX ix_k ON ix (k) USING BTREE`)
	db.MustExec(`CREATE INDEX ix_f ON ix (f) USING BTREE`)

	ints := []int64{math.MinInt64, math.MinInt64 + 1, -p53 - 1, -p53, -p53 + 1, -2, -1, 0, 1, 2,
		p53 - 1, p53, p53 + 1, p53 + 2, math.MaxInt64 - 1, math.MaxInt64}
	floats := []float64{math.Inf(-1), -p53 - 2, -1.5, -0.5, math.Copysign(0, -1), 0.5, 1.5, p53 + 2, 1e300, math.Inf(1)}
	insert := func(id int64, k, f value.Value) {
		for _, tbl := range []string{"ix", "scan"} {
			db.MustExec(`INSERT INTO `+tbl+` (id, k, f) VALUES (?, ?, ?)`, value.Int(id), k, f)
		}
	}
	id := int64(0)
	for _, k := range ints {
		id++
		insert(id, value.Int(k), value.Float(float64(k)))
	}
	for _, f := range floats {
		id++
		insert(id, value.Null(), value.Float(f))
	}

	var consts []value.Value
	for _, k := range ints {
		consts = append(consts, value.Int(k), value.Float(float64(k)))
	}
	for _, f := range floats {
		consts = append(consts, value.Float(f))
	}
	consts = append(consts, value.Float(math.NaN()))

	ids := func(tbl, where string, args ...value.Value) []int64 {
		t.Helper()
		res, err := db.Exec(`SELECT id FROM `+tbl+` WHERE `+where, args...)
		if err != nil {
			t.Fatalf("%s WHERE %s %v: %v", tbl, where, args, err)
		}
		var out []int64
		for _, r := range res.Rows.Data {
			out = append(out, r[0].Int())
		}
		slices.Sort(out)
		return out
	}
	same := func(where string, args ...value.Value) {
		t.Helper()
		if got, want := ids("ix", where, args...), ids("scan", where, args...); !slices.Equal(got, want) {
			t.Errorf("WHERE %s %v: index answers %v, scan %v", where, args, got, want)
		}
	}
	for _, col := range []string{"k", "f"} {
		for _, c := range consts {
			for _, op := range []string{"=", "<", "<=", ">", ">="} {
				same(fmt.Sprintf("%s %s ?", col, op), c)
			}
		}
		for i := 0; i+1 < len(consts); i += 3 {
			same(col+" IN (?, ?)", consts[i], consts[i+1])
			same(col+" BETWEEN ? AND ?", consts[i], consts[i+1])
			same(col+" BETWEEN ? AND ?", consts[i+1], consts[len(consts)-2-i])
		}
	}

	// The index serves INT constants on either column, and FLOAT ones
	// that an INT column's keys order exactly; NaN, and FLOATs from 2⁵³
	// up in magnitude, are left to the scan.
	for _, c := range consts {
		for _, name := range []string{"ix_k", "ix_f"} {
			_, served, err := serveStable(db.indexes[name], query.Sargable{Op: ">", Vals: []value.Value{c}})
			f, isFloat := c.AsFloat()
			want := name == "ix_f" || c.Kind() == value.KindInt || (isFloat && math.Abs(f) < p53)
			if err != nil || served != want {
				t.Errorf("%s > %v: served %v (err %v), want %v", name, c, served, err, want)
			}
		}
	}
}
