package engine

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"instantdb/internal/gentree"
	"instantdb/internal/storage"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
)

// TestRangeRefusesIntOutsideBuckets: a salary of MinInt64, bound through
// a prepared argument, is refused at statement time by the salary
// domain, naming it, instead of degrading later into a bucket on the
// other side of zero.
func TestRangeRefusesIntOutsideBuckets(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	conn := db.NewConn()
	ins, err := conn.Prepare(`INSERT INTO person (id, name, location, salary) VALUES (?, ?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	_, err = ins.Exec(value.Int(1), value.Text("min"), value.Text("Dam 1"), value.Int(math.MinInt64))
	if !errors.Is(err, gentree.ErrUnknownValue) || !strings.Contains(err.Error(), "salary") {
		t.Fatalf("insert of salary MinInt64: %v, want ErrUnknownValue naming the salary domain", err)
	}
	if res := db.MustExec(`SELECT COUNT(*) FROM person`); res.Rows.Data[0][0].String() != "0" {
		t.Fatalf("the refused row was stored: %v", res.Rows.Data)
	}
}

// TestDegradeNeverOutgrowsPage inserts rows of the paper schema whose
// records lie around a page's capacity, each with a salary of -1, whose
// range1000 bucket (-1000) is a byte longer. The statement-time size
// check must refuse a row, or accept it and have every degradation step,
// a reopen of the durable directory and the country read succeed: a row
// the check accepts must never fail to degrade, which would fence the
// database and poison its log.
func TestDegradeNeverOutgrowsPage(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewSimulated(vclock.Epoch)
	open := func() *DB {
		db, err := Open(Config{Dir: dir, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	installSchema(t, db)
	var accepted []int
	for n := storage.MaxRecordSize - 80; n <= storage.MaxRecordSize; n++ {
		_, err := db.Exec(fmt.Sprintf(`INSERT INTO person (id, name, location, salary) VALUES (%d, '%s', 'Dam 1', -1)`,
			n, strings.Repeat("n", n)))
		switch {
		case err == nil:
			accepted = append(accepted, n)
		case !errors.Is(err, storage.ErrRecordTooLarge):
			t.Fatalf("insert of a %d-byte name: %v", n, err)
		}
	}
	if len(accepted) == 0 {
		t.Fatal("sanity: the size check refused every name length")
	}
	clock.Advance(13 * time.Hour) // past the exact salary hold
	for n := 1; n > 0; {
		var err error
		if n, err = db.DegradeNow(); err != nil {
			t.Fatalf("degrade: %v", err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = open()
	defer db.Close()
	res, err := db.Exec(`SELECT id, location, salary FROM person ORDER BY id FOR PURPOSE stat`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != len(accepted) {
		t.Fatalf("after reopen %d rows, want the %d accepted", res.Rows.Len(), len(accepted))
	}
	for i, row := range res.Rows.Data {
		if row[0].Int() != int64(accepted[i]) || row[1].String() != "Netherlands" || row[2].String() != "-1000-0" {
			t.Errorf("row %d reads %v, want id %d in Netherlands at -1000-0", i, row, accepted[i])
		}
	}
}

// TestDegradeNeverOutgrowsPageAcrossColumns: three degradable INTs of -1
// whose buckets are 10¹⁸ wide each degrade to a floor 8 bytes longer, so
// the record grows by 24 bytes — more than the 18 bytes the header's
// worst case leaves over a fresh page's 2-byte delta prefix. Only
// counting each degradable column at its largest stored form keeps every
// accepted row degradable.
func TestDegradeNeverOutgrowsPageAcrossColumns(t *testing.T) {
	db, clock := openSim(t)
	if err := db.ExecScript(`
CREATE DOMAIN wide RANGES (1000000000000000000, SUPPRESS);
CREATE POLICY widepol ON wide (HOLD exact FOR '1h', HOLD range1000000000000000000 FOR '1d') THEN SUPPRESS;
CREATE TABLE t (id INT PRIMARY KEY, name TEXT NOT NULL,
  a INT DEGRADABLE DOMAIN wide POLICY widepol,
  b INT DEGRADABLE DOMAIN wide POLICY widepol,
  c INT DEGRADABLE DOMAIN wide POLICY widepol);
DECLARE PURPOSE coarse SET ACCURACY LEVEL range1000000000000000000 FOR t.a;
`); err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for n := storage.MaxRecordSize - 80; n <= storage.MaxRecordSize; n++ {
		_, err := db.Exec(fmt.Sprintf(`INSERT INTO t (id, name, a, b, c) VALUES (%d, '%s', -1, -1, -1)`, n, strings.Repeat("n", n)))
		switch {
		case err == nil:
			accepted++
		case !errors.Is(err, storage.ErrRecordTooLarge):
			t.Fatalf("insert of a %d-byte name: %v", n, err)
		}
	}
	if accepted == 0 {
		t.Fatal("sanity: the size check refused every name length")
	}
	clock.Advance(2 * time.Hour) // past the exact hold
	for n := 1; n > 0; {
		var err error
		if n, err = db.DegradeNow(); err != nil {
			t.Fatalf("degrade: %v", err)
		}
	}
	res, err := db.Exec(`SELECT a FROM t FOR PURPOSE coarse`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != accepted {
		t.Fatalf("%d rows read at the coarse level, want the %d accepted", res.Rows.Len(), accepted)
	}
	if got := res.Rows.Data[0][0].String(); got != "-1000000000000000000-0" {
		t.Errorf("a reads %s, want the bucket -1000000000000000000-0", got)
	}
}
