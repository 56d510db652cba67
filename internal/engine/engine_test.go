package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"instantdb/internal/gentree"
	"instantdb/internal/lcp"
	"instantdb/internal/vclock"
)

func mustFigure1() *gentree.Tree { return gentree.Figure1Locations() }

func figure2Policy(loc *gentree.Tree) *lcp.Policy { return lcp.Figure2(loc) }

// openSim opens an ephemeral database on a simulated clock.
func openSim(t *testing.T) (*DB, *vclock.Simulated) {
	t.Helper()
	clock := vclock.NewSimulated(vclock.Epoch)
	db, err := Open(Config{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, clock
}

// paperSchema installs the paper's running example: a person table with
// a degradable location (Figure 1/2) and a degradable salary.
const paperSchema = `
CREATE DOMAIN location TREE LEVELS (address, city, region, country)
  PATH ('Dam 1', 'Amsterdam', 'Noord-Holland', 'Netherlands')
  PATH ('Museumplein 6', 'Amsterdam', 'Noord-Holland', 'Netherlands')
  PATH ('Coolsingel 40', 'Rotterdam', 'Zuid-Holland', 'Netherlands')
  PATH ('10 rue de Rivoli', 'Paris', 'Ile-de-France', 'France')
  PATH ('2 place de la Defense', 'Paris', 'Ile-de-France', 'France')
  PATH ('5 place Bellecour', 'Lyon', 'Rhone-Alpes', 'France');
CREATE DOMAIN salary RANGES (100, 1000, SUPPRESS);
CREATE POLICY locpol ON location (
  HOLD address FOR '15m',
  HOLD city FOR '1h',
  HOLD region FOR '1d',
  HOLD country FOR '1mo'
) THEN DELETE;
CREATE POLICY salpol ON salary (
  HOLD exact FOR '12h',
  HOLD range1000 FOR '7d'
) THEN SUPPRESS;
CREATE TABLE person (
  id INT PRIMARY KEY,
  name TEXT NOT NULL,
  location TEXT DEGRADABLE DOMAIN location POLICY locpol,
  salary INT DEGRADABLE DOMAIN salary POLICY salpol
);
DECLARE PURPOSE stat SET ACCURACY LEVEL country FOR person.location,
  range1000 FOR person.salary;
`

func installSchema(t *testing.T, db *DB) {
	t.Helper()
	if err := db.ExecScript(paperSchema); err != nil {
		t.Fatal(err)
	}
}

func insertPeople(t *testing.T, db *DB) {
	t.Helper()
	db.MustExec(`INSERT INTO person (id, name, location, salary) VALUES
		(1, 'anciaux',  '10 rue de Rivoli', 2471),
		(2, 'bouganim', '2 place de la Defense', 3100),
		(3, 'heerde',   'Dam 1', 2050),
		(4, 'pucheral', '5 place Bellecour', 4200),
		(5, 'apers',    'Coolsingel 40', 2900)`)
}

func textsOf(rows *Rows, col int) []string {
	var out []string
	for _, r := range rows.Data {
		out = append(out, r[col].String())
	}
	return out
}

func TestDDLAndInsertSelectFullAccuracy(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)
	res := db.MustExec(`SELECT name, location, salary FROM person WHERE id = 1`)
	if res.Rows.Len() != 1 {
		t.Fatalf("rows=%d", res.Rows.Len())
	}
	row := res.Rows.Data[0]
	if row[0].Text() != "anciaux" || row[1].Text() != "10 rue de Rivoli" || row[2].Int() != 2471 {
		t.Fatalf("row=%v", row)
	}
}

func TestPaperQueryUnderStatPurpose(t *testing.T) {
	// The paper's example query under the STAT purpose:
	// SELECT * FROM person WHERE location LIKE '%France%' AND salary = '2000-3000'.
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)
	conn := db.NewConn()
	if err := conn.SetPurpose("stat"); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Exec(`SELECT name, location, salary FROM person
		WHERE location LIKE '%France%' AND salary = '2000-3000' ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	// France tuples: anciaux (2471), bouganim (3100), pucheral (4200).
	// Of those, salary in [2000,3000): only anciaux.
	if got := textsOf(res.Rows, 0); len(got) != 1 || got[0] != "anciaux" {
		t.Fatalf("names=%v", got)
	}
	// Projection renders at purpose accuracy.
	if res.Rows.Data[0][1].Text() != "France" || res.Rows.Data[0][2].Text() != "2000-3000" {
		t.Fatalf("rendered=%v", res.Rows.Data[0])
	}
}

func TestPurposeDenial(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)
	db.MustExec(`DECLARE PURPOSE loconly SET ACCURACY LEVEL city FOR person.location`)
	conn := db.NewConn()
	if err := conn.SetPurpose("loconly"); err != nil {
		t.Fatal(err)
	}
	// salary is unlisted: refused.
	if _, err := conn.Exec(`SELECT salary FROM person`); !errors.Is(err, ErrPurposeDenied) {
		t.Fatalf("err=%v want ErrPurposeDenied", err)
	}
	// Stable columns and granted degradable columns are fine.
	if _, err := conn.Exec(`SELECT name, location FROM person`); err != nil {
		t.Fatal(err)
	}
	// SELECT * references salary: refused.
	if _, err := conn.Exec(`SELECT * FROM person`); !errors.Is(err, ErrPurposeDenied) {
		t.Fatalf("star err=%v", err)
	}
}

func TestDegradationChangesQueryResults(t *testing.T) {
	db, clock := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)
	conn := db.NewConn()
	if err := conn.SetPurpose("stat"); err != nil {
		t.Fatal(err)
	}
	country := func() map[string]int {
		res, err := conn.Exec(`SELECT location, COUNT(*) AS n FROM person GROUP BY location`)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int{}
		for _, r := range res.Rows.Data {
			out[r[0].Text()] = int(r[1].Int())
		}
		return out
	}
	got := country()
	if got["France"] != 3 || got["Netherlands"] != 2 {
		t.Fatalf("initial: %v", got)
	}
	// Full accuracy still sees addresses before the first deadline.
	full := db.MustExec(`SELECT location FROM person WHERE id = 3`)
	if full.Rows.Data[0][0].Text() != "Dam 1" {
		t.Fatalf("full=%v", full.Rows.Data[0])
	}
	// After 15 minutes the addresses degrade to cities.
	clock.Advance(15 * time.Minute)
	if _, err := db.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	// Level-0 query now excludes every tuple: the accurate state is not
	// computable any more (σP,k core semantics).
	full = db.MustExec(`SELECT location FROM person`)
	if full.Rows.Len() != 0 {
		t.Fatalf("accurate query after degrade: %d rows", full.Rows.Len())
	}
	// The STAT purpose still works — degradation preserved its usability.
	got = country()
	if got["France"] != 3 || got["Netherlands"] != 2 {
		t.Fatalf("after city degrade: %v", got)
	}
	// A city-level purpose sees cities.
	db.MustExec(`DECLARE PURPOSE cities SET ACCURACY LEVEL city FOR person.location`)
	if err := conn.SetPurpose("cities"); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Exec(`SELECT name FROM person WHERE location = 'Amsterdam' ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if got := textsOf(res.Rows, 0); len(got) != 1 || got[0] != "heerde" {
		t.Fatalf("amsterdam=%v", got)
	}
}

func TestCoarseSemantics(t *testing.T) {
	db, clock := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)
	clock.Advance(15 * time.Minute)
	db.DegradeNow() // addresses -> cities
	conn := db.NewConn()
	// Core semantics: level-0 query sees nothing.
	res, err := conn.Exec(`SELECT name, location FROM person`)
	if err != nil || res.Rows.Len() != 0 {
		t.Fatalf("strict: %d rows err=%v", res.Rows.Len(), err)
	}
	// Coarse semantics: tuples qualify at their actual coarser level.
	conn.SetCoarse(true)
	res, err = conn.Exec(`SELECT name, location FROM person WHERE id = 3`)
	if err != nil || res.Rows.Len() != 1 {
		t.Fatalf("coarse: %d rows err=%v", res.Rows.Len(), err)
	}
	if res.Rows.Data[0][1].Text() != "Amsterdam" {
		t.Fatalf("coarse render=%v", res.Rows.Data[0])
	}
}

func TestFigure2FullLifetimeThroughSQL(t *testing.T) {
	db, clock := openSim(t)
	installSchema(t, db)
	db.MustExec(`INSERT INTO person (id, name, location, salary) VALUES (1, 'x', 'Dam 1', 2471)`)
	step := func(d time.Duration) {
		clock.Advance(d)
		if _, err := db.DegradeNow(); err != nil {
			t.Fatal(err)
		}
	}
	// Walk the whole Figure 2 lifetime: 15m -> city, +1h -> region,
	// +1d -> country, +1mo -> tuple deleted.
	step(15 * time.Minute)
	step(time.Hour)
	step(24 * time.Hour)
	res := db.MustExec(`SELECT COUNT(*) AS n FROM person FOR PURPOSE stat`)
	if res.Rows.Data[0][0].Int() != 1 {
		t.Fatal("tuple lost before horizon")
	}
	step(30 * 24 * time.Hour)
	res = db.MustExec(`SELECT COUNT(*) AS n FROM person FOR PURPOSE stat`)
	if res.Rows.Data[0][0].Int() != 0 {
		t.Fatal("tuple survived its Figure 2 horizon")
	}
}

func TestUpdateRules(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)
	// Stable update works.
	res := db.MustExec(`UPDATE person SET name = 'renamed' WHERE id = 2`)
	if res.RowsAffected != 1 {
		t.Fatalf("affected=%d", res.RowsAffected)
	}
	got := db.MustExec(`SELECT name FROM person WHERE id = 2`)
	if got.Rows.Data[0][0].Text() != "renamed" {
		t.Fatal("update lost")
	}
	// Degradable update refused (paper §II).
	if _, err := db.Exec(`UPDATE person SET location = 'Dam 1' WHERE id = 2`); !errors.Is(err, ErrDegradableImmutable) {
		t.Fatalf("err=%v want ErrDegradableImmutable", err)
	}
	// NOT NULL enforced.
	if _, err := db.Exec(`UPDATE person SET name = NULL WHERE id = 2`); err == nil {
		t.Fatal("NULL into NOT NULL accepted")
	}
}

func TestDeleteThroughView(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)
	conn := db.NewConn()
	if err := conn.SetPurpose("stat"); err != nil {
		t.Fatal(err)
	}
	// Delete at country accuracy: removes all France tuples.
	res, err := conn.Exec(`DELETE FROM person WHERE location = 'France'`)
	if err != nil || res.RowsAffected != 3 {
		t.Fatalf("affected=%d err=%v", res.RowsAffected, err)
	}
	left := db.MustExec(`SELECT COUNT(*) AS n FROM person FOR PURPOSE stat`)
	if left.Rows.Data[0][0].Int() != 2 {
		t.Fatalf("left=%v", left.Rows.Data[0])
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)
	if _, err := db.Exec(`INSERT INTO person (id, name, location, salary) VALUES (1, 'dup', 'Dam 1', 1)`); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err=%v want ErrDuplicateKey", err)
	}
	// Within one batch too.
	if _, err := db.Exec(`INSERT INTO person (id, name, location, salary) VALUES
		(77, 'a', 'Dam 1', 1), (77, 'b', 'Dam 1', 2)`); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("batch err=%v", err)
	}
	// Nothing of the failed batch was applied.
	res := db.MustExec(`SELECT COUNT(*) AS n FROM person`)
	if res.Rows.Data[0][0].Int() != 5 {
		t.Fatalf("count=%v", res.Rows.Data[0])
	}
}

// TestPrimaryKeysOfTablesFarApart: every table has a key space of its
// own, also for table ids 256 apart (the first and the 257th table). One
// transaction inserts the same key into both, on the single-mutex commit
// path and on the group-commit path, and a second insert of the key into
// either is still refused.
func TestPrimaryKeysOfTablesFarApart(t *testing.T) {
	var ddl strings.Builder
	for i := 0; i <= 256; i++ {
		fmt.Fprintf(&ddl, "CREATE TABLE t%d (id INT PRIMARY KEY, v TEXT);\n", i)
	}
	nosync := false
	for _, durable := range []bool{false, true} {
		db, _ := openSim(t)
		if durable {
			db = openDurable(t, Config{WALSync: &nosync})
		}
		if err := db.ExecScript(ddl.String()); err != nil {
			t.Fatal(err)
		}
		conn := db.NewConn()
		for _, stmt := range []string{`BEGIN`, `INSERT INTO t0 (id, v) VALUES (5, 'a')`,
			`INSERT INTO t256 (id, v) VALUES (5, 'b')`, `COMMIT`} {
			if _, err := conn.Exec(stmt); err != nil {
				t.Fatalf("durable=%v: %s: %v", durable, stmt, err)
			}
		}
		for _, tbl := range []string{"t0", "t256"} {
			if _, err := db.Exec(`INSERT INTO ` + tbl + ` (id, v) VALUES (5, 'c')`); !errors.Is(err, ErrDuplicateKey) {
				t.Fatalf("durable=%v: second key 5 in %s: err = %v, want ErrDuplicateKey", durable, tbl, err)
			}
		}
	}
}

func TestExplicitTransactionVisibilityAndRollback(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	conn := db.NewConn()
	if _, err := conn.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(`INSERT INTO person (id, name, location, salary) VALUES (9, 'tx', 'Dam 1', 100)`); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes inside the transaction.
	res, err := conn.Exec(`SELECT name FROM person WHERE id = 9`)
	if err != nil || res.Rows.Len() != 1 {
		t.Fatalf("rows=%d err=%v", res.Rows.Len(), err)
	}
	// Invisible to other sessions before commit.
	other := db.MustExec(`SELECT COUNT(*) AS n FROM person`)
	if other.Rows.Data[0][0].Int() != 0 {
		t.Fatal("uncommitted insert visible")
	}
	if _, err := conn.Exec(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	res = db.MustExec(`SELECT COUNT(*) AS n FROM person`)
	if res.Rows.Data[0][0].Int() != 0 {
		t.Fatal("rollback did not discard insert")
	}
	// Commit path.
	conn.Exec(`BEGIN`)
	conn.Exec(`INSERT INTO person (id, name, location, salary) VALUES (9, 'tx', 'Dam 1', 100)`)
	if _, err := conn.Exec(`COMMIT`); err != nil {
		t.Fatal(err)
	}
	res = db.MustExec(`SELECT COUNT(*) AS n FROM person`)
	if res.Rows.Data[0][0].Int() != 1 {
		t.Fatal("commit lost insert")
	}
}

// TestLockedReadSeesOverlay: inside a read-write transaction the one
// σ loop reads through the locked source, so the transaction's own
// insert, delete and update are visible on the scan path, on the indexed
// path (no index lists an uncommitted write) and to writes that qualify
// rows the same way — and to nobody else before COMMIT.
func TestLockedReadSeesOverlay(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)
	db.MustExec(`CREATE INDEX ix_name ON person (name) USING BTREE`)
	conn := db.NewConn()
	mustExec := func(sql string) *Result {
		t.Helper()
		res, err := conn.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	names := func(sql string) string {
		t.Helper()
		return strings.Join(textsOf(mustExec(sql).Rows, 0), ",")
	}
	mustExec(`BEGIN`)
	mustExec(`INSERT INTO person (id, name, location, salary) VALUES (9, 'tx', 'Dam 1', 100)`)
	mustExec(`DELETE FROM person WHERE id = 1`)
	mustExec(`UPDATE person SET name = 'van heerde' WHERE name = 'heerde'`)

	if got := names(`SELECT name FROM person ORDER BY name`); got != "apers,bouganim,pucheral,tx,van heerde" {
		t.Fatalf("scan inside the transaction = %s", got)
	}
	if got := mustExec(`SELECT COUNT(*), MAX(id) FROM person`).Rows.Data[0]; got[0].Int() != 5 || got[1].Int() != 9 {
		t.Fatalf("aggregate inside the transaction = %v", got)
	}
	for where, want := range map[string]string{
		`name = 'tx'`:                        "tx",         // own insert: in no index
		`name = 'van heerde'`:                "van heerde", // own update: the index still says heerde
		`name = 'heerde'`:                    "",           // ... and the stale entry no longer matches
		`name = 'anciaux'`:                   "",           // own delete
		`name IN ('apers', 'tx', 'anciaux')`: "apers,tx",   // a stored row beside an own one
	} {
		if got := names(`SELECT name FROM person WHERE ` + where + ` ORDER BY name`); got != want {
			t.Fatalf("indexed read WHERE %s inside the transaction = %q, want %q", where, got, want)
		}
	}
	if res := mustExec(`UPDATE person SET name = 'tx2' WHERE name = 'tx'`); res.RowsAffected != 1 {
		t.Fatalf("update of own insert affected %d rows", res.RowsAffected)
	}
	if got := textsOf(db.MustExec(`SELECT name FROM person ORDER BY name`).Rows, 0); strings.Join(got, ",") != "anciaux,apers,bouganim,heerde,pucheral" {
		t.Fatalf("uncommitted writes visible outside: %v", got)
	}
	mustExec(`COMMIT`)
	if got := textsOf(db.MustExec(`SELECT name FROM person ORDER BY name`).Rows, 0); strings.Join(got, ",") != "apers,bouganim,pucheral,tx2,van heerde" {
		t.Fatalf("after commit: %v", got)
	}
}

func TestAggregatesAndGrouping(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)
	res := db.MustExec(`SELECT COUNT(*) AS n, SUM(salary) AS total, AVG(salary) AS mean,
		MIN(salary) AS lo, MAX(salary) AS hi FROM person`)
	row := res.Rows.Data[0]
	if row[0].Int() != 5 || row[1].Int() != 14721 || row[3].Int() != 2050 || row[4].Int() != 4200 {
		t.Fatalf("aggregates=%v", row)
	}
	if avg := row[2].Float(); avg < 2944.1 || avg > 2944.3 {
		t.Fatalf("avg=%v", avg)
	}
	// Grouped by country under the stat purpose.
	conn := db.NewConn()
	conn.SetPurpose("stat")
	res, err := conn.Exec(`SELECT location, COUNT(*) AS n FROM person GROUP BY location ORDER BY n DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Data[0][0].Text() != "France" || res.Rows.Data[0][1].Int() != 3 {
		t.Fatalf("grouped=%v", res.Rows.Data)
	}
	// Aggregate over empty set yields one row with NULL/0.
	res = db.MustExec(`SELECT COUNT(*) AS n, SUM(salary) AS s FROM person WHERE id = 999`)
	if res.Rows.Data[0][0].Int() != 0 || !res.Rows.Data[0][1].IsNull() {
		t.Fatalf("empty agg=%v", res.Rows.Data[0])
	}
	// Plain column outside GROUP BY is rejected.
	if _, err := db.Exec(`SELECT name, COUNT(*) FROM person GROUP BY location FOR PURPOSE stat`); err == nil {
		t.Fatal("ungrouped column accepted")
	}
}

func TestOrderLimitOffsetless(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)
	res := db.MustExec(`SELECT name, salary FROM person ORDER BY salary DESC LIMIT 2`)
	if got := textsOf(res.Rows, 0); len(got) != 2 || got[0] != "pucheral" || got[1] != "bouganim" {
		t.Fatalf("top2=%v", got)
	}
}

func TestIndexedQueriesMatchScan(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)
	db.MustExec(`CREATE INDEX ix_loc ON person (location) USING GT`)
	db.MustExec(`CREATE INDEX ix_sal ON person (salary) USING BTREE`)
	db.MustExec(`CREATE INDEX ix_name ON person (name) USING BTREE`)
	conn := db.NewConn()
	conn.SetPurpose("stat")
	// GT-index answers country-level equality.
	res, err := conn.Exec(`SELECT name FROM person WHERE location = 'France' ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if got := textsOf(res.Rows, 0); len(got) != 3 || got[0] != "anciaux" {
		t.Fatalf("france=%v", got)
	}
	// BTree answers bucket equality on salary.
	res, err = conn.Exec(`SELECT name FROM person WHERE salary = '2000-3000' ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if got := textsOf(res.Rows, 0); len(got) != 3 { // 2471, 2050, 2900
		t.Fatalf("salary bucket=%v", got)
	}
	// Stable index: point and range.
	res = db.MustExec(`SELECT id FROM person WHERE name = 'apers'`)
	if res.Rows.Len() != 1 || res.Rows.Data[0][0].Int() != 5 {
		t.Fatalf("name point=%v", res.Rows.Data)
	}
	res = db.MustExec(`SELECT name FROM person WHERE id BETWEEN 2 AND 4 ORDER BY name`)
	if res.Rows.Len() != 3 {
		t.Fatalf("pk range=%v", res.Rows.Data)
	}
	// Unknown constants yield empty results, not errors.
	res, err = conn.Exec(`SELECT name FROM person WHERE location = 'Atlantis'`)
	if err != nil || res.Rows.Len() != 0 {
		t.Fatalf("unknown=%v err=%v", res.Rows.Len(), err)
	}
}

func TestFireEventThroughSQL(t *testing.T) {
	db, _ := openSim(t)
	db.MustExec(`CREATE DOMAIN loc TREE LEVELS (a, b) PATH ('x', 'y')`)
	db.MustExec(`CREATE POLICY p ON loc (HOLD a FOR '100d' UNTIL EVENT 'purge') THEN SUPPRESS`)
	db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, v TEXT DEGRADABLE DOMAIN loc POLICY p)`)
	db.MustExec(`INSERT INTO t (id, v) VALUES (1, 'x')`)
	db.MustExec(`FIRE EVENT 'purge'`)
	if _, err := db.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	// The attribute is suppressed: strict level-0 access no longer
	// computes, but the tuple itself survives (COUNT(*) sees it).
	res := db.MustExec(`SELECT v FROM t`)
	if res.Rows.Len() != 0 {
		t.Fatal("event did not suppress the attribute")
	}
	res = db.MustExec(`SELECT COUNT(*) AS n FROM t`)
	if res.Rows.Data[0][0].Int() != 1 {
		t.Fatal("suppression must keep the tuple")
	}
}

func TestRecoveryRoundtrip(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewSimulated(vclock.Epoch)
	db, err := Open(Config{Dir: dir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ExecScript(paperSchema); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`INSERT INTO person (id, name, location, salary) VALUES
		(1, 'alice', 'Dam 1', 2471), (2, 'bob', '10 rue de Rivoli', 3100)`)
	clock.Advance(15 * time.Minute)
	if _, err := db.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: catalog, data, degradation states and queues must survive.
	db2, err := Open(Config{Dir: dir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	conn := db2.NewConn()
	if err := conn.SetPurpose("stat"); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Exec(`SELECT name, location FROM person ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 2 || res.Rows.Data[0][1].Text() != "Netherlands" {
		t.Fatalf("recovered=%v", res.Rows.Data)
	}
	// The degradation pipeline continues after reopen.
	clock.Advance(time.Hour)
	if _, err := db2.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	db2.MustExec(`DECLARE PURPOSE cities SET ACCURACY LEVEL city FOR person.location ALLOW UNLISTED`)
	conn2 := db2.NewConn()
	conn2.SetPurpose("cities")
	res, err = conn2.Exec(`SELECT location FROM person`)
	if err != nil {
		t.Fatal(err)
	}
	// After city->region, city-level accuracy is no longer computable.
	if res.Rows.Len() != 0 {
		t.Fatalf("city query after region degrade: %v", res.Rows.Data)
	}
}

func TestRegisterProgrammaticDomainPersists(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	loc := mustFigure1()
	if err := db.RegisterDomain(loc); err != nil {
		t.Fatal(err)
	}
	// SQL-visible names must be identifiers; rebuild Figure 2 under one.
	pol := lcp.NewBuilder("figure2loc", loc).
		Hold(0, 15*time.Minute).Hold(1, time.Hour).
		Hold(2, 24*time.Hour).Hold(3, 30*24*time.Hour).
		ThenDelete().MustBuild()
	if err := db.RegisterPolicy(pol); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE visits (id INT PRIMARY KEY, place TEXT DEGRADABLE DOMAIN location POLICY figure2loc)`)
	db.Close()

	db2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen with generated DDL: %v", err)
	}
	defer db2.Close()
	if _, err := db2.Catalog().Domain("location"); err != nil {
		t.Fatal("domain lost across reopen")
	}
	if _, err := db2.Catalog().Table("visits"); err != nil {
		t.Fatal("table lost across reopen")
	}
}

func TestSelectOnMissingTableAndColumns(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	if _, err := db.Exec(`SELECT * FROM nope`); err == nil {
		t.Fatal("missing table accepted")
	}
	if _, err := db.Exec(`SELECT nope FROM person`); err == nil {
		t.Fatal("missing column accepted")
	}
	if _, err := db.Exec(`SELECT name FROM person ORDER BY ghost`); err == nil {
		t.Fatal("missing order column accepted")
	}
}

func TestInsertValidationErrors(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	bad := []string{
		`INSERT INTO person (id, name) VALUES (1)`,                                       // arity
		`INSERT INTO person (id, name, location, salary) VALUES (1, 'x', 'Nowhere', 1)`,  // unknown leaf
		`INSERT INTO person (id, name, location, salary) VALUES (1, NULL, 'Dam 1', 1)`,   // NOT NULL
		`INSERT INTO person (id, name, location, salary) VALUES (1, 'x', NULL, 1)`,       // degradable NULL
		`INSERT INTO person (id, name, location, salary) VALUES (1, 'x', 'Dam 1', 'hi')`, // kind mismatch
		`INSERT INTO person (id, ghost) VALUES (1, 2)`,                                   // unknown column
	}
	for _, src := range bad {
		if _, err := db.Exec(src); err == nil {
			t.Errorf("accepted: %s", src)
		}
	}
	res := db.MustExec(`SELECT COUNT(*) AS n FROM person`)
	if res.Rows.Data[0][0].Int() != 0 {
		t.Fatal("failed inserts left rows behind")
	}
}
