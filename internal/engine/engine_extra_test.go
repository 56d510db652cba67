package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"instantdb/internal/forensic"
	"instantdb/internal/gentree"
	"instantdb/internal/lcp"
	"instantdb/internal/storage"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
	"instantdb/internal/wal"
)

// TestCrashBetweenAppendAndApply injects the nastiest redo-only failure:
// a commit batch reaches the log but the process dies before the apply.
// Recovery must surface the committed effects.
func TestCrashBetweenAppendAndApply(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewSimulated(vclock.Epoch)
	db, err := Open(Config{Dir: dir, Clock: clock, LogMode: LogPlain})
	if err != nil {
		t.Fatal(err)
	}
	installSchema(t, db)
	insertPeople(t, db)
	tbl, err := db.cat.Table("person")
	if err != nil {
		t.Fatal(err)
	}
	ts := db.mgr.Table(tbl)
	var victim storage.Tuple
	ts.Scan(func(tp storage.Tuple) bool { victim = tp; return false })

	// Append a delete record directly to the WAL — durable, never
	// applied (the simulated crash point).
	if err := db.logBatch([]*wal.Record{{Type: wal.RecDelete, Table: tbl.ID, Tuple: victim.ID}}, nil, nil); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(Config{Dir: dir, Clock: clock, LogMode: LogPlain})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, _ := db2.cat.Table("person")
	if _, err := db2.mgr.Table(tbl2).Get(victim.ID); err == nil {
		t.Fatal("the durable-but-unapplied delete must replay at recovery")
	}
	res := db2.MustExec(`SELECT COUNT(*) AS n FROM person`)
	if res.Rows.Data[0][0].Int() != 4 {
		t.Fatalf("count=%v want 4", res.Rows.Data[0])
	}
}

// TestIndexDDLLifecycle covers CREATE INDEX backfill, index-served
// queries after degradation, DROP INDEX, DROP TABLE, and persistence of
// the definitions across reopen.
func TestIndexDDLLifecycle(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewSimulated(vclock.Epoch)
	db, err := Open(Config{Dir: dir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	installSchema(t, db)
	insertPeople(t, db)
	// Backfill happens on creation over existing rows.
	db.MustExec(`CREATE INDEX ix_loc ON person (location) USING BITMAP`)
	clock.Advance(15 * time.Minute)
	if _, err := db.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	conn := db.NewConn()
	conn.SetPurpose("stat")
	res, err := conn.Exec(`SELECT COUNT(*) AS n FROM person WHERE location = 'France'`)
	if err != nil || res.Rows.Data[0][0].Int() != 3 {
		t.Fatalf("bitmap-served count: %v err=%v", res.Rows, err)
	}
	db.Close()

	// Index definitions replay from catalog.sql and rebuild from data.
	db2, err := Open(Config{Dir: dir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if len(db2.Catalog().Indexes("person")) != 2 { // pk + ix_loc
		t.Fatalf("indexes after reopen: %v", db2.Catalog().Indexes("person"))
	}
	conn2 := db2.NewConn()
	conn2.SetPurpose("stat")
	res, err = conn2.Exec(`SELECT COUNT(*) AS n FROM person WHERE location = 'Netherlands'`)
	if err != nil || res.Rows.Data[0][0].Int() != 2 {
		t.Fatalf("after reopen: %v err=%v", res.Rows, err)
	}
	db2.MustExec(`DROP INDEX ix_loc`)
	if len(db2.Catalog().Indexes("person")) != 1 {
		t.Fatal("drop index failed")
	}
	db2.MustExec(`DROP TABLE person`)
	if _, err := db2.Exec(`SELECT * FROM person`); err == nil {
		t.Fatal("dropped table still queryable")
	}
}

// TestDropTableScrubsAndPersists verifies DROP TABLE scrubs pages and
// survives reopen.
func TestDropTableScrubsAndPersists(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, Clock: vclock.NewSimulated(vclock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	installSchema(t, db)
	db.MustExec(`INSERT INTO person (id, name, location, salary) VALUES (1, 'drop-sentinel-q', 'Dam 1', 900)`)
	db.MustExec(`DROP TABLE person`)
	rep, err := forensic.ScanStore(db.mgr.Store(), []forensic.Needle{
		forensic.NeedleForText("name", "drop-sentinel-q"),
	})
	if err != nil || !rep.Clean() {
		t.Fatalf("dropped table pages not scrubbed: %v err=%v", rep.Findings, err)
	}
	db.Close()
	db2, err := Open(Config{Dir: dir, Clock: vclock.NewSimulated(vclock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Catalog().Table("person"); err == nil {
		t.Fatal("dropped table resurrected by catalog replay")
	}
}

// TestPredicateVarietyThroughSQL exercises IN, BETWEEN, LIKE, IS NULL
// and NOT against index and scan paths alike.
func TestPredicateVarietyThroughSQL(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)
	db.MustExec(`CREATE INDEX ix_sal ON person (salary) USING BTREE`)
	cases := []struct {
		sql  string
		want int64
	}{
		{`SELECT COUNT(*) AS n FROM person WHERE id IN (1, 3, 99)`, 2},
		{`SELECT COUNT(*) AS n FROM person WHERE id NOT IN (1, 3)`, 3},
		{`SELECT COUNT(*) AS n FROM person WHERE salary BETWEEN 2000 AND 3000`, 3},
		{`SELECT COUNT(*) AS n FROM person WHERE name LIKE '%era%'`, 1},
		{`SELECT COUNT(*) AS n FROM person WHERE name NOT LIKE 'a%'`, 3},
		{`SELECT COUNT(*) AS n FROM person WHERE name IS NULL`, 0},
		{`SELECT COUNT(*) AS n FROM person WHERE name IS NOT NULL`, 5},
		{`SELECT COUNT(*) AS n FROM person WHERE NOT (id = 1 OR id = 2)`, 3},
		{`SELECT COUNT(*) AS n FROM person WHERE id >= 2 AND id < 4`, 2},
		{`SELECT COUNT(*) AS n FROM person WHERE 3 <= id`, 3},
	}
	for _, c := range cases {
		res, err := db.Exec(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := res.Rows.Data[0][0].Int(); got != c.want {
			t.Errorf("%s = %d want %d", c.sql, got, c.want)
		}
	}
}

// TestTimeDomainColumn runs a table with a degradable timestamp:
// truncation levels, purpose access, equality at day accuracy.
func TestTimeDomainColumn(t *testing.T) {
	db, clock := openSim(t)
	if err := db.ExecScript(`
CREATE DOMAIN seen TIME (exact, hour, day);
CREATE POLICY sp ON seen (HOLD exact FOR '30m', HOLD hour FOR '6h', HOLD day FOR '7d') THEN SUPPRESS;
CREATE TABLE sightings (id INT PRIMARY KEY, at TIME DEGRADABLE DOMAIN seen POLICY sp);
DECLARE PURPOSE daily SET ACCURACY LEVEL day FOR sightings.at;
`); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`INSERT INTO sightings (id, at) VALUES (1, TIMESTAMP '2008-04-07 14:35:22')`)
	db.MustExec(`INSERT INTO sightings (id, at) VALUES (2, TIMESTAMP '2008-04-08 09:00:00')`)
	conn := db.NewConn()
	conn.SetPurpose("daily")
	res, err := conn.Exec(`SELECT at FROM sightings WHERE at = TIMESTAMP '2008-04-07' ORDER BY at`)
	if err != nil || res.Rows.Len() != 1 {
		t.Fatalf("day equality: %v err=%v", res.Rows, err)
	}
	if got := res.Rows.Data[0][0].Time(); got.Hour() != 0 {
		t.Fatalf("projection not truncated to day: %v", got)
	}
	// After 30 minutes the exact state expires: full reads empty, daily
	// unaffected.
	clock.Advance(31 * time.Minute)
	db.DegradeNow()
	full := db.MustExec(`SELECT at FROM sightings`)
	if full.Rows.Len() != 0 {
		t.Fatal("exact timestamps survived their window")
	}
	res, err = conn.Exec(`SELECT COUNT(*) AS n FROM sightings WHERE at = TIMESTAMP '2008-04-08'`)
	if err != nil || res.Rows.Data[0][0].Int() != 1 {
		t.Fatalf("daily after degrade: %v err=%v", res.Rows, err)
	}
}

// TestUpdateMaintainsStableIndex verifies index maintenance across
// UPDATE of an indexed stable column.
func TestUpdateMaintainsStableIndex(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)
	db.MustExec(`CREATE INDEX ix_name ON person (name) USING BTREE`)
	db.MustExec(`UPDATE person SET name = 'zebra' WHERE id = 1`)
	res := db.MustExec(`SELECT id FROM person WHERE name = 'zebra'`)
	if res.Rows.Len() != 1 || res.Rows.Data[0][0].Int() != 1 {
		t.Fatalf("index missed updated row: %v", res.Rows.Data)
	}
	res = db.MustExec(`SELECT id FROM person WHERE name = 'anciaux'`)
	if res.Rows.Len() != 0 {
		t.Fatal("index kept stale entry")
	}
	// One commit updating a row twice, with another row's update between:
	// its update run names the tuple twice, and the second update must
	// move the entry the first one added.
	conn := db.NewConn()
	for _, stmt := range []string{`BEGIN`, `UPDATE person SET name = 'first' WHERE id = 2`,
		`UPDATE person SET name = 'other' WHERE id = 3`, `UPDATE person SET name = 'second' WHERE id = 2`, `COMMIT`} {
		if _, err := conn.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.indexes["ix_name"].bt.Len(); n != 5 {
		t.Fatalf("name index holds %d entries after the double update, want 5 (one per row)", n)
	}
	res = db.MustExec(`SELECT id FROM person WHERE name = 'second'`)
	if res.Rows.Len() != 1 || res.Rows.Data[0][0].Int() != 2 {
		t.Fatalf("index missed the twice-updated row: %v", res.Rows.Data)
	}
}

// TestVacuumModeEndToEnd runs LogVacuum through the engine: after the
// first transition wave plus a vacuum, the log must not contain accurate
// payloads.
func TestVacuumModeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewSimulated(vclock.Epoch)
	db, err := Open(Config{Dir: dir, Clock: clock, LogMode: LogVacuum})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	installSchema(t, db)
	insertPeople(t, db)
	tbl, _ := db.cat.Table("person")
	var needles []forensic.Needle
	db.mgr.Table(tbl).Scan(func(tp storage.Tuple) bool {
		needles = append(needles, forensic.NeedleForStored(fmt.Sprint(tp.ID), tp.Row[2]))
		return true
	})
	clock.Advance(15 * time.Minute)
	if _, err := db.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	if err := db.VacuumLog(); err != nil {
		t.Fatal(err)
	}
	rep, err := forensic.ScanDir(filepath.Join(dir, "wal"), needles)
	if err != nil || !rep.Clean() {
		t.Fatalf("vacuumed log leaks: %v err=%v", rep.Findings, err)
	}
}

// TestEngineMatchesLCPModel is the end-to-end property test: random
// policies, random arrival times, the engine driven purely by
// NextDeadline, probed at random instants against the analytic
// StateAtAge model.
func TestEngineMatchesLCPModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2008))
	tree := gentree.Figure1Locations()
	addrs := []string{"Dam 1", "Museumplein 6", "10 rue de Rivoli", "Coolsingel 40"}
	for trial := 0; trial < 5; trial++ {
		// Random policy: 2-4 states with random retentions, random
		// terminal.
		nStates := 2 + rng.Intn(3)
		b := lcp.NewBuilder(fmt.Sprintf("rand%d", trial), tree)
		level := 0
		for s := 0; s < nStates; s++ {
			b.Hold(level, time.Duration(1+rng.Intn(120))*time.Minute)
			level += 1 + rng.Intn(2)
			if level > 3 {
				break
			}
		}
		var pol *lcp.Policy
		var err error
		switch rng.Intn(3) {
		case 0:
			pol, err = b.ThenDelete().Build()
		case 1:
			pol, err = b.ThenSuppress().Build()
		default:
			pol, err = b.ThenRemain().Build()
		}
		if err != nil {
			t.Fatal(err)
		}

		clock := vclock.NewSimulated(vclock.Epoch)
		db, err := Open(Config{Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.RegisterDomain(tree); err != nil {
			t.Fatal(err)
		}
		if err := db.RegisterPolicy(pol); err != nil {
			t.Fatal(err)
		}
		db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, place TEXT DEGRADABLE DOMAIN location POLICY ` + pol.Name() + `)`)

		// Random arrivals over 3 hours.
		type ins struct {
			tid storage.TupleID
			at  time.Time
		}
		var tuples []ins
		for i := 0; i < 30; i++ {
			clock.Advance(time.Duration(rng.Intn(12)) * time.Minute)
			res, err := db.Exec(fmt.Sprintf(
				"INSERT INTO t (id, place) VALUES (%d, '%s')", i+1000, addrs[rng.Intn(len(addrs))]))
			if err != nil {
				t.Fatal(err)
			}
			tuples = append(tuples, ins{res.LastInsertID, clock.Now()})
		}

		tbl, _ := db.cat.Table("t")
		ts := db.mgr.Table(tbl)
		check := func() {
			now := clock.Now()
			for _, tp := range tuples {
				age := now.Sub(tp.at)
				idx, done := pol.StateAtAge(age)
				got, err := ts.Get(tp.tid)
				switch {
				case done && pol.Terminal() == lcp.Delete:
					// Tuple delete fires at the tuple LCP's DeleteAge,
					// equal to the horizon for a single attribute.
					if err == nil {
						t.Fatalf("trial %d: tuple %d alive at age %v past delete horizon", trial, tp.tid, age)
					}
				case done && pol.Terminal() == lcp.Suppress:
					if err != nil || got.States[0] != storage.StateErased {
						t.Fatalf("trial %d: tuple %d not suppressed at age %v (%v)", trial, tp.tid, age, err)
					}
				default:
					if err != nil {
						t.Fatalf("trial %d: tuple %d missing at age %v", trial, tp.tid, age)
					}
					if int(got.States[0]) != idx {
						t.Fatalf("trial %d: tuple %d state %d, model says %d (age %v)",
							trial, tp.tid, got.States[0], idx, age)
					}
				}
			}
		}

		// Drive by deadlines, probing after every tick.
		for steps := 0; steps < 200; steps++ {
			d, ok := db.deg.NextDeadline()
			if !ok {
				break
			}
			clock.AdvanceTo(d)
			if _, err := db.DegradeNow(); err != nil {
				t.Fatal(err)
			}
			check()
			// Occasionally probe between deadlines too.
			if rng.Intn(3) == 0 {
				clock.Advance(time.Duration(rng.Intn(20)) * time.Second)
				if _, err := db.DegradeNow(); err != nil {
					t.Fatal(err)
				}
				check()
			}
		}
		db.Close()
	}
}

// TestLockTimeoutSurfacesAsError verifies the split read contract: a
// reader inside an explicit read-write transaction blocks on a writer's
// X lock and times out cleanly (strict 2PL), while an autocommit reader
// takes the lock-free snapshot path — it never blocks and observes the
// last committed image.
func TestLockTimeoutSurfacesAsError(t *testing.T) {
	clock := vclock.NewSimulated(vclock.Epoch)
	db, err := Open(Config{Clock: clock, LockTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	installSchema(t, db)
	insertPeople(t, db)

	writer := db.NewConn()
	if _, err := writer.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Exec(`UPDATE person SET name = 'held' WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	// A 2PL reader needing row 1 must time out (the writer holds X).
	locked := db.NewConn()
	if _, err := locked.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := locked.Exec(`SELECT name FROM person WHERE id = 1`); err == nil {
		t.Fatal("2PL reader should time out on the X-locked row")
	}
	if _, err := locked.Exec(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	// An autocommit reader reads the committed snapshot without waiting.
	reader := db.NewConn()
	res, err := reader.Exec(`SELECT name FROM person WHERE id = 1`)
	if err != nil || res.Rows.Len() != 1 || res.Rows.Data[0][0].Text() != "anciaux" {
		t.Fatalf("snapshot reader during write: %v err=%v (want uncommitted update invisible)", res.Rows, err)
	}
	if _, err := writer.Exec(`COMMIT`); err != nil {
		t.Fatal(err)
	}
	res, err = reader.Exec(`SELECT name FROM person WHERE id = 1`)
	if err != nil || res.Rows.Data[0][0].Text() != "held" {
		t.Fatalf("after commit: %v err=%v", res.Rows, err)
	}
}

// TestDDLGenerators covers the canonical DDL rendering that persists
// programmatically registered domains and policies (RegisterDomain,
// RegisterPolicy).
func TestDDLGenerators(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	dom, _ := db.cat.Domain("salary")
	dd := DomainDDL(dom)
	if dd != "CREATE DOMAIN salary RANGES (100, 1000, SUPPRESS)" {
		t.Errorf("DomainDDL = %q", dd)
	}
	pol, _ := db.cat.Policy("locpol")
	pld := PolicyDDL(pol)
	for _, want := range []string{"CREATE POLICY locpol ON location", "HOLD address FOR", "THEN DELETE"} {
		if !bytes.Contains([]byte(pld), []byte(want)) {
			t.Errorf("PolicyDDL missing %q:\n%s", want, pld)
		}
	}
}

// TestErrNoTransaction covers transaction-control misuse. COMMIT
// outside a transaction fails; ROLLBACK outside one succeeds, as it
// must after a statement failure already rolled the transaction back.
func TestErrNoTransaction(t *testing.T) {
	db, _ := openSim(t)
	conn := db.NewConn()
	if _, err := conn.Exec(`COMMIT`); !errors.Is(err, ErrNoTransaction) {
		t.Fatalf("COMMIT err=%v", err)
	}
	if _, err := conn.Exec(`ROLLBACK`); err != nil {
		t.Fatalf("ROLLBACK err=%v", err)
	}
	if _, err := conn.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(`BEGIN`); err == nil {
		t.Fatal("nested BEGIN accepted")
	}
	installSchema(t, db) // DDL on a different conn works
	if _, err := conn.Exec(`CREATE INDEX i ON person (id)`); err == nil {
		t.Fatal("DDL inside transaction accepted")
	}
	if _, err := conn.Exec(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
}

func TestOsRemoveTempArtifacts(t *testing.T) {
	// Smoke: nothing in this test suite leaks into the working dir.
	if _, err := os.Stat("pages.db"); err == nil {
		t.Fatal("stray pages.db in working directory")
	}
}

// TestTwoDeadlinesInOneTick: 1 000 tuples of one epoch bucket (four
// degrader batches) cross both the 15-minute address and the 1-hour city
// deadline between two ticks. Every batch's first transition seals the
// city value under the bucket's state-1 key, so all of them must commit
// before any batch's second transition lets the scrubber shred that key
// — a round-robin over the queues shredded it after the first batch and
// the tick failed with "epoch key already shredded".
func TestTwoDeadlinesInOneTick(t *testing.T) {
	clock := vclock.NewSimulated(vclock.Epoch)
	nosync := false
	db := openDurable(t, Config{Clock: clock, WALSync: &nosync})
	installSchema(t, db)
	// Late in the hour-wide bucket, so that two hours on the bucket lies
	// wholly before the second transition's cutoff and its key is shredded.
	clock.Advance(59 * time.Minute)
	const rows = 1000
	conn := db.NewConn()
	if _, err := conn.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= rows; id++ {
		if _, err := conn.Exec(`INSERT INTO person (id, name, location, salary) VALUES (?, 'x', 'Dam 1', 1)`, value.Int(int64(id))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Exec(`COMMIT`); err != nil {
		t.Fatal(err)
	}

	clock.Advance(2 * time.Hour)
	n, err := db.DegradeNow()
	if err != nil {
		t.Fatalf("degrade across two deadlines: %v", err)
	}
	if n != 2*rows {
		t.Fatalf("%d transitions fired, want two per row = %d", n, 2*rows)
	}
	if lag := db.Degrader().Lag(clock.Now()); lag != 0 {
		t.Fatalf("lag %v after the tick", lag)
	}
	// The tuples sit at region accuracy: unreadable at full accuracy,
	// readable for a purpose that accepts the region.
	res, err := db.Exec(`SELECT id, location FROM person`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 0 {
		t.Fatalf("full-accuracy read returned %d rows after both deadlines", res.Rows.Len())
	}
	res, err = db.Exec(`SELECT COUNT(*) FROM person FOR PURPOSE stat`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows.Data[0][0].Int(); got != rows {
		t.Fatalf("stat purpose sees %d rows, want %d", got, rows)
	}
}

// TestCatalogScriptInMemory: an in-memory database has no catalog.sql,
// whatever the working directory holds.
func TestCatalogScriptInMemory(t *testing.T) {
	wd := t.TempDir()
	if err := os.WriteFile(filepath.Join(wd, "catalog.sql"), []byte("CREATE TABLE leaked (x INT);\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(wd)
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	script, err := db.CatalogScript()
	if err != nil {
		t.Fatal(err)
	}
	if script != "" {
		t.Fatalf("in-memory database serves the working directory's catalog.sql: %q", script)
	}
}

// TestDDLTrailingCommentReopens: a DDL statement executed with a
// trailing comment persists without it, so the ';' that ends it in
// catalog.sql is not swallowed and the directory reopens.
func TestDDLTrailingCommentReopens(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE a (id INT PRIMARY KEY) -- the first table")
	db.MustExec("  CREATE TABLE b (id INT PRIMARY KEY);  ")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	for _, name := range []string{"a", "b"} {
		if _, err := db.cat.Table(name); err != nil {
			t.Fatalf("table %s after the reopen: %v", name, err)
		}
	}
}
