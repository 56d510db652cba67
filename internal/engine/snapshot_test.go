package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"instantdb/internal/storage"
	"instantdb/internal/value"
)

// figure1Addresses are the level-0 stored forms of the test schema —
// the accuracy states that must never be observable past their deadline.
var figure1Addresses = []string{
	"Dam 1", "Museumplein 6", "Coolsingel 40",
	"10 rue de Rivoli", "2 place de la Defense", "5 place Bellecour",
}

// TestReadOnlyTxnSnapshotIsolation covers the visibility rules of BEGIN
// READ ONLY: concurrent inserts and stable updates stay invisible for
// the life of the transaction, while LCP transitions — the documented
// deviation from classic snapshot isolation — become visible at their
// deadline.
func TestReadOnlyTxnSnapshotIsolation(t *testing.T) {
	db, clock := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)

	ro := db.NewConn()
	if err := ro.SetPurpose("stat"); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Exec(`BEGIN READ ONLY`); err != nil {
		t.Fatal(err)
	}
	rows, err := ro.Query(`SELECT name FROM person ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 5 {
		t.Fatalf("baseline read: %d rows, want 5", rows.Len())
	}

	// A concurrent insert and a stable update commit on other sessions.
	w := db.NewConn()
	if _, err := w.Exec(`INSERT INTO person (id, name, location, salary) VALUES (6, 'newcomer', 'Dam 1', 1000)`); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec(`UPDATE person SET name = 'renamed' WHERE id = 1`); err != nil {
		t.Fatal(err)
	}

	rows, err = ro.Query(`SELECT name FROM person ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 5 {
		t.Fatalf("snapshot read after concurrent insert: %d rows, want 5", rows.Len())
	}
	for _, r := range rows.Data {
		if n := r[0].Text(); n == "newcomer" || n == "renamed" {
			t.Fatalf("read-only transaction observed post-snapshot write %q", n)
		}
	}

	// The degradation deadline passes mid-transaction: the transition
	// executes in full and the open snapshot observes the coarser value.
	clock.Advance(15 * time.Minute)
	if _, err := db.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	rows, err = ro.Query(`SELECT location FROM person WHERE id = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Data[0][0].Text() != "Netherlands" {
		t.Fatalf("straddling read = %v, want the degraded rendering", rows.Data)
	}
	if _, err := ro.Exec(`COMMIT`); err != nil {
		t.Fatal(err)
	}

	// New snapshots see the post-transaction world.
	rows, err = ro.Query(`SELECT name FROM person ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 6 {
		t.Fatalf("fresh read: %d rows, want 6", rows.Len())
	}
}

// TestReadOnlyTxnRefusesWrites: a write statement aborts the read-only
// transaction exactly like any other in-transaction failure, and the
// session refuses statements until ROLLBACK.
func TestReadOnlyTxnRefusesWrites(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)

	conn := db.NewConn()
	if _, err := conn.Exec(`BEGIN READ ONLY`); err != nil {
		t.Fatal(err)
	}
	_, err := conn.Exec(`INSERT INTO person (id, name, location, salary) VALUES (9, 'x', 'Dam 1', 1)`)
	if !errors.Is(err, ErrReadOnlyTxn) {
		t.Fatalf("write in read-only txn: err = %v, want ErrReadOnlyTxn", err)
	}
	if _, err := conn.Exec(`SELECT name FROM person`); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("statement after abort: err = %v, want ErrTxAborted", err)
	}
	if _, err := conn.Exec(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(`SELECT name FROM person`); err != nil {
		t.Fatalf("session unusable after rollback: %v", err)
	}
	// Nothing slipped through.
	rows, err := conn.Query(`SELECT COUNT(*) AS n FROM person`)
	if err != nil || rows.Data[0][0].Int() != 5 {
		t.Fatalf("row count = %v err=%v, want 5", rows.Data, err)
	}
}

// TestSnapshotReadsDoNotBlockDegrader is the deterministic half of the
// tentpole's acceptance criterion: with a read-only transaction open
// (snapshot pinned, rows read), a degradation tick executes every due
// transition without a single lock skip — and the contrast case shows a
// 2PL read-write transaction still pins its rows against the degrader.
func TestSnapshotReadsDoNotBlockDegrader(t *testing.T) {
	db, clock := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)

	ro := db.NewConn()
	if err := ro.SetPurpose("stat"); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Exec(`BEGIN READ ONLY`); err != nil {
		t.Fatal(err)
	}
	rows, err := ro.Query(`SELECT location FROM person`)
	if err != nil || rows.Len() != 5 {
		t.Fatalf("snapshot scan: %d rows err=%v", rows.Len(), err)
	}

	clock.Advance(15 * time.Minute)
	n, err := db.DegradeNow()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("tick with open snapshot executed %d transitions, want 5", n)
	}
	if st := db.Degrader().Stats(); st.LockSkips != 0 {
		t.Fatalf("tick skipped %d row locks with only snapshot readers open, want 0", st.LockSkips)
	}
	// The open snapshot observes the degraded accuracy state, and the
	// expired one is gone from storage and version chains.
	rows, err = ro.Query(`SELECT location FROM person WHERE id = 3`)
	if err != nil || rows.Len() != 1 || rows.Data[0][0].Text() != "Netherlands" {
		t.Fatalf("straddling snapshot read = %v err=%v", rows.Data, err)
	}
	if _, err := ro.Exec(`COMMIT`); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.cat.Table("person")
	if err != nil {
		t.Fatal(err)
	}
	assertNoAddressInStore(t, db, tbl.Name)

	// Contrast: a read-write transaction's SELECT still takes S row
	// locks, so the next transition wave skips its rows.
	rw := db.NewConn()
	if err := rw.SetPurpose("stat"); err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Query(`SELECT location FROM person`); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	if _, err := db.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	if st := db.Degrader().Stats(); st.LockSkips == 0 {
		t.Fatal("2PL reader did not pin any rows against the degrader (expected lock skips)")
	}
	if _, err := rw.Exec(`COMMIT`); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotStableIndexFallback pins the planner gate: a read-only
// snapshot older than a stable-column update must find rows by their
// *old* indexed value (the index holds only the new one, so the read
// falls back to a scan), while fresh snapshots keep using the index.
func TestSnapshotStableIndexFallback(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)
	db.MustExec(`CREATE INDEX ix_name ON person (name) USING BTREE`)

	ro := db.NewConn()
	if _, err := ro.Exec(`BEGIN READ ONLY`); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Query(`SELECT id FROM person WHERE name = 'heerde'`); err != nil {
		t.Fatal(err)
	}
	w := db.NewConn()
	if _, err := w.Exec(`UPDATE person SET name = 'van heerde' WHERE id = 3`); err != nil {
		t.Fatal(err)
	}
	// The index now maps 'van heerde' -> row 3; the pinned snapshot
	// must still find the row under its old name.
	rows, err := ro.Query(`SELECT id FROM person WHERE name = 'heerde'`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Data[0][0].Int() != 3 {
		t.Fatalf("old-name lookup in pinned snapshot = %v, want row 3", rows.Data)
	}
	if rows, err := ro.Query(`SELECT id FROM person WHERE name = 'van heerde'`); err != nil || rows.Len() != 0 {
		t.Fatalf("new name visible to pinned snapshot: %v err=%v", rows.Data, err)
	}
	if _, err := ro.Exec(`COMMIT`); err != nil {
		t.Fatal(err)
	}
	// A fresh snapshot postdates the supersede: index served, new name.
	rows, err = ro.Query(`SELECT id FROM person WHERE name = 'van heerde'`)
	if err != nil || rows.Len() != 1 {
		t.Fatalf("fresh lookup = %v err=%v", rows.Data, err)
	}
}

// assertNoAddressInStore scans raw storage tuples (current images and,
// via Stats, version chains are already covered by storage tests) for
// level-0 address strings — none may survive the first transition wave.
func assertNoAddressInStore(t *testing.T, db *DB, table string) {
	t.Helper()
	tbl, err := db.cat.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	ts := db.mgr.Table(tbl)
	err = ts.Scan(func(tp storage.Tuple) bool {
		for _, v := range tp.Row {
			if v.Kind() != value.KindText {
				continue
			}
			for _, addr := range figure1Addresses {
				if strings.Contains(v.Text(), addr) {
					t.Errorf("expired address %q recoverable from storage tuple %d", addr, tp.ID)
				}
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScanDegradeInterleaving drives concurrent snapshot scans against
// concurrent degradation ticks under the race detector. Invariants: no
// scan ever errors, a full-accuracy scan only ever renders level-0
// addresses (a row past its first deadline no longer qualifies at level
// 0, so anything else would be a torn or expired read), and after the
// final wave no address is recoverable by any scan.
func TestScanDegradeInterleaving(t *testing.T) {
	db, clock := openSim(t)
	installSchema(t, db)

	const rows = 60
	ins := db.NewConn()
	for i := 0; i < rows; i++ {
		addr := figure1Addresses[i%len(figure1Addresses)]
		if _, err := ins.Exec(fmt.Sprintf(
			`INSERT INTO person (id, name, location, salary) VALUES (%d, 'p%d', '%s', 1000)`, i+1, i+1, addr)); err != nil {
			t.Fatal(err)
		}
	}
	addrSet := make(map[string]bool)
	countrySet := map[string]bool{"Netherlands": true, "France": true}
	for _, a := range figure1Addresses {
		addrSet[a] = true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	scanErr := make(chan error, 8)
	// Full-accuracy scanners: may only ever observe level-0 addresses.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := db.NewConn()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rs, err := conn.Query(`SELECT location FROM person`)
				if err != nil {
					scanErr <- err
					return
				}
				for _, row := range rs.Data {
					if got := row[0].Text(); !addrSet[got] {
						scanErr <- fmt.Errorf("full-accuracy scan observed %q", got)
						return
					}
				}
			}
		}()
	}
	// Purpose-limited scanners: country renderings only, across states.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := db.NewConn()
			if err := conn.SetPurpose("stat"); err != nil {
				scanErr <- err
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				rs, err := conn.Query(`SELECT location FROM person`)
				if err != nil {
					scanErr <- err
					return
				}
				for _, row := range rs.Data {
					if got := row[0].Text(); !countrySet[got] {
						scanErr <- fmt.Errorf("country-level scan observed %q", got)
						return
					}
				}
			}
		}()
	}
	// Degrader: advance through the first transition wave in steps,
	// ticking concurrently with the scans above.
	for i := 0; i < 30; i++ {
		clock.Advance(time.Minute)
		if _, err := db.DegradeNow(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-scanErr:
		t.Fatal(err)
	default:
	}

	// All rows are past the address deadline; nothing recovers them.
	conn := db.NewConn()
	rs, err := conn.Query(`SELECT location FROM person`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 0 {
		t.Fatalf("full-accuracy scan after the wave returned %d rows, want 0", rs.Len())
	}
	assertNoAddressInStore(t, db, "person")
}

// TestSnapshotsSeeWholeBatches: while commits land and their births are
// kept and drained, every snapshot read sees each batch entirely or not
// at all — its inserts and its update of a row inserted before — and a
// read-only transaction reads the same rows however many batches land
// during it.
func TestSnapshotsSeeWholeBatches(t *testing.T) {
	db, _ := openSim(t)
	db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	const batches, perBatch, old = 150, 10, 100000
	for b := 1; b <= batches; b++ {
		db.MustExec(`INSERT INTO t (id, v) VALUES (?, 0)`, value.Int(old+int64(b)))
	}
	// consistent checks one read: batch b inserts perBatch rows and sets
	// v of row old+b, which no other batch writes (a row updated by
	// every batch would outrun MaxTupleVersions).
	consistent := func(rows [][]value.Value) (string, error) {
		inserted, updated := 0, 0
		for _, r := range rows {
			switch {
			case r[0].Int() < old:
				inserted++
			case r[1].Int() != 0:
				updated++
			}
		}
		if inserted != updated*perBatch {
			return "", fmt.Errorf("a read sees %d inserted rows and %d updated ones: a torn batch", inserted, updated)
		}
		seen := make([]string, len(rows))
		for i, r := range rows {
			seen[i] = fmt.Sprint(r[0].Int(), ":", r[1].Int())
		}
		slices.Sort(seen)
		return strings.Join(seen, " "), nil
	}
	stop := make(chan struct{})
	errc := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(ro bool) {
			defer wg.Done()
			conn := db.NewConn()
			defer conn.Exec(`ROLLBACK`)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ro {
					if _, err := conn.Exec(`BEGIN READ ONLY`); err != nil {
						errc <- err
						return
					}
				}
				var first string
				for i := 0; i < 3; i++ {
					rs, err := conn.Query(`SELECT id, v FROM t`)
					if err == nil {
						var seen string
						if seen, err = consistent(rs.Data); err == nil && ro && i > 0 && seen != first {
							err = errors.New("a read-only transaction's reads differ")
						}
						first = seen
					}
					if err != nil {
						errc <- err
						return
					}
				}
				if ro {
					if _, err := conn.Exec(`COMMIT`); err != nil {
						errc <- err
						return
					}
				}
			}
		}(r == 0)
	}
	w := db.NewConn()
	for b := 1; b <= batches; b++ {
		stmts := []string{`BEGIN`}
		for i := 0; i < perBatch; i++ {
			stmts = append(stmts, fmt.Sprintf(`INSERT INTO t (id, v) VALUES (%d, %d)`, b*perBatch+i, b))
		}
		stmts = append(stmts, fmt.Sprintf(`UPDATE t SET v = %d WHERE id = %d`, b, old+b), `COMMIT`)
		for _, s := range stmts {
			if _, err := w.Exec(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// With every snapshot closed, the next commit forgets every birth.
	db.MustExec(`DELETE FROM t WHERE id = ?`, value.Int(perBatch))
	tbl, err := db.cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if st := db.mgr.Table(tbl).Stats(); st.Young != 0 {
		t.Errorf("%d tuples keep a birth epoch once every snapshot is closed", st.Young)
	}
}
