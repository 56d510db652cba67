package engine

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"instantdb/internal/forensic"
	"instantdb/internal/storage"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
)

// loadPeople inserts rows person rows, 500 to a transaction, cycling
// through the Figure 1 addresses.
func loadPeople(t *testing.T, db *DB, rows int) {
	t.Helper()
	conn := db.NewConn()
	ins, err := conn.Prepare(`INSERT INTO person (id, name, location, salary) VALUES (?, ?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	for id := 1; id <= rows; id++ {
		if id%500 == 1 {
			if _, err := conn.Exec(`BEGIN`); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ins.Exec(value.Int(int64(id)), value.Text(fmt.Sprintf("name-%06d", id)),
			value.Text(figure1Addresses[id%len(figure1Addresses)]), value.Int(int64(1000+id%3000))); err != nil {
			t.Fatal(err)
		}
		if id%500 == 0 || id == rows {
			if _, err := conn.Exec(`COMMIT`); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Page I/O budgets: physical page reads plus writes issued to the page
// file per row an operation applies to. A wave of 2 000 transitions
// measures 0.082 unindexed and 0.101 with the degraded column indexed
// (the apply reads the before-states' pages, then its run reads them
// again); reading and applying tuple by tuple it measured 6.98 (the
// degrader's read, the apply's read, DegradeAttr's read, and a read and a
// write each to scrub the old copy and to place the new one). The wave
// that ends 2 000 rows' life cycle measures 0.134 per deleted row; with
// each row deleted on its own it measured 3.09. An UPDATE of 2 000 rows
// by primary-key range in one commit reads two pages per row at
// statement time (each candidate the primary-key index yields, then its
// re-read under the row's lock) and measures 2.05 in all; with each row updated on its own it
// measured 5.98.
const (
	pageIOBudgetPerTransition = 0.2
	pageIOBudgetPerDelete     = 0.2
	pageIOBudgetPerUpdate     = 2.2
)

// TestDegradePageIOSizeBudget loads 2 000 rows into a durable database
// and holds the page reads and writes that one operation over all of
// them issues to the page file, per row, to a committed budget: a
// transition wave, unindexed and indexed, the THEN DELETE wave at the
// end of the location column's life cycle, and an UPDATE of every row
// in one commit.
func TestDegradePageIOSizeBudget(t *testing.T) {
	const rows = 2000
	wave := func(db *DB) (int, error) { return db.DegradeNow() }
	for _, tc := range []struct {
		name   string
		index  string
		before time.Duration // clock advance and waves before the measured op
		op     func(*DB) (int, error)
		fired  int // records op applies: transitions, deletions, updates
		budget float64
	}{
		{"transitions", "", 0, wave, rows, pageIOBudgetPerTransition},
		{"transitions indexed", `CREATE INDEX ix_loc ON person (location) USING BTREE`, 0, wave, rows, pageIOBudgetPerTransition},
		// 31 days take every row to country, its last state; a day later
		// the wave erases each row's location and deletes the row (THEN
		// DELETE), and the budget is per deleted row.
		{"delete wave", "", 31 * 24 * time.Hour, wave, 2 * rows, pageIOBudgetPerDelete},
		{"update", "", 0, func(db *DB) (int, error) {
			res, err := db.Exec(`UPDATE person SET name = 'renamed person' WHERE id <= 2000`)
			if err != nil {
				return 0, err
			}
			return res.RowsAffected, nil
		}, rows, pageIOBudgetPerUpdate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := vclock.NewSimulated(vclock.Epoch)
			nosync := false
			db, err := Open(Config{Dir: t.TempDir(), Clock: clock, WALSync: &nosync})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			installSchema(t, db)
			if tc.index != "" {
				db.MustExec(tc.index)
			}
			loadPeople(t, db, rows)
			if tc.before > 0 {
				// A wave fires one step of each row's life cycle; the
				// steps due by now take a wave each.
				clock.Advance(tc.before)
				for n := 1; n > 0; {
					if n, err = db.DegradeNow(); err != nil {
						t.Fatal(err)
					}
				}
				clock.Advance(24 * time.Hour)
			}
			clock.Advance(16 * time.Minute)
			r0, w0 := db.mgr.PageIO()
			n, err := tc.op(db)
			if err != nil {
				t.Fatal(err)
			}
			r1, w1 := db.mgr.PageIO()
			if n != tc.fired {
				t.Fatalf("%s applied %d records, want %d", tc.name, n, tc.fired)
			}
			per := float64(r1-r0+w1-w0) / rows
			t.Logf("%s of %d rows: %d page reads, %d page writes, %.3f per row (budget %.2f)",
				tc.name, rows, r1-r0, w1-w0, per, tc.budget)
			if per > tc.budget {
				t.Errorf("%.3f page reads+writes per row, budget %.2f", per, tc.budget)
			}
		})
	}
}

// Allocation budgets of a degradation wave: heap bytes allocated per
// transition, all of it — degrader, WAL, apply, audit. The wave below
// measures 585 B with the location column unindexed and 745 B with a
// B+tree index on it; what is left is mostly the WAL record and the
// degrader's batch read. A row lock allocating its table entry again
// breaks them (tuple by tuple, with a map per lock, it measured 925 and
// 1 008 B), and so does a whole-tuple decode or re-encode back on the
// transition path (with three it measured ~1 600 B).
const (
	allocBudgetPerTransition        = 730
	allocBudgetPerTransitionIndexed = 940
)

// TestDegradeAllocSizeBudget degrades 2 000 rows of a durable database in
// one wave and holds the bytes allocated per transition to a committed
// budget, on the person table as it is and with its degraded column
// indexed.
func TestDegradeAllocSizeBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	for _, tc := range []struct {
		name   string
		index  string
		budget float64
	}{
		{"unindexed", "", allocBudgetPerTransition},
		{"indexed", `CREATE INDEX ix_loc ON person (location) USING BTREE`, allocBudgetPerTransitionIndexed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := vclock.NewSimulated(vclock.Epoch)
			nosync := false
			db, err := Open(Config{Dir: t.TempDir(), Clock: clock, WALSync: &nosync})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			installSchema(t, db)
			if tc.index != "" {
				db.MustExec(tc.index)
			}
			const rows = 2000
			loadPeople(t, db, rows)

			clock.Advance(16 * time.Minute)
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			n, err := db.DegradeNow()
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if n != rows {
				t.Fatalf("wave fired %d transitions, want %d", n, rows)
			}
			per := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
			t.Logf("wave of %d transitions: %.0f B allocated per transition (budget %.0f)", n, per, tc.budget)
			if per > tc.budget {
				t.Errorf("%.0f B allocated per transition, budget %.0f", per, tc.budget)
			}
		})
	}
}

// Allocation budgets of a 500-row commit: heap bytes the COMMIT
// allocates per row — primary-key check, WAL encoding and group append,
// apply to storage, indexes and queues, audit events. The commit below
// measures 440 B with only the primary key indexed and 488 B with a
// B+tree on the location column as well; tuple by tuple, encoding each
// record afresh, checking and reserving primary keys through a map of
// their own and collecting each row's audit events, it measured 731 and
// 779 B.
const (
	allocBudgetPerInsert        = 550
	allocBudgetPerInsertIndexed = 610
)

// TestInsertAllocSizeBudget commits 500-row transactions to a durable
// database and holds the bytes the COMMIT allocates per row to a
// committed budget, on the person table as it is and with its location
// column indexed. Each reading is the smallest of three commits, after
// one that grows the structures every commit reuses.
func TestInsertAllocSizeBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	for _, tc := range []struct {
		name   string
		index  string
		budget float64
	}{
		{"unindexed", "", allocBudgetPerInsert},
		{"indexed", `CREATE INDEX ix_loc ON person (location) USING BTREE`, allocBudgetPerInsertIndexed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nosync := false
			db := openDurable(t, Config{WALSync: &nosync})
			installSchema(t, db)
			if tc.index != "" {
				db.MustExec(tc.index)
			}
			conn := db.NewConn()
			ins, err := conn.Prepare(`INSERT INTO person (id, name, location, salary) VALUES (?, ?, ?, ?)`)
			if err != nil {
				t.Fatal(err)
			}
			defer ins.Close()
			const rows = 500
			per := math.Inf(1)
			for c := 0; c < 4; c++ {
				if _, err := conn.Exec(`BEGIN`); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < rows; i++ {
					id := c*rows + i + 1
					if _, err := ins.Exec(value.Int(int64(id)), value.Text(fmt.Sprintf("name-%06d", id)),
						value.Text(figure1Addresses[id%len(figure1Addresses)]), value.Int(int64(1000+id%3000))); err != nil {
						t.Fatal(err)
					}
				}
				runtime.GC()
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				if _, err := conn.Exec(`COMMIT`); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&m1)
				if c > 0 {
					per = min(per, float64(m1.TotalAlloc-m0.TotalAlloc)/rows)
				}
			}
			t.Logf("500-row commit: %.0f B allocated per row (budget %.0f)", per, tc.budget)
			if per > tc.budget {
				t.Errorf("%.0f B allocated per row, budget %.0f", per, tc.budget)
			}
		})
	}
}

// TestNoExpiredAddressInPagesAfterDegradeNow: the batches write their
// pages back before they commit, so once DegradeNow returns the raw page
// file — read around the storage layer — holds no address.
func TestNoExpiredAddressInPagesAfterDegradeNow(t *testing.T) {
	clock := vclock.NewSimulated(vclock.Epoch)
	nosync := false
	db, err := Open(Config{Dir: t.TempDir(), Clock: clock, WALSync: &nosync})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	installSchema(t, db)
	loadPeople(t, db, 600)
	tbl, err := db.cat.Table("person")
	if err != nil {
		t.Fatal(err)
	}
	loc := tbl.Columns[2].Domain
	var needles []forensic.Needle
	for _, addr := range figure1Addresses {
		stored, err := loc.ResolveInsert(value.Text(addr))
		if err != nil {
			t.Fatal(err)
		}
		needles = append(needles, forensic.NeedleForStored(addr, stored))
	}
	scan := func() forensic.Report {
		rep, err := forensic.ScanStore(db.mgr.Store(), needles)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if scan().Clean() {
		t.Fatal("sanity: the addresses should be in the page file before their deadline")
	}
	clock.Advance(16 * time.Minute)
	if _, err := db.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	if rep := scan(); !rep.Clean() {
		t.Fatalf("expired addresses in the page file after DegradeNow: %v", rep.Findings[:min(3, len(rep.Findings))])
	}
}

// TestSnapshotReadsDuringDegradeBatches runs SnapshotScan and SnapshotGet
// against a table while degradation batches move its tuples between
// pages, one run at a time. No read may fail (a dangling rid), miss a
// tuple, return a torn (state, value) pair, or return a state older than
// one the reader has already seen or one a finished wave left behind.
// Run it under -race.
func TestSnapshotReadsDuringDegradeBatches(t *testing.T) {
	db, clock := openSim(t)
	installSchema(t, db)
	const rows = 1200
	loadPeople(t, db, rows)
	tbl, err := db.cat.Table("person")
	if err != nil {
		t.Fatal(err)
	}
	ts := db.mgr.Table(tbl)
	dom := tbl.Columns[2].Domain
	// Every tuple's stored location at each of the three states the waves
	// below walk through.
	want := make(map[storage.TupleID][3]value.Value, rows)
	var ids []storage.TupleID
	if err := ts.Scan(func(tp storage.Tuple) bool {
		var chain [3]value.Value
		for s := range chain {
			v, err := dom.Degrade(tp.Row[2], 0, s)
			if err != nil {
				t.Error(err)
				return false
			}
			chain[s] = v
		}
		want[tp.ID] = chain
		ids = append(ids, tp.ID)
		return true
	}); err != nil {
		t.Fatal(err)
	}

	var floor atomic.Int32 // the state every tuple has reached once a wave returned
	stop := make(chan struct{})
	var wg sync.WaitGroup
	check := func(tp storage.Tuple, seen map[storage.TupleID]uint8, min uint8) error {
		chain, ok := want[tp.ID]
		st := tp.States[0]
		switch {
		case !ok:
			return fmt.Errorf("unknown tuple %d", tp.ID)
		case int(st) >= len(chain) || !value.Equal(tp.Row[2], chain[st]):
			return fmt.Errorf("tuple %d: state %d with stored location %v", tp.ID, st, tp.Row[2])
		case st < seen[tp.ID] || st < min:
			return fmt.Errorf("tuple %d: state %d after state %d was observed (wave floor %d)", tp.ID, st, seen[tp.ID], min)
		}
		seen[tp.ID] = st
		return nil
	}
	reader := func(body func(snap uint64, seen map[storage.TupleID]uint8, min uint8) error) {
		defer wg.Done()
		seen := make(map[storage.TupleID]uint8)
		for {
			select {
			case <-stop:
				return
			default:
			}
			min := uint8(floor.Load())
			snap := db.epochs.Snapshot()
			err := body(snap, seen, min)
			db.epochs.Release(snap)
			if err != nil {
				t.Error(err)
				return
			}
		}
	}
	wg.Add(2)
	go reader(func(snap uint64, seen map[storage.TupleID]uint8, min uint8) error {
		n := 0
		var cerr error
		err := ts.SnapshotScan(snap, func(tp storage.Tuple) bool {
			n++
			cerr = check(tp, seen, min)
			return cerr == nil
		})
		switch {
		case err != nil:
			return err
		case cerr != nil:
			return cerr
		case n != rows:
			return fmt.Errorf("snapshot scan saw %d of %d tuples", n, rows)
		}
		return nil
	})
	go reader(func(snap uint64, seen map[storage.TupleID]uint8, min uint8) error {
		for i := 0; i < len(ids); i += 7 {
			tp, err := ts.SnapshotGet(ids[i], snap)
			if err != nil {
				return err
			}
			if err := check(tp, seen, min); err != nil {
				return err
			}
		}
		return nil
	})

	// Two waves, each moving every tuple to the next state's segment in
	// five batches: address → city → region.
	for wave, step := range []time.Duration{16 * time.Minute, time.Hour} {
		clock.Advance(step)
		if n, err := db.DegradeNow(); err != nil || n != rows {
			t.Errorf("wave %d: %d transitions, err=%v", wave, n, err)
			break
		}
		floor.Store(int32(wave + 1))
		time.Sleep(5 * time.Millisecond) // let the readers run against the settled state
	}
	close(stop)
	wg.Wait()
}

// failingStore fails the next fails WritePage calls.
type failingStore struct {
	storage.Store
	fails atomic.Int64
}

var errWriteInjected = errors.New("injected page write failure")

func (s *failingStore) WritePage(id storage.PageID, data []byte) error {
	if s.fails.Add(-1) >= 0 {
		return errWriteInjected
	}
	return s.Store.WritePage(id, data)
}

// TestWriteBackFailureFencesAndReplays: a commit whose page write-back
// fails fences the database like any apply failure, and reopening the
// directory replays the batch from the WAL. The write that fails is the
// first of the commit's: at the end of a one-row run, and in the flush a
// run spanning more than its 64 pages makes midway, whose other writes
// and whose final write-back succeed.
func TestWriteBackFailureFencesAndReplays(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows int // inserted by the failing commit
		size int // bytes of each row's name
	}{
		{"end of run", 1, 1},
		{"mid-run flush", 300, 1000}, // four rows a page
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			clock := vclock.NewSimulated(vclock.Epoch)
			db, err := Open(Config{Dir: dir, Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			// Route the (still empty) database's pages through a store
			// that can be made to fail. Nothing in this test ticks the
			// degrader, which keeps the manager it was built with.
			fs := &failingStore{Store: db.mgr.Store()}
			db.mgr = storage.NewManager(fs)
			installSchema(t, db)
			db.MustExec(`INSERT INTO person (id, name, location, salary) VALUES (1, 'a', 'Dam 1', 1000)`)

			conn := db.NewConn()
			ins, err := conn.Prepare(`INSERT INTO person (id, name, location, salary) VALUES (?, ?, 'Dam 1', 1000)`)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Exec(`BEGIN`); err != nil {
				t.Fatal(err)
			}
			for id := 2; id <= tc.rows+1; id++ {
				if _, err := ins.Exec(value.Int(int64(id)), value.Text(strings.Repeat("b", tc.size))); err != nil {
					t.Fatal(err)
				}
			}
			ins.Close()
			fs.fails.Store(1)
			if _, err := conn.Exec(`COMMIT`); !errors.Is(err, errWriteInjected) {
				t.Fatalf("commit over a failed write-back: err = %v, want the injected failure", err)
			}
			if _, err := db.Exec(`INSERT INTO person (id, name, location, salary) VALUES (100000, 'c', 'Dam 1', 1000)`); err == nil {
				t.Fatal("a commit after a failed write-back must be refused")
			}
			db.Close()

			db2, err := Open(Config{Dir: dir, Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			rows, err := db2.NewConn().Query(`SELECT COUNT(*) FROM person`)
			if err != nil {
				t.Fatal(err)
			}
			if got := textsOf(rows, 0); len(got) != 1 || got[0] != strconv.Itoa(tc.rows+1) {
				t.Fatalf("rows after reopen = %v, want %d (the failed write-back's batch replayed)", got, tc.rows+1)
			}
			tbl, err := db2.cat.Table("person")
			if err != nil {
				t.Fatal(err)
			}
			if p := db2.mgr.Table(tbl).Stats().Pages; tc.rows > 1 && p <= 64 {
				t.Fatalf("sanity: the batch spans %d pages, not more than a run holds (64)", p)
			}
		})
	}
}
