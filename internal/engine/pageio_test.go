package engine

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"instantdb/internal/forensic"
	"instantdb/internal/index"
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

// Page I/O budget of a degradation wave: physical page reads plus writes
// per transition. The wave below measures 0.066 (85 reads and 47 writes
// for 2 000 transitions); reading and applying tuple by tuple it measured
// 6.98 (the degrader's read, the apply's read, DegradeAttr's read, and a
// read and a write each to scrub the old copy and to place the new one).
const pageIOBudgetPerTransition = 0.2

// TestDegradePageIOSizeBudget degrades 2 000 rows of a durable database
// in one wave and holds the page reads and writes it issues to the page
// file per transition to a committed budget.
func TestDegradePageIOSizeBudget(t *testing.T) {
	clock := vclock.NewSimulated(vclock.Epoch)
	nosync := false
	db, err := Open(Config{Dir: t.TempDir(), Clock: clock, WALSync: &nosync})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	installSchema(t, db)
	const rows = 2000
	loadPeople(t, db, rows)

	clock.Advance(16 * time.Minute)
	r0, w0 := db.mgr.PageIO()
	n, err := db.DegradeNow()
	if err != nil {
		t.Fatal(err)
	}
	r1, w1 := db.mgr.PageIO()
	if n != rows {
		t.Fatalf("wave fired %d transitions, want %d", n, rows)
	}
	per := float64(r1-r0+w1-w0) / float64(n)
	t.Logf("wave of %d transitions: %d page reads, %d page writes, %.3f per transition (budget %.2f)",
		n, r1-r0, w1-w0, per, pageIOBudgetPerTransition)
	if per > pageIOBudgetPerTransition {
		t.Errorf("%.3f page reads+writes per transition, budget %.2f", per, pageIOBudgetPerTransition)
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
// pages inside page scopes. No read may fail (a dangling rid), miss a
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

// failingStore fails every WritePage once armed.
type failingStore struct {
	storage.Store
	fail atomic.Bool
}

var errWriteInjected = errors.New("injected page write failure")

func (s *failingStore) WritePage(id storage.PageID, data []byte) error {
	if s.fail.Load() {
		return errWriteInjected
	}
	return s.Store.WritePage(id, data)
}

// TestWriteBackFailureFencesAndReplays: a commit whose page write-back
// fails at the end of its apply fences the database like any apply
// failure, and reopening the directory replays the batch from the WAL.
func TestWriteBackFailureFencesAndReplays(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewSimulated(vclock.Epoch)
	db, err := Open(Config{Dir: dir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	// Route the (still empty) database's pages through a store that can
	// be made to fail. Nothing in this test ticks the degrader, which
	// keeps the manager it was built with.
	fs := &failingStore{Store: db.mgr.Store()}
	db.mgr = storage.NewManager(fs)
	installSchema(t, db)
	db.MustExec(`INSERT INTO person (id, name, location, salary) VALUES (1, 'a', 'Dam 1', 1000)`)

	fs.fail.Store(true)
	if _, err := db.Exec(`INSERT INTO person (id, name, location, salary) VALUES (2, 'b', 'Dam 1', 1000)`); !errors.Is(err, errWriteInjected) {
		t.Fatalf("commit over a failed write-back: err = %v, want the injected failure", err)
	}
	fs.fail.Store(false)
	if _, err := db.Exec(`INSERT INTO person (id, name, location, salary) VALUES (3, 'c', 'Dam 1', 1000)`); err == nil {
		t.Fatal("a commit after a failed write-back must be refused")
	}
	db.Close()

	db2, err := Open(Config{Dir: dir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows, err := db2.NewConn().Query(`SELECT id FROM person ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if got := textsOf(rows, 0); len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Fatalf("rows after reopen = %v, want 1 and 2 (the failed write-back's batch replayed)", got)
	}
}

// TestReaderOverflowWriteBackFailureFences: a snapshot scan that runs
// while a commit's page scope is open fills the scope past its bound and
// so writes the commit's dirty page back itself. When that write fails,
// the commit must still fail and fence the database instead of
// publishing a batch whose page never reached the page file, and
// reopening replays the batch.
func TestReaderOverflowWriteBackFailureFences(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewSimulated(vclock.Epoch)
	db, err := Open(Config{Dir: dir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	fs := &failingStore{Store: db.mgr.Store()}
	db.mgr = storage.NewManager(fs)
	installSchema(t, db)
	db.MustExec(`CREATE INDEX ix_name ON person (name) USING BTREE`)
	loadPeople(t, db, 6000)
	tbl, err := db.cat.Table("person")
	if err != nil {
		t.Fatal(err)
	}
	ts := db.mgr.Table(tbl)
	if p := ts.Stats().Pages; p <= 64 {
		t.Fatalf("sanity: %d pages do not fill a page scope (64)", p)
	}
	var bt *index.BTree
	for _, inst := range db.byTable[tbl.ID] {
		if inst.bt != nil {
			bt = inst.bt
		}
	}

	// Hold the name index's read lock: the commit below places its row
	// in a page of its open scope, then waits for the lock to index it,
	// and the scope stays open until the lock is released.
	held, release := make(chan struct{}), make(chan struct{})
	go bt.Range(nil, nil, func([]byte, []storage.TupleID) bool {
		close(held)
		<-release
		return false
	})
	<-held
	fs.fail.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := db.Exec(`INSERT INTO person (id, name, location, salary) VALUES (9999, 'z', 'Dam 1', 1000)`)
		done <- err
	}()
	var scanErr error
	for deadline := time.Now().Add(10 * time.Second); scanErr == nil && time.Now().Before(deadline); {
		snap := db.epochs.Snapshot()
		scanErr = ts.SnapshotScan(snap, func(storage.Tuple) bool { return true })
		db.epochs.Release(snap)
	}
	close(release)
	if !errors.Is(scanErr, errWriteInjected) {
		t.Fatalf("scans over the open scope: err = %v, want the injected write-back failure", scanErr)
	}
	if err := <-done; !errors.Is(err, errWriteInjected) {
		t.Fatalf("commit whose page a reader failed to write back: err = %v, want the injected failure", err)
	}
	fs.fail.Store(false)
	if _, err := db.Exec(`INSERT INTO person (id, name, location, salary) VALUES (10000, 'y', 'Dam 1', 1000)`); err == nil {
		t.Fatal("a commit after a failed write-back must be refused")
	}
	db.Close()

	db2, err := Open(Config{Dir: dir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows, err := db2.NewConn().Query(`SELECT name FROM person WHERE id = 9999`)
	if err != nil {
		t.Fatal(err)
	}
	if got := textsOf(rows, 0); len(got) != 1 || got[0] != "z" {
		t.Fatalf("row 9999 after reopen = %v, want the failed write-back's batch replayed", got)
	}
}
