package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"instantdb/internal/value"
	"instantdb/internal/vclock"
	"instantdb/internal/wal"
)

// openDurable opens a durable database in its own temp directory.
func openDurable(t *testing.T, cfg Config) *DB {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewSimulated(vclock.Epoch)
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// openGated opens a durable database whose WAL fsyncs go through fi,
// so a test can park them (fi.Hold).
func openGated(t *testing.T, fi *wal.FaultInjector) *DB {
	t.Helper()
	db := openDurable(t, Config{WALOpenSegment: fi.Open})
	t.Cleanup(fi.Release) // runs before Close: never leave a flush parked
	return db
}

// waitReserved blocks until n commits have passed admission — their
// primary keys are reserved and their batches are on the way to the
// group committer.
func waitReserved(t *testing.T, db *DB, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		db.mu.Lock()
		r := len(db.reservedPKs)
		db.mu.Unlock()
		if r >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d commits admitted, want %d", r, n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestGroupCommitConcurrentSessions is the engine-level amortization
// proof under -race: 32 sessions commit concurrently, every row lands
// exactly once, and the commit phase issues strictly fewer fsyncs than
// commits — concurrent batches shared group fsyncs.
func TestGroupCommitConcurrentSessions(t *testing.T) {
	fi := &wal.FaultInjector{}
	db := openGated(t, fi)
	installSchema(t, db)
	parked := fi.Hold()

	const sessions, perSession = 32, 8
	f0, b0 := db.log.FsyncCount(), db.log.BatchCount()
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			conn := db.NewConn()
			for i := 0; i < perSession; i++ {
				id := s*perSession + i + 1
				_, err := conn.Exec(
					`INSERT INTO person (id, name, location, salary) VALUES (?, ?, 'Dam 1', ?)`,
					value.Int(int64(id)), value.Text(fmt.Sprintf("user%d", id)), value.Int(int64(2000+id)))
				if err != nil {
					errs[s] = err
					return
				}
			}
		}(s)
	}
	// The first commit's flush parks; every other session's first
	// insert is admitted and queues behind it for the next fsync.
	<-parked
	waitReserved(t, db, sessions)
	fi.Release()
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", s, err)
		}
	}

	const commits = sessions * perSession
	if got := db.log.BatchCount() - b0; got != commits {
		t.Fatalf("appended %d batches, want %d", got, commits)
	}
	if syncs := db.log.FsyncCount() - f0; syncs >= commits {
		t.Fatalf("fsyncs (%d) not amortized over %d commits", syncs, commits)
	}
	rows := db.MustExec(`SELECT COUNT(*) FROM person`)
	if n := rows.Rows.Data[0][0].Int(); n != commits {
		t.Fatalf("table holds %d rows, want %d", n, commits)
	}
}

// TestGroupCommitDuplicatePKRace: concurrent inserts of the SAME key
// must admit exactly one — the in-flight reservation closes the window
// between a committer's uniqueness check and its apply. The winner's
// fsync stays parked until every other racer has finished, so each of
// them meets the key while it is reserved, not yet applied.
func TestGroupCommitDuplicatePKRace(t *testing.T) {
	fi := &wal.FaultInjector{}
	db := openGated(t, fi)
	installSchema(t, db)
	parked := fi.Hold()
	const racers = 16
	var wg sync.WaitGroup
	var finished atomic.Int32
	errs := make([]error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer finished.Add(1)
			_, errs[i] = db.NewConn().Exec(
				`INSERT INTO person (id, name, location, salary) VALUES (7, ?, 'Dam 1', 1)`,
				value.Text(fmt.Sprintf("racer%d", i)))
		}(i)
	}
	<-parked
	for deadline := time.Now().Add(10 * time.Second); finished.Load() < racers-1; {
		if time.Now().After(deadline) {
			t.Fatalf("%d racers finished while the winner's fsync was parked, want %d", finished.Load(), racers-1)
		}
		time.Sleep(50 * time.Microsecond)
	}
	fi.Release()
	wg.Wait()
	won := 0
	for i, err := range errs {
		switch {
		case err == nil:
			won++
		case errors.Is(err, ErrDuplicateKey):
		default:
			t.Fatalf("racer %d: unexpected error %v", i, err)
		}
	}
	if won != 1 {
		t.Fatalf("%d racers inserted pk 7, want exactly 1", won)
	}
	rows := db.MustExec(`SELECT COUNT(*) FROM person WHERE id = 7`)
	if n := rows.Rows.Data[0][0].Int(); n != 1 {
		t.Fatalf("pk 7 present %d times", n)
	}
}

// TestCommitMutexFreeDuringDegradeFsync: a degradation batch commits
// through the same phases as a user batch, so the engine mutex is free
// while its fsync is parked — the catalog script (the router's OpSchema,
// a replica's handshake) and a shard check answer meanwhile, and the
// batch still applies once the fsync returns.
func TestCommitMutexFreeDuringDegradeFsync(t *testing.T) {
	fi := &wal.FaultInjector{}
	db := openGated(t, fi)
	installSchema(t, db)
	insertPeople(t, db)
	db.clock.(*vclock.Simulated).Advance(16 * time.Minute) // past the address hold

	parked := fi.Hold()
	type tick struct {
		n   int
		err error
	}
	ticked := make(chan tick, 1)
	go func() {
		n, err := db.DegradeNow()
		ticked <- tick{n, err}
	}()
	<-parked

	answered := make(chan error, 1)
	go func() {
		script, err := db.CatalogScript()
		if err == nil && !strings.Contains(script, "CREATE TABLE person") {
			err = fmt.Errorf("catalog script lacks the person table:\n%s", script)
		}
		if err == nil {
			_, err = db.CheckShardVersion(1)
		}
		answered <- err
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("CatalogScript blocked behind the degradation batch's parked fsync")
	}
	select {
	case tk := <-ticked:
		t.Fatalf("the tick returned (n=%d err=%v) while its fsync was parked", tk.n, tk.err)
	default:
	}

	fi.Release()
	if tk := <-ticked; tk.err != nil || tk.n != 5 {
		t.Fatalf("tick: n=%d err=%v, want the 5 address transitions", tk.n, tk.err)
	}
	if rows := db.MustExec(`SELECT name, location FROM person`); rows.Rows.Len() != 0 {
		t.Fatalf("a full-accuracy read sees %d rows after the address hold, want 0", rows.Rows.Len())
	}
}

// TestDropTableDuringDegradeFsync: with the commit mutex free during a
// degradation batch's fsync, a DROP TABLE can land between the batch's
// append and its apply. The batch's records then have no table to apply
// to, as replay finds them, and are skipped: the tick succeeds and the
// database stays open for commits.
func TestDropTableDuringDegradeFsync(t *testing.T) {
	fi := &wal.FaultInjector{}
	db := openGated(t, fi)
	installSchema(t, db)
	insertPeople(t, db)
	db.MustExec(`CREATE TABLE other (id INT PRIMARY KEY)`)
	db.clock.(*vclock.Simulated).Advance(16 * time.Minute)

	parked := fi.Hold()
	ticked := make(chan error, 1)
	go func() {
		_, err := db.DegradeNow()
		ticked <- err
	}()
	<-parked
	db.MustExec(`DROP TABLE person`)
	fi.Release()
	if err := <-ticked; err != nil {
		t.Fatalf("tick across the drop: %v", err)
	}
	if _, err := db.Exec(`INSERT INTO other (id) VALUES (1)`); err != nil {
		t.Fatalf("commit after the drop: %v", err)
	}
}
