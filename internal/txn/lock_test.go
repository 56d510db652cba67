package txn

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"instantdb/internal/storage"
)

func TestIDSource(t *testing.T) {
	var s IDSource
	a, b := s.Next(), s.Next()
	if a == 0 || b <= a {
		t.Fatalf("ids %d %d", a, b)
	}
}

func TestCompatibilityMatrix(t *testing.T) {
	cases := []struct {
		a, b LockMode
		ok   bool
	}{
		{LockIS, LockIS, true}, {LockIS, LockIX, true}, {LockIS, LockS, true}, {LockIS, LockX, false},
		{LockIX, LockIX, true}, {LockIX, LockS, false}, {LockIX, LockX, false},
		{LockS, LockS, true}, {LockS, LockX, false},
		{LockX, LockX, false},
	}
	for _, c := range cases {
		if compatible[c.a][c.b] != c.ok {
			t.Errorf("compat[%s][%s]=%v want %v", c.a, c.b, compatible[c.a][c.b], c.ok)
		}
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	lm := NewLockManager(50 * time.Millisecond)
	r := RowRes(1, 7)
	if err := lm.Acquire(1, r, LockS); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, r, LockS); err != nil {
		t.Fatal(err)
	}
	if lm.HeldCount(1) != 1 || lm.HeldCount(2) != 1 {
		t.Fatal("held counts wrong")
	}
}

func TestExclusiveBlocksAndTimesOut(t *testing.T) {
	lm := NewLockManager(30 * time.Millisecond)
	r := RowRes(1, 7)
	if err := lm.Acquire(1, r, LockX); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := lm.Acquire(2, r, LockS)
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("err=%v want timeout", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("timed out too early")
	}
}

func TestReleaseWakesWaiter(t *testing.T) {
	lm := NewLockManager(time.Second)
	r := RowRes(1, 7)
	if err := lm.Acquire(1, r, LockX); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- lm.Acquire(2, r, LockX) }()
	time.Sleep(10 * time.Millisecond)
	lm.ReleaseAll(1)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woke")
	}
}

func TestUpgradeSToX(t *testing.T) {
	lm := NewLockManager(30 * time.Millisecond)
	r := RowRes(1, 7)
	if err := lm.Acquire(1, r, LockS); err != nil {
		t.Fatal(err)
	}
	// Sole holder upgrades immediately.
	if err := lm.Acquire(1, r, LockX); err != nil {
		t.Fatal(err)
	}
	// Now another S must block.
	if lm.TryAcquire(2, r, LockS) {
		t.Fatal("S granted alongside upgraded X")
	}
}

func TestUpgradeBlockedByOtherHolder(t *testing.T) {
	lm := NewLockManager(30 * time.Millisecond)
	r := RowRes(1, 7)
	lm.Acquire(1, r, LockS)
	lm.Acquire(2, r, LockS)
	if err := lm.Acquire(1, r, LockX); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("upgrade with peer holder: err=%v", err)
	}
}

func TestReacquireWeakerIsNoop(t *testing.T) {
	lm := NewLockManager(30 * time.Millisecond)
	r := TableRes(1)
	lm.Acquire(1, r, LockX)
	if err := lm.Acquire(1, r, LockIS); err != nil {
		t.Fatal("weaker re-request should be immediate")
	}
	if lm.HeldCount(1) != 1 {
		t.Fatal("duplicate lock entries")
	}
}

func TestIntentionAndRowLocks(t *testing.T) {
	lm := NewLockManager(30 * time.Millisecond)
	// Reader: table IS + row S. Degrader: table IX + row X on another row.
	if err := lm.Acquire(1, TableRes(1), LockIS); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(1, RowRes(1, 5), LockS); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, TableRes(1), LockIX); err != nil {
		t.Fatal("IX should coexist with IS")
	}
	if !lm.TryAcquire(2, RowRes(1, 6), LockX) {
		t.Fatal("X on a different row should succeed")
	}
	// Same row conflicts.
	if lm.TryAcquire(2, RowRes(1, 5), LockX) {
		t.Fatal("X granted over S on the same row")
	}
	// DDL X on the table blocks behind both intents.
	if lm.TryAcquire(3, TableRes(1), LockX) {
		t.Fatal("table X granted over intents")
	}
}

func TestTryAcquireRespectsQueue(t *testing.T) {
	lm := NewLockManager(500 * time.Millisecond)
	r := RowRes(1, 7)
	lm.Acquire(1, r, LockX)
	done := make(chan error, 1)
	go func() { done <- lm.Acquire(2, r, LockX) }()
	time.Sleep(10 * time.Millisecond)
	// Txn 3 must not jump the queue even for a compatible-looking grab
	// after release.
	lm.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if lm.TryAcquire(3, r, LockS) {
		t.Fatal("S granted while txn2 holds X")
	}
	lm.ReleaseAll(2)
	if !lm.TryAcquire(3, r, LockS) {
		t.Fatal("S refused on free resource")
	}
}

func TestFIFOWakeOrder(t *testing.T) {
	lm := NewLockManager(2 * time.Second)
	r := RowRes(1, 7)
	lm.Acquire(1, r, LockX)
	var order []ID
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, id := range []ID{2, 3, 4} {
		wg.Add(1)
		go func(id ID) {
			defer wg.Done()
			if err := lm.Acquire(id, r, LockX); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			lm.ReleaseAll(id)
		}(id)
		time.Sleep(20 * time.Millisecond) // establish queue order
	}
	lm.ReleaseAll(1)
	wg.Wait()
	if len(order) != 3 || order[0] != 2 || order[1] != 3 || order[2] != 4 {
		t.Fatalf("wake order %v want [2 3 4]", order)
	}
}

func TestConcurrentStress(t *testing.T) {
	lm := NewLockManager(time.Second)
	var wg sync.WaitGroup
	var src IDSource
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := src.Next()
				res := RowRes(1, storage.TupleID(i%10))
				if err := lm.Acquire(id, TableRes(1), LockIX); err != nil {
					t.Error(err)
					return
				}
				if err := lm.Acquire(id, res, LockX); err == nil {
					_ = err
				}
				lm.ReleaseAll(id)
			}
		}()
	}
	wg.Wait()
}

// TestRowZeroIsNotTheTable: the resource kind is explicit, so row id 0
// does not alias its table — a transaction holding IX on the table takes
// X on row 0 without an upgrade, and another's IX on the table is
// unaffected.
func TestRowZeroIsNotTheTable(t *testing.T) {
	if RowRes(1, 0) == TableRes(1) {
		t.Fatal("RowRes(1, 0) aliases TableRes(1)")
	}
	lm := NewLockManager(50 * time.Millisecond)
	for _, id := range []ID{1, 2} {
		if err := lm.Acquire(id, TableRes(1), LockIX); err != nil {
			t.Fatal(err)
		}
	}
	if err := lm.Acquire(1, RowRes(1, 0), LockX); err != nil {
		t.Fatalf("X on row 0 under two IX holders of the table: %v", err)
	}
	if lm.TryAcquire(2, RowRes(1, 0), LockX) {
		t.Fatal("row 0 granted twice")
	}
	err := lm.Acquire(2, RowRes(1, 0), LockS)
	if !errors.Is(err, ErrLockTimeout) || !strings.Contains(err.Error(), "table 1 row 0") {
		t.Fatalf("want a timeout naming table 1 row 0, got %v", err)
	}
}

// queued reports how many requests wait on res.
func queued(lm *LockManager, res Resource) int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if st := lm.locks[res]; st != nil {
		return len(st.queue)
	}
	return 0
}

// waitQueued waits until n requests wait on res.
func waitQueued(t *testing.T, lm *LockManager, res Resource, n int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); queued(lm, res) != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters", n)
		}
	}
}

// TestUpgradeDeadlockFailsFast: two transactions hold S on a row (or IX
// on a table) and both ask for X. Each would wait for the other's lock to
// go, so the second upgrader is refused at once instead of waiting out
// the timeout; once it releases, the first is granted, ahead of a fresh X
// request that queued meanwhile.
func TestUpgradeDeadlockFailsFast(t *testing.T) {
	const timeout = 2 * time.Second
	for _, tc := range []struct {
		res  Resource
		held LockMode
	}{{RowRes(1, 7), LockS}, {TableRes(1), LockIX}} {
		lm := NewLockManager(timeout)
		r := tc.res
		for _, id := range []ID{1, 2} {
			if err := lm.Acquire(id, r, tc.held); err != nil {
				t.Fatal(err)
			}
		}
		first := make(chan error, 1)
		go func() { first <- lm.Acquire(1, r, LockX) }()
		waitQueued(t, lm, r, 1)
		start := time.Now()
		err := lm.Acquire(2, r, LockX)
		if !errors.Is(err, ErrLockTimeout) || !strings.Contains(err.Error(), r.String()) {
			t.Fatalf("%s: second upgrader got %v, want a lock timeout naming %s", tc.held, err, r)
		}
		if d := time.Since(start); d > timeout/10 {
			t.Fatalf("%s: second upgrader refused after %v; want it refused at once", tc.held, d)
		}
		fresh := make(chan error, 1)
		go func() { fresh <- lm.Acquire(3, r, LockX) }()
		waitQueued(t, lm, r, 2)
		lm.ReleaseAll(2)
		select {
		case err := <-first:
			if err != nil {
				t.Fatalf("%s: first upgrader: %v", tc.held, err)
			}
		case <-time.After(timeout / 2):
			t.Fatalf("%s: first upgrader not granted when the other holder released", tc.held)
		}
		waitQueued(t, lm, r, 1)
		lm.ReleaseAll(1)
		if err := <-fresh; err != nil {
			t.Fatalf("%s: fresh X request: %v", tc.held, err)
		}
		lm.ReleaseAll(3)
	}
}

// TestTimedOutWaiterWakesQueue: a waiter that gives up is a release for
// the requests parked behind it. T1 holds S, T2 queues X, T3 queues S
// behind T2; T3 is compatible with T1 and waits only because grants are
// FIFO, so it must be granted the moment T2 times out — and TryAcquire
// (the degrader's path) must stop refusing once the queue is empty.
func TestTimedOutWaiterWakesQueue(t *testing.T) {
	const timeout = 300 * time.Millisecond
	lm := NewLockManager(timeout)
	r := RowRes(1, 7)
	if err := lm.Acquire(1, r, LockS); err != nil {
		t.Fatal(err)
	}
	waitQueued := func(n int) { waitQueued(t, lm, r, n) }
	type result struct {
		err error
		at  time.Time
	}
	t2, t3 := make(chan result, 1), make(chan result, 1)
	go func() { err := lm.Acquire(2, r, LockX); t2 <- result{err, time.Now()} }()
	waitQueued(1)
	// T3 enqueues well after T2, so its own timeout is still far off
	// when T2's fires.
	time.Sleep(timeout / 2)
	go func() { err := lm.Acquire(3, r, LockS); t3 <- result{err, time.Now()} }()
	waitQueued(2)

	r2, r3 := <-t2, <-t3
	if !errors.Is(r2.err, ErrLockTimeout) {
		t.Fatalf("T2 (X behind an S holder): %v, want a lock timeout", r2.err)
	}
	if r3.err != nil {
		t.Fatalf("T3 (S behind the timed-out X): %v, want a grant when T2 left the queue", r3.err)
	}
	if d := r3.at.Sub(r2.at); d > timeout/4 {
		t.Fatalf("T3 was granted %v after T2 timed out; want it woken by the timeout itself", d)
	}
	if !lm.TryAcquire(4, r, LockS) {
		t.Fatal("TryAcquire S refused although nobody waits and only S is held")
	}
	lm.ReleaseAll(1)
	lm.ReleaseAll(3)
	lm.ReleaseAll(4)
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if len(lm.locks) != 0 {
		t.Fatalf("%d lock states left after every holder released", len(lm.locks))
	}
}

// TestLockTableShrinksAfterPeak: one transaction that locks many rows
// grows the lock table; once it has released them, the table's storage
// goes too, instead of staying at its peak size for the process's life.
func TestLockTableShrinksAfterPeak(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second empties sync.Pool's victim cache
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	lm := NewLockManager(time.Second)
	before := heap()
	const rows = 200_000
	if err := lm.Acquire(1, TableRes(1), LockIX); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= rows; r++ {
		if err := lm.Acquire(1, RowRes(1, storage.TupleID(r)), LockX); err != nil {
			t.Fatal(err)
		}
	}
	lm.ReleaseAll(1)
	retained := heap() - before
	// The table still works after it was replaced.
	if err := lm.Acquire(2, RowRes(1, 1), LockX); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(2)
	if retained > 1<<20 {
		t.Fatalf("%d row locks released, %d bytes of heap retained, want under 1 MiB", rows, retained)
	}
}
