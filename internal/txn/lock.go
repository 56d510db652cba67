// Package txn provides transaction identity and the hierarchical lock
// manager used for isolation between user transactions and the system
// degradation transactions (paper §III: "potential conflicts between
// degradation steps and reader transactions").
//
// Locking is strict two-phase: locks accumulate during a transaction and
// release together at commit or abort. Granularity is hierarchical —
// intention locks (IS/IX) at table level, S/X at row level — so
// row-locked readers only delay degradation of the tuples they touch
// (the trade-off measured by experiment B-TXN). Only writes and reads
// inside explicit read-write transactions lock at all: autocommit
// SELECTs and read-only transactions read versioned snapshots governed
// by the EpochSource in this package, with no locks in either
// direction. Deadlocks resolve by bounded waiting: a request that
// cannot be granted within the configured timeout fails with
// ErrLockTimeout and the caller aborts. The one deadlock a single
// resource can hold is refused at once instead: an upgrade that waits
// for the lock of another upgrader waiting for its own.
package txn

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"instantdb/internal/storage"
)

// ID identifies a transaction. System (degradation) transactions share
// the same id space.
type ID uint64

// IDSource hands out transaction ids.
type IDSource struct{ n atomic.Uint64 }

// Next returns a fresh transaction id.
func (s *IDSource) Next() ID { return ID(s.n.Add(1)) }

// LockMode is a hierarchical lock mode.
type LockMode uint8

// Lock modes, weakest to strongest.
const (
	LockIS LockMode = iota // intention shared (table, before row S)
	LockIX                 // intention exclusive (table, before row X)
	LockS                  // shared
	LockX                  // exclusive
)

// String returns the mode name.
func (m LockMode) String() string {
	switch m {
	case LockIS:
		return "IS"
	case LockIX:
		return "IX"
	case LockS:
		return "S"
	case LockX:
		return "X"
	default:
		return fmt.Sprintf("LockMode(%d)", uint8(m))
	}
}

// compatible is the classic hierarchical compatibility matrix.
var compatible = [4][4]bool{
	LockIS: {LockIS: true, LockIX: true, LockS: true, LockX: false},
	LockIX: {LockIS: true, LockIX: true, LockS: false, LockX: false},
	LockS:  {LockIS: true, LockIX: false, LockS: true, LockX: false},
	LockX:  {LockIS: false, LockIX: false, LockS: false, LockX: false},
}

// stronger reports whether a subsumes b for upgrade purposes: every
// mode subsumes itself, X subsumes everything, IX and S each subsume IS
// (S does not subsume IX, nor IX S).
func stronger(a, b LockMode) bool {
	switch {
	case a == b, a == LockX:
		return true
	case a == LockIX, a == LockS:
		return b == LockIS
	default:
		return false
	}
}

// ErrLockTimeout is returned when a lock cannot be acquired within the
// manager's timeout — the deadlock-avoidance signal; the caller must
// abort its transaction.
var ErrLockTimeout = errors.New("txn: lock wait timeout (possible deadlock)")

// Resource names a lockable object: a table or one row of it. The kind
// is explicit, so no row id aliases the table.
type Resource struct {
	Table uint32
	IsRow bool
	Row   storage.TupleID // meaningful only when IsRow
}

// TableRes names a whole table.
func TableRes(table uint32) Resource { return Resource{Table: table} }

// RowRes names one row.
func RowRes(table uint32, row storage.TupleID) Resource {
	return Resource{Table: table, Row: row, IsRow: true}
}

// String names the resource for lock-wait errors.
func (r Resource) String() string {
	if r.IsRow {
		return fmt.Sprintf("table %d row %d", r.Table, r.Row)
	}
	return fmt.Sprintf("table %d", r.Table)
}

// lockState is one resource's entry in the lock table: its holders —
// a small slice, one entry on a row, a few on a table — and the FIFO of
// requests waiting for it. Entries are pooled (statePool): a row lock
// takes and returns one, so locking a row allocates nothing.
type lockState struct {
	holders []holder
	queue   []*waiter
}

// holder is one transaction's grant on a resource.
type holder struct {
	txn  ID
	mode LockMode
}

// mode returns txn's mode on the resource, ok=false when it holds none.
func (st *lockState) mode(txn ID) (LockMode, bool) {
	for _, h := range st.holders {
		if h.txn == txn {
			return h.mode, true
		}
	}
	return 0, false
}

// statePool recycles idle lock-table entries, heldPool the held lists of
// finished transactions. Pools, not free lists kept on the manager: they
// keep nothing across garbage collections, so the lock table's resident
// size stays what the held locks need.
var (
	statePool = sync.Pool{New: func() any { return new(lockState) }}
	heldPool  = sync.Pool{New: func() any { return new([]Resource) }}
)

type waiter struct {
	txn     ID
	mode    LockMode
	granted chan struct{}
}

// lockTableKeep is the largest lock table whose map survives draining.
// Go maps never shrink, so a table that grew past it is replaced once it
// is empty: one transaction that locked many rows does not leave the
// table at its peak size. A smaller map (up to ~220 KB) is kept, because
// the batches that grow it come again at once: a degrade batch locks 257
// resources and a bulk load of a few hundred rows as many, and remaking
// the map for each batch slowed the benchmark's set-up of degradation
// waves.
const lockTableKeep = 4096

// LockManager grants hierarchical locks with bounded waiting.
type LockManager struct {
	mu    sync.Mutex
	locks map[Resource]*lockState
	// grown is set once locks has held more than lockTableKeep entries
	// since it was made.
	grown bool
	// held lists the resources each transaction holds, in grant order,
	// each once.
	held    map[ID]*[]Resource
	timeout time.Duration
}

// NewLockManager builds a lock manager; timeout bounds every wait
// (default 200ms when zero).
func NewLockManager(timeout time.Duration) *LockManager {
	if timeout <= 0 {
		timeout = 200 * time.Millisecond
	}
	return &LockManager{
		locks:   make(map[Resource]*lockState),
		held:    make(map[ID]*[]Resource),
		timeout: timeout,
	}
}

// Acquire grants mode on res to txn, waiting up to the timeout. Repeat
// and weaker requests are no-ops. An upgrade — txn already holds a
// weaker mode on res — goes ahead of fresh requests, which wait for the
// lock it holds anyway: it is granted as soon as the other holders allow,
// and refused at once when it would wait for an upgrader that waits for
// it.
func (lm *LockManager) Acquire(txn ID, res Resource, mode LockMode) error {
	lm.mu.Lock()
	st := lm.stateLocked(res)
	cur, holds := st.mode(txn)
	if holds && stronger(cur, mode) {
		lm.mu.Unlock()
		return nil
	}
	if lm.grantableLocked(st, txn, mode) && (len(st.queue) == 0 || holds) {
		lm.grantLocked(st, txn, res, mode)
		lm.mu.Unlock()
		return nil
	}
	w := &waiter{txn: txn, mode: mode, granted: make(chan struct{})}
	at := len(st.queue)
	if holds {
		at = 0
		for _, q := range st.queue {
			held, up := st.mode(q.txn)
			if !up {
				break
			}
			if !compatible[cur][q.mode] && !compatible[held][mode] {
				lm.mu.Unlock()
				return fmt.Errorf("%w: %s on %s would deadlock with the upgrade of txn %d", ErrLockTimeout, mode, res, q.txn)
			}
			at++
		}
	}
	st.queue = slices.Insert(st.queue, at, w)
	lm.mu.Unlock()

	timer := time.NewTimer(lm.timeout)
	defer timer.Stop()
	select {
	case <-w.granted:
		return nil
	case <-timer.C:
		lm.mu.Lock()
		// Re-check: the grant may have raced the timer.
		select {
		case <-w.granted:
			lm.mu.Unlock()
			return nil
		default:
		}
		for i, q := range st.queue {
			if q == w {
				st.queue = append(st.queue[:i], st.queue[i+1:]...)
				break
			}
		}
		// Grants are FIFO: the waiters behind this one were parked only
		// because it was ahead of them, so its leaving is a release.
		lm.wakeLocked(st, res)
		lm.dropIdleLocked(st, res)
		lm.mu.Unlock()
		return fmt.Errorf("%w: %s on %s", ErrLockTimeout, mode, res)
	}
}

// TryAcquire grants mode without waiting; ok is false when it would
// block. The degrader uses it to skip row-locked tuples until the next
// tick instead of stalling a whole batch.
func (lm *LockManager) TryAcquire(txn ID, res Resource, mode LockMode) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	st := lm.stateLocked(res)
	if cur, holds := st.mode(txn); holds && stronger(cur, mode) {
		return true
	}
	if len(st.queue) > 0 || !lm.grantableLocked(st, txn, mode) {
		return false
	}
	lm.grantLocked(st, txn, res, mode)
	return true
}

// stateLocked returns res's entry, adding an empty one (pooled) when
// the table has none.
func (lm *LockManager) stateLocked(res Resource) *lockState {
	st, ok := lm.locks[res]
	if !ok {
		st = statePool.Get().(*lockState)
		lm.locks[res] = st
		lm.grown = lm.grown || len(lm.locks) > lockTableKeep
	}
	return st
}

func (lm *LockManager) grantableLocked(st *lockState, txn ID, mode LockMode) bool {
	for _, h := range st.holders {
		if h.txn == txn {
			continue // upgrade: only others matter
		}
		if !compatible[h.mode][mode] {
			return false
		}
	}
	return true
}

func (lm *LockManager) grantLocked(st *lockState, txn ID, res Resource, mode LockMode) {
	for i := range st.holders {
		if h := &st.holders[i]; h.txn == txn {
			if !stronger(h.mode, mode) {
				h.mode = mode
			}
			return // an upgrade: res is on txn's list already
		}
	}
	st.holders = append(st.holders, holder{txn, mode})
	h := lm.held[txn]
	if h == nil {
		h = heldPool.Get().(*[]Resource)
		lm.held[txn] = h
	}
	*h = append(*h, res)
}

// dropHolderLocked takes txn off res's holders, reporting whether it
// held res.
func (lm *LockManager) dropHolderLocked(st *lockState, txn ID) bool {
	i := slices.IndexFunc(st.holders, func(h holder) bool { return h.txn == txn })
	if i < 0 {
		return false
	}
	st.holders = slices.Delete(st.holders, i, i+1)
	return true
}

// Release drops one lock early. Strict two-phase locking only permits
// this for resources whose data the transaction did not use — the
// executor releases rows that failed re-qualification after locking.
func (lm *LockManager) Release(txn ID, res Resource) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	st := lm.locks[res]
	if st == nil || !lm.dropHolderLocked(st, txn) {
		return
	}
	// Early releases are of the rows locked last: search from the end.
	h := lm.held[txn]
	if i := lastIndex(*h, res); i >= 0 {
		*h = slices.Delete(*h, i, i+1)
	}
	if len(*h) == 0 {
		lm.retireHeldLocked(txn, h)
	}
	lm.wakeLocked(st, res)
	lm.dropIdleLocked(st, res)
}

// lastIndex returns the index of the last res in rs, -1 if none.
func lastIndex(rs []Resource, res Resource) int {
	for i := len(rs) - 1; i >= 0; i-- {
		if rs[i] == res {
			return i
		}
	}
	return -1
}

// retireHeldLocked forgets txn's held list, now empty of locks, and
// returns it to the pool.
func (lm *LockManager) retireHeldLocked(txn ID, h *[]Resource) {
	delete(lm.held, txn)
	clear(*h)
	*h = (*h)[:0]
	heldPool.Put(h)
}

// ReleaseAll releases every lock of txn and wakes eligible waiters (the
// end of the two-phase protocol).
func (lm *LockManager) ReleaseAll(txn ID) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	h := lm.held[txn]
	if h == nil {
		return
	}
	for _, res := range *h {
		if st := lm.locks[res]; st != nil && lm.dropHolderLocked(st, txn) {
			lm.wakeLocked(st, res)
			lm.dropIdleLocked(st, res)
		}
	}
	lm.retireHeldLocked(txn, h)
}

// wakeLocked grants queued waiters in FIFO order while compatible.
func (lm *LockManager) wakeLocked(st *lockState, res Resource) {
	for len(st.queue) > 0 {
		w := st.queue[0]
		if !lm.grantableLocked(st, w.txn, w.mode) {
			return
		}
		lm.grantLocked(st, w.txn, res, w.mode)
		close(w.granted)
		st.queue[0] = nil
		st.queue = st.queue[1:]
	}
}

// dropIdleLocked forgets a resource nobody holds or waits for, and
// returns its entry to the pool. The table's last entry takes a map
// that grew past lockTableKeep with it.
func (lm *LockManager) dropIdleLocked(st *lockState, res Resource) {
	if len(st.holders) == 0 && len(st.queue) == 0 {
		delete(lm.locks, res)
		st.queue = nil
		statePool.Put(st)
		if len(lm.locks) == 0 && lm.grown {
			lm.locks, lm.grown = make(map[Resource]*lockState), false
		}
	}
}

// HeldCount returns how many locks txn currently holds (tests, stats).
func (lm *LockManager) HeldCount(txn ID) int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if h := lm.held[txn]; h != nil {
		return len(*h)
	}
	return 0
}
