package txn

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// lockModel is the lock table as maps, following the rules Acquire,
// TryAcquire, Release and ReleaseAll document: what LockManager must do.
type lockModel struct {
	holders map[Resource]map[ID]LockMode
	queue   map[Resource][]modelReq
	// waiting maps each transaction with a queued Acquire to its resource.
	waiting map[ID]Resource
	// granted collects the queued requests the last operation granted.
	granted []ID
}

type modelReq struct {
	txn  ID
	mode LockMode
}

func newLockModel() *lockModel {
	return &lockModel{
		holders: make(map[Resource]map[ID]LockMode),
		queue:   make(map[Resource][]modelReq),
		waiting: make(map[ID]Resource),
	}
}

// acquireOutcome is what Acquire does with a request at once.
type acquireOutcome int

const (
	outGranted acquireOutcome = iota
	outRefused                // the upgrade deadlock
	outQueued
)

// grantable: every other holder's mode is compatible with mode.
func (m *lockModel) grantable(res Resource, txn ID, mode LockMode) bool {
	for h, held := range m.holders[res] {
		if h != txn && !compatible[held][mode] {
			return false
		}
	}
	return true
}

// plan returns what Acquire does with the request and, when it queues,
// where: repeats and weaker requests are granted; a grantable request is
// granted unless others wait and it is no upgrade; an upgrade queues
// behind the upgrades already queued, and is refused when one of them
// waits for its lock while it waits for theirs; a fresh request queues
// last.
func (m *lockModel) plan(txn ID, res Resource, mode LockMode) (acquireOutcome, int) {
	q := m.queue[res]
	cur, holds := m.holders[res][txn]
	switch {
	case holds && stronger(cur, mode):
		return outGranted, 0
	case m.grantable(res, txn, mode) && (len(q) == 0 || holds):
		return outGranted, 0
	case !holds:
		return outQueued, len(q)
	}
	at := 0
	for _, r := range q {
		held, up := m.holders[res][r.txn]
		if !up {
			break
		}
		if !compatible[cur][r.mode] && !compatible[held][mode] {
			return outRefused, 0
		}
		at++
	}
	return outQueued, at
}

func (m *lockModel) grant(txn ID, res Resource, mode LockMode) {
	h := m.holders[res]
	if h == nil {
		h = make(map[ID]LockMode)
		m.holders[res] = h
	}
	if cur, ok := h[txn]; !ok || !stronger(cur, mode) {
		h[txn] = mode
	}
}

func (m *lockModel) acquire(txn ID, res Resource, mode LockMode) acquireOutcome {
	out, at := m.plan(txn, res, mode)
	switch out {
	case outGranted:
		m.grant(txn, res, mode)
	case outQueued:
		m.queue[res] = slices.Insert(m.queue[res], at, modelReq{txn, mode})
		m.waiting[txn] = res
	}
	return out
}

func (m *lockModel) tryAcquire(txn ID, res Resource, mode LockMode) bool {
	if cur, holds := m.holders[res][txn]; holds && stronger(cur, mode) {
		return true
	}
	if len(m.queue[res]) > 0 || !m.grantable(res, txn, mode) {
		return false
	}
	m.grant(txn, res, mode)
	return true
}

// wake grants queued requests in FIFO order while the head is grantable.
func (m *lockModel) wake(res Resource) {
	for q := m.queue[res]; len(q) > 0 && m.grantable(res, q[0].txn, q[0].mode); q = m.queue[res] {
		m.grant(q[0].txn, res, q[0].mode)
		delete(m.waiting, q[0].txn)
		m.granted = append(m.granted, q[0].txn)
		m.queue[res] = q[1:]
	}
}

func (m *lockModel) release(txn ID, res Resource) {
	if _, ok := m.holders[res][txn]; ok {
		delete(m.holders[res], txn)
		m.wake(res)
	}
}

func (m *lockModel) releaseAll(txn ID) {
	for res, h := range m.holders {
		if _, ok := h[txn]; ok {
			delete(h, txn)
			m.wake(res)
		}
	}
}

// waitsFor reports whether txn waits, directly or through other waiting
// transactions, for target: a queued request waits for every other
// holder of its resource and every request queued ahead of it.
func (m *lockModel) waitsFor(txn, target ID, seen map[ID]bool) bool {
	res, ok := m.waiting[txn]
	if !ok || seen[txn] {
		return false
	}
	seen[txn] = true
	var next []ID
	for h := range m.holders[res] {
		next = append(next, h)
	}
	for _, r := range m.queue[res] {
		if r.txn == txn {
			break
		}
		next = append(next, r.txn)
	}
	for _, n := range next {
		if n != txn && (n == target || m.waitsFor(n, target, seen)) {
			return true
		}
	}
	return false
}

// closesCycle reports whether queueing txn's request on res at position
// at would leave requests waiting for each other — a deadlock only the
// timeout resolves, which the interpreter does not issue.
func (m *lockModel) closesCycle(txn ID, res Resource, at int) bool {
	var ahead []ID
	for h := range m.holders[res] {
		if h != txn {
			ahead = append(ahead, h)
		}
	}
	for _, r := range m.queue[res][:at] {
		ahead = append(ahead, r.txn)
	}
	return slices.ContainsFunc(ahead, func(a ID) bool { return m.waitsFor(a, txn, map[ID]bool{}) })
}

// checkAgainst compares the lock manager's table with the model: every
// resource's holders and queue, and every transaction's held list.
func (m *lockModel) checkAgainst(lm *LockManager) error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	want := make(map[ID][]Resource)
	for res, h := range m.holders {
		for txn := range h {
			want[txn] = append(want[txn], res)
		}
		st := lm.locks[res]
		if len(h) == 0 && len(m.queue[res]) == 0 {
			if st != nil {
				return fmt.Errorf("%s: idle, but the table holds an entry", res)
			}
			continue
		}
		if st == nil {
			return fmt.Errorf("%s: no entry, model holders %v queue %v", res, h, m.queue[res])
		}
		got := make(map[ID]LockMode)
		for _, x := range st.holders {
			got[x.txn] = x.mode
		}
		if len(got) != len(st.holders) || !maps.Equal(got, h) {
			return fmt.Errorf("%s: holders %v, model %v", res, st.holders, h)
		}
		var q []modelReq
		for _, w := range st.queue {
			q = append(q, modelReq{w.txn, w.mode})
		}
		if !slices.Equal(q, m.queue[res]) {
			return fmt.Errorf("%s: queue %v, model %v", res, q, m.queue[res])
		}
	}
	if len(lm.locks) > len(m.holders) {
		return fmt.Errorf("the table holds %d entries, the model %d", len(lm.locks), len(m.holders))
	}
	for txn, h := range lm.held {
		if !sameSet(*h, want[txn]) {
			return fmt.Errorf("txn %d holds %v, model %v", txn, *h, want[txn])
		}
	}
	for txn := range want {
		if lm.held[txn] == nil {
			return fmt.Errorf("txn %d holds nothing, model %v", txn, want[txn])
		}
	}
	return nil
}

func sameSet(a, b []Resource) bool {
	if len(a) != len(b) {
		return false
	}
	for _, r := range a {
		if !slices.Contains(b, r) {
			return false
		}
	}
	return true
}

// modelResources are the resources the interpreter locks: two tables
// and rows of both.
var modelResources = []Resource{TableRes(1), RowRes(1, 1), RowRes(1, 2), TableRes(2), RowRes(2, 1)}

// waitTimeout bounds every wait of runLockOps on the lock manager; no
// grant it expects takes anywhere near as long.
const waitTimeout = 10 * time.Second

// runLockOps interprets ops as a stream of lock operations of four
// transactions on modelResources, applies each to a LockManager and to
// the model, and compares them after every step. An operation is two
// bytes: the first picks the call (low three bits: 0, 1, 2 and 7
// Acquire, 3 and 4 TryAcquire, 5 Release, 6 ReleaseAll) and the
// transaction (next two bits), the second the resource (its value mod 5)
// and the mode (bits 3–4). An Acquire the model queues runs in a
// goroutine until the model says it is granted; operations of a
// transaction whose Acquire waits, and Acquires that would deadlock, are
// skipped. At the end every transaction releases, and the table must be
// empty.
func runLockOps(ops []byte) error {
	lm := NewLockManager(time.Minute)
	m := newLockModel()
	pending := make(map[ID]chan error)
	arg := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	// settle waits for the Acquires the model just granted to return.
	settle := func() error {
		for _, txn := range m.granted {
			select {
			case err := <-pending[txn]:
				if err != nil {
					return fmt.Errorf("txn %d: queued Acquire: %v, want a grant", txn, err)
				}
			case <-time.After(waitTimeout):
				return fmt.Errorf("txn %d: queued Acquire not granted", txn)
			}
			delete(pending, txn)
		}
		m.granted = m.granted[:0]
		return nil
	}
	for step := 0; len(ops) > 0; step++ {
		op, a := arg(), arg()
		txn := ID(1 + (op>>3)%4)
		res, mode := modelResources[int(a)%len(modelResources)], LockMode((a>>3)%4)
		if _, busy := m.waiting[txn]; busy {
			continue
		}
		var err error
		switch op % 8 {
		case 0, 1, 2, 7:
			out, at := m.plan(txn, res, mode)
			if out == outQueued && m.closesCycle(txn, res, at) {
				continue
			}
			m.acquire(txn, res, mode)
			done := make(chan error, 1)
			go func() { done <- lm.Acquire(txn, res, mode) }()
			if out == outQueued {
				pending[txn] = done
				err = untilQueued(lm, txn, res)
				break
			}
			select {
			case got := <-done:
				switch {
				case out == outGranted && got != nil:
					err = fmt.Errorf("Acquire(%d, %s, %s): %v, want a grant", txn, res, mode, got)
				case out == outRefused && !errors.Is(got, ErrLockTimeout):
					err = fmt.Errorf("Acquire(%d, %s, %s): %v, want the upgrade refused", txn, res, mode, got)
				}
			case <-time.After(waitTimeout):
				err = fmt.Errorf("Acquire(%d, %s, %s) blocked, want an answer at once", txn, res, mode)
			}
		case 3, 4:
			if got, want := lm.TryAcquire(txn, res, mode), m.tryAcquire(txn, res, mode); got != want {
				err = fmt.Errorf("TryAcquire(%d, %s, %s) = %v, model %v", txn, res, mode, got, want)
			}
		case 5:
			lm.Release(txn, res)
			m.release(txn, res)
		case 6:
			lm.ReleaseAll(txn)
			m.releaseAll(txn)
		}
		if err == nil {
			err = settle()
		}
		if err == nil {
			err = m.checkAgainst(lm)
		}
		if err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
	}
	// Release everything: transactions not waiting first, which grants
	// the waiting ones in turn.
	for len(m.waiting) > 0 || len(lm.held) > 0 {
		for txn := ID(1); txn <= 4; txn++ {
			if _, busy := m.waiting[txn]; !busy {
				lm.ReleaseAll(txn)
				m.releaseAll(txn)
				if err := settle(); err != nil {
					return fmt.Errorf("releasing: %w", err)
				}
			}
		}
		if err := m.checkAgainst(lm); err != nil {
			return fmt.Errorf("releasing: %w", err)
		}
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if len(lm.locks) != 0 || len(lm.held) != 0 {
		return fmt.Errorf("after every release the table holds %d entries and %d held lists", len(lm.locks), len(lm.held))
	}
	return nil
}

// untilQueued waits until txn's request waits in res's queue.
func untilQueued(lm *LockManager, txn ID, res Resource) error {
	for deadline := time.Now().Add(waitTimeout); time.Now().Before(deadline); time.Sleep(20 * time.Microsecond) {
		lm.mu.Lock()
		st := lm.locks[res]
		in := st != nil && slices.ContainsFunc(st.queue, func(w *waiter) bool { return w.txn == txn })
		lm.mu.Unlock()
		if in {
			return nil
		}
	}
	return fmt.Errorf("txn %d never queued on %s", txn, res)
}

// TestLockManagerModel drives the lock manager and the model with the
// same random operation stream, one stream per seed; a failure names the
// seed, and -run 'TestLockManagerModel/seed=N' replays it.
func TestLockManagerModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 400)
			rng.Read(ops)
			if err := runLockOps(ops); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzLockManager is the model test with the operation stream chosen by
// the fuzzer.
func FuzzLockManager(f *testing.F) {
	// Two S holders of a row upgrading: the second is refused, and the
	// first is granted once the second releases.
	f.Add([]byte{0, 16, 8, 16, 0, 26, 8, 26, 14, 0, 6, 0})
	// S, S and X requests queued behind an X holder: its release grants
	// both S requests, the X one waits for them.
	f.Add([]byte{0, 26, 8, 16, 16, 16, 24, 26, 6, 0, 14, 0, 22, 0, 30, 0})
	// A table X request behind IX and IS holders, and a TryAcquire S
	// refused while it waits.
	f.Add([]byte{0, 10, 8, 5, 16, 25, 27, 20, 6, 0, 14, 0, 22, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := runLockOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}
