// Package degrade implements the degradation engine: the component that
// makes LCP transitions actually happen on time (paper §III, "How to
// enforce timely data degradation?"). It keeps, per table, one log of
// tuples in arrival order (insert order equals deadline order under a
// uniform policy), which every (attribute, state) transition queue of
// the table reads through a cursor of its own, and on every tick
// executes due transitions in small batches as system transactions: X
// row locks, one WAL commit batch, physical rewrite with scrubbing,
// index maintenance; the tick ends with log scrubbing (epoch key
// shredding or vacuum) through the Scrubber hook.
// Queues are drained one at a time in (table, attribute, state) order,
// so a transition out of a state never runs while tuples are still on
// their way into it.
//
// Readers holding row locks never block a whole batch: locked tuples are
// skipped and retried on the next tick, trading bounded lag for reader
// latency (experiment B-TXN). Only reads inside explicit read-write
// transactions hold such locks — autocommit SELECTs and read-only
// transactions go through the engine's snapshot path and never delay a
// transition. The snapshot path is also where this engine pins version
// garbage collection to LCP deadlines: a transition's storage apply
// (TableStore.DegradeRun) scrubs the expired accuracy state from every
// retained tuple version at the tick, regardless of open snapshots, so
// MVCC never extends the life of expired data.
package degrade

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"instantdb/internal/catalog"
	"instantdb/internal/lcp"
	"instantdb/internal/metrics"
	"instantdb/internal/storage"
	"instantdb/internal/trace"
	"instantdb/internal/txn"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
	"instantdb/internal/wal"
)

// Committer persists and applies a batch of system-transaction records.
// The engine layer provides it: WAL append (durable), then storage apply
// and index maintenance — the same path user commits take.
type Committer func(recs []*wal.Record) error

// Scrubber performs log degradation once transitions are durable.
type Scrubber interface {
	// Retire runs on every tick for every (table, degradable column,
	// state) that has an outgoing transition: every tuple of tbl inserted
	// before cutoff has durably left state, so log material carrying
	// their values of that state may be destroyed. It is level-triggered
	// — called whether or not the tick moved anything — because the last
	// tuple of a key bucket leaves its state before the bucket has ended,
	// and on a quiet database no later transition would come by to
	// notice that the bucket since has.
	Retire(tbl *catalog.Table, degPos int, state uint8, cutoff time.Time) error
	// Periodic runs once per tick for time-based maintenance (segment
	// vacuum).
	Periodic(now time.Time) error
}

// NopScrubber performs no log degradation (the leaky baseline).
type NopScrubber struct{}

// Retire implements Scrubber.
func (NopScrubber) Retire(*catalog.Table, int, uint8, time.Time) error { return nil }

// Periodic implements Scrubber.
func (NopScrubber) Periodic(time.Time) error { return nil }

// Predicate gates a predicate-triggered transition (paper §IV).
type Predicate func(storage.Tuple) bool

// Options tunes the engine.
type Options struct {
	// BatchSize bounds the tuples one system transaction degrades
	// (default 256): a tick drains every due task of a queue in batches
	// of this size before it moves to the next queue.
	BatchSize int
	// RecheckInterval delays re-examination of tuples whose predicate
	// gate refused the transition or whose row lock was busy
	// (default 1s).
	RecheckInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.RecheckInterval <= 0 {
		o.RecheckInterval = time.Second
	}
	return o
}

// item is a task a batch popped, or one in a queue's retries: a task
// that came due but could not run, gated until notBefore.
type item struct {
	task
	// pos is the task's arrival-log position, -1 for one from a private
	// FIFO or the retries.
	pos       int64
	notBefore int64
	// released marks one an event made due whatever its deadline.
	released bool
	fate     fate
}

// fate is what a batch made of one task. The order is the order settle
// hands a batch's events to the trail in: a queue's transitions are all
// fired or all terminal, so its fired events come in record order, then
// the undegradable erasures, then lock-busy, then predicate-held, then
// failed.
type fate uint8

const (
	pending      fate = iota // popped, not decided yet
	gone                     // the tuple was deleted meanwhile
	stale                    // the tuple is no longer in the queue's from-state
	fired                    // committed; the tuple goes on to the next queue
	terminal                 // committed; the attribute is erased or the tuple deleted
	undegradable             // committed; its domain cannot degrade the stored value, so it is erased
	lockBusy                 // a reader holds the row lock: retried
	held                     // the predicate gate refused it: retried
	failed                   // its batch failed: retried
)

// undegradableDetail is the audit detail of an undegradable erasure.
const undegradableDetail = "erased: its domain cannot degrade the stored value"

// queueKey identifies a transition queue.
type queueKey struct {
	table uint32
	// attr is the degradable column position, or -1 for the tuple
	// deletion queue.
	attr int
	// state is the LCP state the transition leaves (unused for delete).
	state uint8
}

// transQueue holds the tuples awaiting one transition: the stretch of
// its table's arrival log between its cursor and the end of its range,
// plus a private FIFO for what cannot follow arrival order, plus the
// tasks waiting out a retry gate.
type transQueue struct {
	tbl *catalog.Table
	// attr is the degradable column position, -1 for the tuple deletion.
	attr int
	// ageNano is the deadline age of this transition from insert.
	ageNano int64
	// For attribute transitions:
	pol       *lcp.Policy
	fromState int
	toState   int // -1 = erased (terminal suppress/delete of the attr)
	trigger   lcp.TriggerKind
	event     string
	predicate string
	isDelete  bool
	// col is attr's column position in the rows, name its name ("" for
	// the deletion), firedDetail the audit detail of a transition out of
	// this queue ("state 0→1", "erased", "tuple-delete").
	col               int
	name, firedDetail string

	log *arrivalLog
	cur cursor
	// settled is where cur stood when the last batch popped from the range
	// was settled: every log task before it has left this queue for good,
	// fired in order into the next range or marked a hole.
	settled int64
	// prev is the queue of the state before this one: where it settled
	// ends this queue's range (nil for a first state and the tuple
	// deletion, whose range ends at the log's tail). next is the queue of
	// the state after, which the tuples fired from this one enter (nil
	// when none waits).
	prev, next *transQueue
	// live counts the tasks of the range that are not holes.
	live int
	// private holds, in stamp order, the tuples that entered this state out
	// of arrival order: fired from the previous state's retries, advanced
	// by a replicated batch, or found out of order by Reseed.
	private taskFIFO
	retries []item
	// eventEnd: the log tasks before it were in range when the event last
	// fired, and are due regardless of deadlines; eventNano is that
	// instant.
	eventEnd  int64
	eventNano int64
}

// end returns the log position this queue's range ends at. Caller holds
// e.mu.
func (q *transQueue) end() int64 {
	if q.prev == nil {
		return q.log.tail
	}
	return q.prev.settled
}

// peek returns the oldest task of the range, skipping the holes in front
// of it. Caller holds e.mu.
func (q *transQueue) peek() (task, bool) {
	l, end, start := q.log, q.end(), q.cur.pos
	for q.cur.pos < end && l.hole(q.cur.pos, q.attr) {
		l.advance(&q.cur)
	}
	if q.cur.pos != start {
		l.release()
	}
	if q.cur.pos == end {
		return task{}, false
	}
	t, _ := l.head(&q.cur)
	return t, true
}

// Stats aggregates engine activity. It is a point-in-time snapshot of
// the same atomics the metrics registry reads at collect time —
// production scrapes and tests observe identical numbers.
type Stats struct {
	Transitions   uint64
	Erasures      uint64
	Deletions     uint64
	Batches       uint64
	LockSkips     uint64
	PredicateHold uint64
	// MaxLag is the worst (execution time - deadline) yet.
	MaxLag time.Duration
	// Pending counts pending transitions: a tuple once per transition it
	// awaits.
	Pending int
}

// counters is the engine's activity bookkeeping: plain atomics so both
// Stats() and collect-time metric callbacks read them without touching
// the queue mutex.
type counters struct {
	transitions   atomic.Uint64
	erasures      atomic.Uint64
	deletions     atomic.Uint64
	batches       atomic.Uint64
	lockSkips     atomic.Uint64
	predicateHold atomic.Uint64
	maxLagNano    atomic.Int64
	failures      atomic.Uint64
}

// Engine schedules and executes LCP transitions.
type Engine struct {
	// tickMu serializes ticks (the background loop and DegradeNow may
	// race): Retire's cutoff is computed from the queues, and a task
	// another tick has popped but not yet committed is in none of them.
	tickMu sync.Mutex
	mu     sync.Mutex
	clock  vclock.Clock
	cat    *catalog.Catalog
	mgr    *storage.Manager
	locks  *txn.LockManager
	ids    *txn.IDSource
	apply  Committer
	scrub  Scrubber
	opts   Options

	queues map[queueKey]*transQueue
	logs   map[uint32]*arrivalLog
	preds  map[string]Predicate
	ctr    counters
	// lateness is instantdb_degrade_lateness_seconds{table,attr}, set by
	// Instrument (nil observes nothing).
	lateness *metrics.HistogramVec
	// audit is the tamper-evident degradation trail (nil drops events);
	// attached by SetAudit after construction so the engine layer can
	// wire it without recovery replay re-auditing reseeded queues.
	audit *trace.Audit

	stop chan struct{}
	done chan struct{}
}

// New builds an engine. commit must be non-nil; scrub may be nil for no
// log scrubbing.
func New(clock vclock.Clock, cat *catalog.Catalog, mgr *storage.Manager,
	locks *txn.LockManager, ids *txn.IDSource, commit Committer, scrub Scrubber, opts Options) *Engine {
	if scrub == nil {
		scrub = NopScrubber{}
	}
	return &Engine{
		clock:  clock,
		cat:    cat,
		mgr:    mgr,
		locks:  locks,
		ids:    ids,
		apply:  commit,
		scrub:  scrub,
		opts:   opts.withDefaults(),
		queues: make(map[queueKey]*transQueue),
		logs:   make(map[uint32]*arrivalLog),
		preds:  make(map[string]Predicate),
	}
}

// SetAudit attaches the degradation audit trail: scheduled, fired,
// retried and external-transition events append to it from now on.
// Attach before ticking starts; a nil trail (the default) drops events.
func (e *Engine) SetAudit(a *trace.Audit) {
	e.mu.Lock()
	e.audit = a
	e.mu.Unlock()
}

// RegisterPredicate binds a named predicate used by TriggerPredicate
// states. Unregistered predicates default to true (transition proceeds).
func (e *Engine) RegisterPredicate(name string, p Predicate) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.preds[name] = p
}

// newQueue builds the queue of a transition, nil when the state has no
// outgoing one (the final state of a Remain policy).
func newQueue(tbl *catalog.Table, attr int, state uint8) *transQueue {
	q := &transQueue{tbl: tbl, attr: attr}
	if attr == -1 {
		age, _ := tbl.TupleLCP().DeleteAge()
		q.ageNano = int64(age)
		q.isDelete, q.firedDetail = true, "tuple-delete"
		return q
	}
	q.col = tbl.DegradableColumns()[attr]
	pol := tbl.Columns[q.col].Policy
	q.pol, q.name = pol, tbl.Columns[q.col].Name
	q.fromState = int(state)
	age, ok := pol.DeadlineFromInsert(int(state))
	if !ok {
		return nil
	}
	q.ageNano = int64(age)
	if int(state) == pol.StateCount()-1 {
		q.toState, q.firedDetail = -1, "erased" // terminal: suppress / awaiting delete
	} else {
		q.toState = int(state) + 1
		q.firedDetail = fmt.Sprintf("state %d\u2192%d", q.fromState, q.toState)
	}
	st := pol.StateAt(int(state))
	q.trigger = st.Trigger
	q.event = st.Event
	q.predicate = st.Predicate
	return q
}

// logFor returns (creating if needed) tbl's arrival log, with a queue
// reading it for every transition of the table: each degradable column's
// chain of states, then the tuple deletion. Caller holds e.mu.
func (e *Engine) logFor(tbl *catalog.Table) *arrivalLog {
	if l, ok := e.logs[tbl.ID]; ok {
		return l
	}
	l := &arrivalLog{nattrs: len(tbl.DegradableColumns())}
	add := func(q *transQueue, state uint8) {
		q.log = l
		l.readers = append(l.readers, q)
		e.queues[queueKey{table: tbl.ID, attr: q.attr, state: state}] = q
	}
	if tl := tbl.TupleLCP(); tl != nil {
		for attr, col := range tbl.DegradableColumns() {
			var prev *transQueue
			for state := 0; state < tbl.Columns[col].Policy.StateCount(); state++ {
				q := newQueue(tbl, attr, uint8(state))
				if q == nil {
					break
				}
				if q.prev = prev; prev != nil {
					prev.next = q
				}
				add(q, uint8(state))
				prev = q
			}
		}
		if _, ok := tl.DeleteAge(); ok {
			add(newQueue(tbl, -1, 0), 0)
		}
	}
	e.logs[tbl.ID] = l
	return l
}

// OnInsertRun appends freshly inserted tuples of tbl to its arrival log,
// once each, under one hold of the queue lock — every queue of a first
// transition sees them from there — and hands their scheduled events to
// the trail in one call, built as it takes them. Call after the inserts
// commit.
func (e *Engine) OnInsertRun(tbl *catalog.Table, tups []storage.Tuple) {
	if tbl.TupleLCP() == nil || len(tups) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	l := e.logFor(tbl)
	// The queues of the tuples' first transitions: one per degradable
	// column, then the tuple deletion.
	var qs [catalog.MaxDegradableColumns + 1]*transQueue
	n := 0
	for _, q := range l.readers {
		if q.prev == nil {
			qs[n] = q
			n++
			q.live += len(tups)
		}
	}
	if n == 0 {
		return
	}
	for i := range tups {
		l.push(task{tid: tups[i].ID, insertNano: tups[i].InsertedAt.UnixNano()})
	}
	// Queue-major: every tuple's event of one queue, then the next queue's,
	// so the trail stores each queue's share as one run.
	e.audit.AppendN(len(tups)*n, func(k int) trace.Event {
		t, q := &tups[k%len(tups)], qs[k/len(tups)]
		nano := t.InsertedAt.UnixNano()
		ev := trace.Event{Kind: trace.EvScheduled, UnixNano: nano,
			Table: tbl.Name, Tuple: uint64(t.ID), Attr: q.name, Deadline: nano + q.ageNano}
		if q.isDelete {
			ev.Detail = "tuple-delete"
		}
		return ev
	})
}

// OnExternalTransition registers the follow-up transition of a tuple
// whose attribute was just advanced to newState by an externally
// committed degrade record — a replicated leader batch applying on a
// follower. The follower's own tick then fires the NEXT transition at
// its deadline even if the leader never ships it (partition), which is
// the autonomous-clock rule. Terminal states need no follow-up. A task
// already enqueued for the same transition is harmless: the batch
// executor re-checks the tuple's current state under its row lock and
// skips stale tasks, so duplicates are no-ops.
func (e *Engine) OnExternalTransition(tbl *catalog.Table, tid storage.TupleID, attr int, newState uint8, insertNano int64) {
	if newState == storage.StateErased {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.logFor(tbl)
	q := e.queues[queueKey{table: tbl.ID, attr: attr, state: newState}]
	if q == nil {
		return
	}
	// The tuple did not get here along its arrival log, so it waits in the
	// private FIFO, kept in deadline (= insert) order: catch-up after a
	// partition can deliver transitions for tuples older than the queue
	// tail, and an out-of-order tail would delay them behind newer heads.
	q.private.insertSorted(task{tid: tid, insertNano: insertNano})
	e.audit.Append(trace.Event{Kind: trace.EvExternal,
		UnixNano: e.clock.Now().UTC().UnixNano(),
		Table:    tbl.Name, Tuple: uint64(tid), Attr: q.name,
		Detail:   fmt.Sprintf("replicated to state %d; follow-up scheduled", newState),
		Deadline: insertNano + q.ageNano})
}

// Reseed rebuilds all queues from the current storage state — the
// recovery path. scan must hand add every live tuple of every table
// once: the engine layer feeds it from the same pass over the pages that
// rebuilds its indexes. Existing queue content is discarded.
//
// Each table's arrival log is built once, in stamp order, and each
// column's cursors are placed where its states change along it: the
// cursor of state s after every tuple further along than s. A tuple out
// of that monotone order is a hole for the column's cursors and waits in
// the private FIFO of the state it is in.
func (e *Engine) Reseed(scan func(add func(*catalog.Table, *storage.Tuple)) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queues = make(map[queueKey]*transQueue)
	e.logs = make(map[uint32]*arrivalLog)
	type seed struct {
		tbl    *catalog.Table
		tasks  []task
		states []uint8 // every tuple's state per degradable column, row by row
	}
	var order []uint32
	seeds := make(map[uint32]*seed)
	err := scan(func(tbl *catalog.Table, t *storage.Tuple) {
		if tbl.TupleLCP() == nil {
			return
		}
		sd := seeds[tbl.ID]
		if sd == nil {
			sd = &seed{tbl: tbl}
			seeds[tbl.ID] = sd
			order = append(order, tbl.ID)
		}
		sd.tasks = append(sd.tasks, task{tid: t.ID, insertNano: t.InsertedAt.UnixNano()})
		sd.states = append(sd.states, t.States...)
	})
	if err != nil {
		return err
	}
	for _, id := range order {
		sd := seeds[id]
		e.seedLog(sd.tbl, sd.tasks, sd.states)
	}
	return nil
}

// seedLog builds tbl's arrival log from its tuples' tasks and states
// (len(tbl.DegradableColumns()) per tuple) and places every cursor.
// Caller holds e.mu.
func (e *Engine) seedLog(tbl *catalog.Table, tasks []task, states []uint8) {
	na := len(tbl.DegradableColumns())
	perm := make([]int32, len(tasks))
	for i := range perm {
		perm[i] = int32(i)
	}
	// A scan that meets the tuples in insert order — an append-only table
	// read page by page — needs no sort.
	if !slices.IsSortedFunc(tasks, func(a, b task) int { return cmp.Compare(a.insertNano, b.insertNano) }) {
		slices.SortStableFunc(perm, func(a, b int32) int { return cmp.Compare(tasks[a].insertNano, tasks[b].insertNano) })
	}
	l := e.logFor(tbl)
	if len(l.readers) == 0 {
		return
	}
	for _, k := range perm {
		l.push(tasks[k])
	}
	n := int64(len(tasks))
	for _, q := range l.readers {
		if q.isDelete {
			q.live = len(tasks)
			continue
		}
		if q.prev != nil {
			continue
		}
		// The column's chain, q the first of it; a tuple in a state past
		// the chain (erased, or a final state without an outgoing
		// transition) reads as len(chain).
		var chain []*transQueue
		for c := q; c != nil; c = c.next {
			chain = append(chain, c)
		}
		m := len(chain)
		stateOf := func(i int64) int {
			st := int(states[int(perm[i])*na+q.attr])
			if st == int(storage.StateErased) || st >= m {
				return m
			}
			return st
		}
		// bound[s] is where state s's cursor goes: after every tuple further
		// along than s.
		bound := make([]int64, m)
		for i := int64(0); i < n; i++ {
			for s := range stateOf(i) {
				bound[s]++
			}
		}
		for s, c := range chain {
			c.cur = l.cursorAt(bound[s])
			c.settled = bound[s]
		}
		for i := int64(0); i < n; i++ {
			zone := m // the range i lies in: the first state whose cursor is at or before it
			for s := 0; s < m; s++ {
				if bound[s] <= i {
					zone = s
					break
				}
			}
			st := stateOf(i)
			switch {
			case st == zone:
				if zone < m {
					chain[zone].live++
				}
			default:
				if zone < m {
					l.setHole(i, q.attr)
				}
				if st < m {
					chain[st].private.push(tasks[perm[i]])
				}
			}
		}
	}
}

// FireEvent makes every event-triggered transition waiting on name due
// immediately (paper §IV: transitions caused by events): exactly the
// tuples its queues hold at this instant, not those that arrive later.
// The transitions execute on the next Tick.
func (e *Engine) FireEvent(name string) {
	nowNano := e.clock.Now().UTC().UnixNano()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, q := range e.queues {
		if q.trigger != lcp.TriggerEvent || q.event != name {
			continue
		}
		q.eventEnd, q.eventNano = q.end(), nowNano
		for i := range q.retries {
			q.retries[i].released = true
		}
		q.private.each(func(t task) { q.retries = append(q.retries, item{task: t, pos: -1, released: true}) })
		q.private = taskFIFO{}
	}
}

// DropTable discards every queue of a dropped table.
func (e *Engine) DropTable(tableID uint32) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for k := range e.queues {
		if k.table == tableID {
			delete(e.queues, k)
		}
	}
	delete(e.logs, tableID)
}

// Stats returns a snapshot of engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Transitions:   e.ctr.transitions.Load(),
		Erasures:      e.ctr.erasures.Load(),
		Deletions:     e.ctr.deletions.Load(),
		Batches:       e.ctr.batches.Load(),
		LockSkips:     e.ctr.lockSkips.Load(),
		PredicateHold: e.ctr.predicateHold.Load(),
		MaxLag:        time.Duration(e.ctr.maxLagNano.Load()),
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, q := range e.queues {
		s.Pending += q.pending()
	}
	return s
}

// Lag returns the current degradation lag at instant now: how far past
// its deadline the oldest still-pending transition is (zero when every
// queued tuple's deadline lies in the future, or nothing is queued).
// This is the system's headline SLO — the paper's guarantee is exactly
// "lag stays ~0" — and it intentionally uses raw deadlines, ignoring
// retry gates: a tuple waiting out a lock-busy recheck is still late.
func (e *Engine) Lag(now time.Time) time.Duration {
	nowNano := now.UTC().UnixNano()
	e.mu.Lock()
	defer e.mu.Unlock()
	var worst int64
	for _, q := range e.queues {
		if l := q.lagNano(nowNano); l > worst {
			worst = l
		}
	}
	return time.Duration(worst)
}

// pending counts the tasks the queue holds. Caller holds e.mu.
func (q *transQueue) pending() int { return q.live + q.private.len() + len(q.retries) }

// heads calls yield with the stamp of the oldest task of the range, of
// the private FIFO, and of every retry: the tasks whose deadlines bound
// the queue's lag and its state's retirement. Caller holds e.mu.
func (q *transQueue) heads(yield func(insertNano int64)) {
	if t, ok := q.peek(); ok {
		yield(t.insertNano)
	}
	if t, ok := q.private.peek(); ok {
		yield(t.insertNano)
	}
	for _, t := range q.retries {
		yield(t.insertNano)
	}
}

// lagNano returns the queue's lag at nowNano (0 if nothing overdue).
// The range and the private FIFO are deadline-ordered so their heads are
// the oldest; retries lost their order and are scanned. Caller holds
// e.mu.
func (q *transQueue) lagNano(nowNano int64) int64 {
	var worst int64
	q.heads(func(insertNano int64) {
		worst = max(worst, nowNano-(insertNano+q.ageNano))
	})
	return worst
}

// queueBytes returns the heap the queues hold: every arrival log once,
// and every private FIFO.
func (e *Engine) queueBytes() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, l := range e.logs {
		n += l.bytes()
	}
	for _, q := range e.queues {
		n += q.private.bytes()
	}
	return n
}

// Instrument registers the engine's observability surface on reg: the
// headline instantdb_degrade_lag_seconds gauge, queue depths, per-table
// breakdowns, the activity counters Stats() reports, and the lateness
// histogram. Everything but the histogram is collect-time — scrapes read
// the atomics and queue state the engine already maintains; the
// histogram costs one allocation-free observe per fired transition.
func (e *Engine) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("instantdb_degrade_lag_seconds",
		"Degradation lag: seconds past deadline of the oldest pending transition (0 = guarantee holding).",
		func() float64 { return e.Lag(e.clock.Now()).Seconds() })
	reg.GaugeFunc("instantdb_degrade_queue_depth",
		"Pending degradation transitions across all queues: a tuple counts once per transition it awaits.",
		func() float64 { return float64(e.Stats().Pending) })
	reg.GaugeFunc("instantdb_degrade_queue_bytes",
		"Heap bytes held by the degradation queues: each table's arrival log once, with its hole bitmaps, plus every queue's private FIFO.",
		func() float64 { return float64(e.queueBytes()) })
	reg.GaugeFuncVec("instantdb_degrade_table_lag_seconds",
		"Degradation lag per table (seconds past the oldest overdue deadline).", "table",
		func(emit func(string, float64)) {
			nowNano := e.clock.Now().UTC().UnixNano()
			e.mu.Lock()
			defer e.mu.Unlock()
			worst := make(map[string]int64)
			for _, q := range e.queues {
				worst[q.tbl.Name] = max(worst[q.tbl.Name], q.lagNano(nowNano))
			}
			for name, l := range worst {
				emit(name, time.Duration(l).Seconds())
			}
		})
	reg.GaugeFuncVec("instantdb_degrade_table_queue_depth",
		"Pending degradation transitions, per table: a tuple counts once per transition it awaits.", "table",
		func(emit func(string, float64)) {
			e.mu.Lock()
			defer e.mu.Unlock()
			depth := make(map[string]int)
			for _, q := range e.queues {
				depth[q.tbl.Name] += q.pending()
			}
			for name, n := range depth {
				emit(name, float64(n))
			}
		})
	reg.CounterFunc("instantdb_degrade_transitions_total",
		"Attribute degradation transitions committed.",
		func() float64 { return float64(e.ctr.transitions.Load()) })
	reg.CounterFunc("instantdb_degrade_erasures_total",
		"Transitions that erased an attribute (terminal state).",
		func() float64 { return float64(e.ctr.erasures.Load()) })
	reg.CounterFunc("instantdb_degrade_deletions_total",
		"Whole-tuple deletions committed at their LCP delete deadline.",
		func() float64 { return float64(e.ctr.deletions.Load()) })
	reg.CounterFunc("instantdb_degrade_batches_total",
		"Degradation system-transaction batches committed.",
		func() float64 { return float64(e.ctr.batches.Load()) })
	reg.CounterFunc("instantdb_degrade_lock_skips_total",
		"Due tuples skipped because a reader held their row lock (retried next tick).",
		func() float64 { return float64(e.ctr.lockSkips.Load()) })
	reg.CounterFunc("instantdb_degrade_predicate_holds_total",
		"Due tuples held back by a false predicate gate (retried next tick).",
		func() float64 { return float64(e.ctr.predicateHold.Load()) })
	reg.CounterFunc("instantdb_degrade_failures_total",
		"Degradation batches that failed and committed nothing (table lock, read, commit), whose tasks are retried with their deadlines, plus stored values their domain could not degrade, erased at their deadlines instead.",
		func() float64 { return float64(e.ctr.failures.Load()) })
	reg.GaugeFunc("instantdb_degrade_max_lag_seconds",
		"Worst (execution time - deadline) ever observed for a committed transition.",
		func() float64 { return time.Duration(e.ctr.maxLagNano.Load()).Seconds() })
	e.lateness = reg.HistogramVec("instantdb_degrade_lateness_seconds",
		"Seconds each committed transition fired past its deadline, by table and attribute (attr empty for tuple deletions).",
		"table,attr", LatenessBuckets)
}

// LatenessBuckets are the bounds, in seconds, of
// instantdb_degrade_lateness_seconds: from a tick's own delay on a
// keeping-up degrader to a day of downtime.
var LatenessBuckets = []float64{0.01, 0.1, 1, 10, 60, 300, 1800, 3600, 6 * 3600, 24 * 3600}

// Tick executes every transition due at the clock's current instant,
// then lets the scrubber retire what no tuple needs any more. It returns
// the tuples degraded or deleted and the first failed batch or task.
func (e *Engine) Tick() (total int, failed error) {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	now := e.clock.Now()
	for retired := false; ; {
		n, err := e.tickOnce(now)
		total += n
		failed = cmp.Or(failed, err)
		if n > 0 {
			continue
		}
		if retired {
			break
		}
		// Nothing more is due. Retiring costs a few fsyncs, so the tick
		// looks once more afterwards: it ends on a pass that found
		// nothing, whatever committed meanwhile with an older insert time.
		// A failed batch does not hold retiring up: its tasks wait as
		// retries, which hold their states' cutoffs back as any task does.
		if err := e.retire(now); err != nil {
			return total, fmt.Errorf("degrade: scrub: %w", err)
		}
		retired = true
	}
	if err := e.scrub.Periodic(now); err != nil {
		return total, err
	}
	return total, failed
}

// retire hands the scrubber, for every state with an outgoing
// transition, the insert time before which no tuple is in that state
// any more: the transition's deadline age behind now, held back to the
// oldest tuple still queued for it or for an earlier state — a
// lock-skipped or predicate-held tuple keeps its key. Every table's
// queues are created with its log, so a state every tuple left before
// the last restart is still visited.
func (e *Engine) retire(now time.Time) error {
	type retirement struct {
		tbl    *catalog.Table
		attr   int
		state  uint8
		cutoff int64
	}
	var rs []retirement
	nowNano := now.UTC().UnixNano()
	tables := e.cat.Tables()
	e.mu.Lock()
	for _, tbl := range tables {
		if tbl.TupleLCP() == nil {
			continue
		}
		for _, q := range e.logFor(tbl).readers {
			if q.prev != nil || q.isDelete {
				continue
			}
			// oldest runs over this state's queue and every earlier one: a
			// tuple still on its way into the state will be sealed under
			// the state's key when it gets there.
			oldest := int64(math.MaxInt64)
			for state := 0; q != nil; state, q = state+1, q.next {
				q.heads(func(insertNano int64) { oldest = min(oldest, insertNano) })
				rs = append(rs, retirement{tbl, q.attr, uint8(state), min(nowNano-q.ageNano, oldest)})
			}
		}
	}
	e.mu.Unlock()
	for _, r := range rs {
		if err := e.scrub.Retire(r.tbl, r.attr, r.state, time.Unix(0, r.cutoff)); err != nil {
			return err
		}
	}
	return nil
}

// tickOnce drains every queue's due tasks, one queue at a time in
// (table, attr, state) order, deletions last. A queue is exhausted
// before the next one starts: when several batches of tuples cross two
// deadlines in one tick, every tuple's first transition — sealed under
// the next state's epoch key — commits before any second transition
// could leave that state. Follow-ups land in queues this pass may
// already be past; Tick calls again until nothing is due, and only then
// lets the scrubber retire keys.
func (e *Engine) tickOnce(now time.Time) (total int, failed error) {
	e.mu.Lock()
	keys := e.queueOrder()
	e.mu.Unlock()
	nowNano := now.UTC().UnixNano()
	for _, k := range keys {
		for b := e.pop(k, nowNano); b != nil; b = e.pop(k, nowNano) {
			e.lock(b)
			e.read(b)
			b.compute()
			e.commit(b)
			n, err := e.settle(b)
			total += n
			failed = cmp.Or(failed, err)
			// A failure ends the queue's share of the pass, so a failing
			// disk is not handed the whole backlog; the other queues go on,
			// and Tick passes again while anything commits.
			if err != nil {
				break
			}
		}
	}
	return total, failed
}

// queueOrder returns the queue keys in the deterministic order ticks
// drain them: attribute transitions by (table, attr, state), deletions
// last so attributes are settled first. Caller holds e.mu.
func (e *Engine) queueOrder() []queueKey {
	keys := make([]queueKey, 0, len(e.queues))
	for k := range e.queues {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		ad, bd := a.attr == -1, b.attr == -1
		if ad != bd {
			return !ad
		}
		if a.table != b.table {
			return a.table < b.table
		}
		if a.attr != b.attr {
			return a.attr < b.attr
		}
		return a.state < b.state
	})
	return keys
}

// Pending is one transition a queue holds for a tuple.
type Pending struct {
	Table string
	// Attr is the degradable column position, -1 for the tuple deletion.
	Attr int
	// State is the LCP state the transition leaves.
	State    uint8
	Tuple    storage.TupleID
	Deadline time.Time
}

// Backlog lists every pending transition: queues in the order ticks
// drain them, within a queue its stretch of the arrival log first, then
// its private FIFO, then the tasks waiting out a retry gate.
func (e *Engine) Backlog() []Pending {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Pending
	for _, k := range e.queueOrder() {
		q := e.queues[k]
		add := func(t task) {
			out = append(out, Pending{Table: q.tbl.Name, Attr: k.attr, State: k.state, Tuple: t.tid,
				Deadline: time.Unix(0, t.insertNano+q.ageNano).UTC()})
		}
		q.log.each(q.cur, q.end(), q.attr, add)
		q.private.each(add)
		for _, r := range q.retries {
			add(r.task)
		}
	}
	return out
}

// batch is one system transaction's worth of a queue's due tasks, taken
// through pop, lock, read, compute, commit and settle in that order.
// Every task carries its fate; recs holds the records of those that
// fire, in task order. err is the failure that ended the batch: the
// stages after it do nothing, and nothing commits.
type batch struct {
	q     *transQueue
	now   int64
	pred  Predicate
	items []item
	sys   txn.ID
	// tups (for a deletion or a predicate) or cells hold what read found
	// of the locked tasks' tuples, in task order.
	tups  []storage.Tuple
	cells []storage.DegCell
	recs  []*wal.Record
	err   error
}

// pop collects up to BatchSize due tasks of queue key into a batch:
// retries whose gate has passed, then the private FIFO's head, then the
// range's. The cursor moves past what it hands out; settle decides
// where it goes. pop returns nil when nothing is due.
func (e *Engine) pop(key queueKey, nowNano int64) *batch {
	e.mu.Lock()
	defer e.mu.Unlock()
	q := e.queues[key]
	if q == nil {
		return nil
	}
	var due []item
	keep := q.retries[:0]
	for _, t := range q.retries {
		if len(due) < e.opts.BatchSize && t.notBefore <= nowNano &&
			(t.released || t.insertNano+q.ageNano <= nowNano) {
			due = append(due, t)
		} else {
			keep = append(keep, t)
		}
	}
	q.retries = keep
	for len(due) < e.opts.BatchSize {
		t, ok := q.private.peek()
		if !ok || t.insertNano+q.ageNano > nowNano {
			break
		}
		due = append(due, item{task: t, pos: -1})
		q.private.pop()
	}
	for len(due) < e.opts.BatchSize {
		t, ok := q.peek()
		released := q.cur.pos < q.eventEnd
		if !ok || (!released && t.insertNano+q.ageNano > nowNano) {
			break
		}
		due = append(due, item{task: t, pos: q.cur.pos, released: released})
		q.live--
		q.log.advance(&q.cur)
	}
	q.log.release()
	if len(due) == 0 {
		return nil
	}
	b := &batch{q: q, now: nowNano, items: due, sys: e.ids.Next()}
	if q.predicate != "" {
		b.pred = e.preds[q.predicate]
	}
	return b
}

// lock takes the table's IX lock, then the X lock of every task's row
// that it can have without waiting: a row a reader holds is lock-busy.
func (e *Engine) lock(b *batch) {
	tbl := b.q.tbl
	if err := e.locks.Acquire(b.sys, txn.TableRes(tbl.ID), txn.LockIX); err != nil {
		b.err = fmt.Errorf("degrade: lock table %s: %w", tbl.Name, err)
		return
	}
	for i := range b.items {
		if !e.locks.TryAcquire(b.sys, txn.RowRes(tbl.ID, b.items[i].tid), txn.LockX) {
			b.items[i].fate = lockBusy
		}
	}
}

// read fetches the locked tasks' tuples together, each heap page once.
// An attribute transition without a predicate needs only the attribute:
// its state and stored form.
func (e *Engine) read(b *batch) {
	if b.err != nil {
		return
	}
	ids := make([]storage.TupleID, 0, len(b.items))
	for _, it := range b.items {
		if it.fate == pending {
			ids = append(ids, it.tid)
		}
	}
	ts := e.mgr.Table(b.q.tbl)
	var err error
	if b.q.isDelete || b.pred != nil {
		b.tups, err = ts.GetMany(ids)
	} else {
		b.cells, err = ts.DegradableMany(ids, b.q.attr)
	}
	if err != nil {
		b.err = fmt.Errorf("degrade: read batch: %w", err)
	}
}

// compute decides the fate of every locked task from what read found of
// its tuple, and builds the record of each that fires. A value its
// domain cannot degrade is erased at its deadline: degrading early is the
// one direction that is always safe, and retrying would keep the expired
// state readable for good.
func (b *batch) compute() {
	if b.err != nil {
		return
	}
	q := b.q
	k := -1 // the task's index in tups or cells
	for i := range b.items {
		it := &b.items[i]
		if it.fate != pending {
			continue
		}
		k++
		var cell storage.DegCell
		if b.tups == nil {
			cell = b.cells[k]
		} else if cell.ID = b.tups[k].ID; cell.ID != 0 && !q.isDelete {
			cell.State, cell.Stored = b.tups[k].States[q.attr], b.tups[k].Row[q.col]
		}
		switch {
		case cell.ID == 0:
			it.fate = gone
		case b.pred != nil && !b.pred(b.tups[k]):
			it.fate = held
		case q.isDelete:
			it.fate = terminal
			b.recs = append(b.recs, &wal.Record{Type: wal.RecDelete, Table: q.tbl.ID, Tuple: it.tid,
				InsertNano: it.insertNano})
		case int(cell.State) != q.fromState:
			it.fate = stale
		default:
			rec := &wal.Record{Type: wal.RecDegrade, Table: q.tbl.ID, Tuple: it.tid, InsertNano: it.insertNano,
				DegPos: uint8(q.attr), NewState: storage.StateErased, NewStored: value.Null()}
			it.fate = terminal
			if q.toState != -1 {
				next, err := q.tbl.Columns[q.col].Domain.Degrade(cell.Stored, q.pol.LevelOf(q.fromState), q.pol.LevelOf(q.toState))
				if err != nil {
					it.fate = undegradable
				} else {
					it.fate, rec.NewState, rec.NewStored = fired, uint8(q.toState), next
				}
			}
			b.recs = append(b.recs, rec)
		}
	}
}

// commit persists and applies the batch's records.
func (e *Engine) commit(b *batch) {
	if b.err != nil || len(b.recs) == 0 {
		return
	}
	if err := e.apply(b.recs); err != nil {
		b.err = fmt.Errorf("degrade: commit batch: %w", err)
	}
}

// settle releases the batch's locks and is where its fates take effect.
// A batch that failed committed nothing, and the one failure rule
// applies: every task whose tuple is still there — not gone, not stale —
// is retried with its deadline. Under e.mu, settle requeues the
// retries, hands what fired to the next queue, makes every log task
// that did not fire in order a hole for the cursors behind, bumps the
// counters and observes lateness; then it hands the events to the
// trail. It returns the transitions committed and the batch's failure.
// An undegradable erasure counts as a failure, once: it committed.
func (e *Engine) settle(b *batch) (int, error) {
	e.locks.ReleaseAll(b.sys)
	q := b.q
	n, failures := len(b.recs), uint64(0)
	for i := range b.items {
		switch it := &b.items[i]; {
		case b.err != nil && it.fate != gone && it.fate != stale:
			it.fate = failed
		case it.fate == undegradable:
			failures++
		}
	}
	if b.err != nil {
		n, failures = 0, 1
	}
	// In fate order the events come out in the order the trail takes them,
	// and the retries queue up lock-busy first.
	slices.SortStableFunc(b.items, func(x, y item) int { return cmp.Compare(x.fate, y.fate) })

	if n > 0 {
		e.ctr.batches.Add(1)
	}
	e.ctr.failures.Add(failures)
	// Lateness is observed per fired transition into the queue's (table,
	// attr) series, resolved once for the batch.
	late := e.lateness.With(q.tbl.Name, q.name)
	evs := b.items
	at := b.now + int64(e.opts.RecheckInterval)
	e.mu.Lock()
	q.settled = q.cur.pos
	for i, it := range b.items {
		if nq := q.next; nq != nil {
			switch {
			case it.fate == fired && it.pos >= 0:
				nq.live++ // already the newest task of the next state's range
			case it.fate == fired:
				nq.private.insertSorted(it.task)
			case it.pos >= 0:
				q.log.setHole(it.pos, q.attr)
			}
		}
		if it.fate >= lockBusy {
			q.retries = append(q.retries, item{task: it.task, pos: -1, notBefore: at, released: it.released})
		}
		switch it.fate {
		case gone, stale:
			evs = b.items[i+1:]
		case fired, terminal, undegradable:
			switch {
			case q.isDelete:
				e.ctr.deletions.Add(1)
			case it.fate != fired:
				e.ctr.transitions.Add(1)
				e.ctr.erasures.Add(1)
			default:
				e.ctr.transitions.Add(1)
			}
			lag := b.now - (it.insertNano + q.ageNano)
			late.Observe(time.Duration(max(lag, 0)))
			if lag > e.ctr.maxLagNano.Load() { // settle, under e.mu, is its one writer
				e.ctr.maxLagNano.Store(lag)
			}
		case lockBusy:
			e.ctr.lockSkips.Add(1)
		case held:
			e.ctr.predicateHold.Add(1)
		}
	}
	aud := e.audit
	e.mu.Unlock()
	// The batch's events go to the trail in one call. The fired events
	// are its core evidence: identity plus deadline-vs-actual, the
	// timeliness delta the paper claims.
	aud.AppendN(len(evs), func(i int) trace.Event {
		it := &evs[i]
		ev := trace.Event{Kind: trace.EvRetried, UnixNano: b.now, Table: q.tbl.Name, Tuple: uint64(it.tid),
			Attr: q.name, Deadline: it.insertNano + q.ageNano, Actual: b.now}
		switch it.fate {
		case fired, terminal:
			ev.Kind, ev.Detail = trace.EvFired, q.firedDetail
		case undegradable:
			ev.Kind, ev.Detail = trace.EvFired, undegradableDetail
		case lockBusy:
			ev.Detail = "row lock busy"
		case held:
			ev.Detail = "predicate held"
		default:
			ev.Detail = b.err.Error()
		}
		return ev
	})
	return n, b.err
}

// NextDeadline returns the earliest pending transition deadline, ok=false
// when nothing is queued. Simulation harnesses use it to advance virtual
// time exactly to the next event.
func (e *Engine) NextDeadline() (time.Time, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var best int64
	found := false
	at := func(d int64) {
		if !found || d < best {
			best, found = d, true
		}
	}
	for _, q := range e.queues {
		// A task an event released is due from the instant it fired.
		released := func(deadline int64) int64 { return min(deadline, q.eventNano) }
		if t, ok := q.peek(); ok {
			if d := t.insertNano + q.ageNano; q.cur.pos < q.eventEnd {
				at(released(d))
			} else {
				at(d)
			}
		}
		if t, ok := q.private.peek(); ok {
			at(t.insertNano + q.ageNano)
		}
		for _, t := range q.retries {
			d := t.insertNano + q.ageNano
			if t.released {
				d = released(d)
			}
			at(max(d, t.notBefore))
		}
	}
	if !found {
		return time.Time{}, false
	}
	return time.Unix(0, best).UTC(), true
}

// Run ticks the engine every interval until Stop. Use with wall clocks;
// simulations call Tick directly.
func (e *Engine) Run(interval time.Duration) {
	e.mu.Lock()
	if e.stop != nil {
		e.mu.Unlock()
		return
	}
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	stop, done := e.stop, e.done
	e.mu.Unlock()
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				e.Tick() //nolint:errcheck // background loop; instantdb_degrade_failures_total counts failures
			}
		}
	}()
}

// Stop halts the background loop started by Run.
func (e *Engine) Stop() {
	e.mu.Lock()
	stop, done := e.stop, e.done
	e.stop, e.done = nil, nil
	e.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
