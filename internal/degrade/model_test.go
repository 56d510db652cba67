package degrade

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"instantdb/internal/catalog"
	"instantdb/internal/gentree"
	"instantdb/internal/lcp"
	"instantdb/internal/storage"
	"instantdb/internal/txn"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
	"instantdb/internal/wal"
)

// The queue model: one interpreter drives the engine, whose queues share
// each table's arrival log, and a reference that keeps one FIFO of its
// own per (attribute, state) queue, with the same operations, and
// compares them after every step.

// firing is one transition the engine committed: attr -1 is the tuple
// deletion.
type firing struct {
	tid  storage.TupleID
	attr int
	from int
}

func compareFirings(a, b firing) int {
	return cmp.Or(cmp.Compare(a.tid, b.tid), cmp.Compare(a.attr, b.attr), cmp.Compare(a.from, b.from))
}

type refTask struct {
	task
	released bool
}

type refRetry struct {
	refTask
	notBefore int64
}

// refQueue is one transition's backlog, held apart from every other's:
// main is in the order tuples arrived along their states, private in
// stamp order, as the engine's private FIFO is.
type refQueue struct {
	key      queueKey
	age      int64
	from, to int // to -1: erased
	event    string
	pred     string
	isDelete bool
	main     []refTask
	private  []refTask
	retries  []refRetry
	next     *refQueue
}

func (q *refQueue) pending() int { return len(q.main) + len(q.private) + len(q.retries) }

// heads calls yield with the stamps of the oldest main and private task
// and of every retry.
func (q *refQueue) heads(yield func(int64)) {
	if len(q.main) > 0 {
		yield(q.main[0].insertNano)
	}
	if len(q.private) > 0 {
		yield(q.private[0].insertNano)
	}
	for _, r := range q.retries {
		yield(r.insertNano)
	}
}

func (q *refQueue) insertPrivate(t refTask) {
	i := len(q.private)
	for i > 0 && q.private[i-1].insertNano > t.insertNano {
		i--
	}
	q.private = slices.Insert(q.private, i, t)
}

type refTuple struct {
	task
	states  []uint8
	deleted bool
}

// reference is the engine's queues with no log shared between them.
type reference struct {
	tbl     *catalog.Table
	queues  []*refQueue // in the order ticks drain them
	tuples  map[storage.TupleID]*refTuple
	recheck int64
}

func newReference(tbl *catalog.Table, recheck time.Duration) *reference {
	r := &reference{tbl: tbl, tuples: make(map[storage.TupleID]*refTuple), recheck: int64(recheck)}
	r.reset()
	return r
}

// reset builds empty queues, one per transition.
func (r *reference) reset() {
	r.queues = nil
	for attr, col := range r.tbl.DegradableColumns() {
		pol := r.tbl.Columns[col].Policy
		var prev *refQueue
		for st := 0; st < pol.StateCount(); st++ {
			age, ok := pol.DeadlineFromInsert(st)
			if !ok {
				break
			}
			q := &refQueue{key: queueKey{r.tbl.ID, attr, uint8(st)}, age: int64(age), from: st, to: st + 1,
				event: pol.StateAt(st).Event, pred: pol.StateAt(st).Predicate}
			if st == pol.StateCount()-1 {
				q.to = -1
			}
			if prev != nil {
				prev.next = q
			}
			r.queues = append(r.queues, q)
			prev = q
		}
	}
	if age, ok := r.tbl.TupleLCP().DeleteAge(); ok {
		r.queues = append(r.queues, &refQueue{key: queueKey{r.tbl.ID, -1, 0}, age: int64(age), isDelete: true})
	}
}

func (r *reference) queue(attr, state int) *refQueue {
	for _, q := range r.queues {
		if q.key.attr == attr && int(q.key.state) == state && !q.isDelete {
			return q
		}
	}
	return nil
}

func (r *reference) insert(tups []storage.Tuple) {
	for _, t := range tups {
		tk := task{tid: t.ID, insertNano: t.InsertedAt.UnixNano()}
		r.tuples[t.ID] = &refTuple{task: tk, states: make([]uint8, len(r.tbl.DegradableColumns()))}
		for _, q := range r.queues {
			if q.key.state == 0 {
				q.main = append(q.main, refTask{task: tk})
			}
		}
	}
}

func (r *reference) fireEvent(name string) {
	for _, q := range r.queues {
		if q.event != name {
			continue
		}
		for i := range q.main {
			q.main[i].released = true
		}
		for i := range q.private {
			q.private[i].released = true
		}
		for i := range q.retries {
			q.retries[i].released = true
		}
	}
}

// external advances a tuple's attribute as a replicated batch does.
func (r *reference) external(tid storage.TupleID, attr int, newState uint8) {
	t := r.tuples[tid]
	t.states[attr] = newState
	if q := r.queue(attr, int(newState)); q != nil {
		q.insertPrivate(refTask{task: t.task})
	}
}

// reseed rebuilds the queues from the tuples in the order a scan meets
// them: each column's tuples in stamp order, and those out of the
// monotone state order along it (an older tuple in an earlier state than
// a newer one) in the private FIFO of the state they are in.
func (r *reference) reseed(scanned []storage.TupleID) {
	r.reset()
	var live []*refTuple
	for _, id := range scanned {
		live = append(live, r.tuples[id])
	}
	slices.SortStableFunc(live, func(a, b *refTuple) int { return cmp.Compare(a.insertNano, b.insertNano) })
	for attr := range r.tbl.DegradableColumns() {
		var chain []*refQueue
		for q := r.queue(attr, 0); q != nil; q = q.next {
			chain = append(chain, q)
		}
		m := len(chain)
		stateOf := func(t *refTuple) int {
			if s := int(t.states[attr]); s < m {
				return s
			}
			return m
		}
		// The state each stretch of the stamp order is in: cut after the
		// tuples further along than each state.
		bound := make([]int, m)
		for _, t := range live {
			for s := range stateOf(t) {
				bound[s]++
			}
		}
		for i, t := range live {
			zone := m
			for s := 0; s < m; s++ {
				if bound[s] <= i {
					zone = s
					break
				}
			}
			switch st := stateOf(t); {
			case st == m:
			case st == zone:
				chain[st].main = append(chain[st].main, refTask{task: t.task})
			default:
				chain[st].private = append(chain[st].private, refTask{task: t.task})
			}
		}
	}
	for _, q := range r.queues {
		if q.isDelete {
			for _, t := range live {
				q.main = append(q.main, refTask{task: t.task})
			}
		}
	}
}

// tick fires everything due at now, queue by queue in the engine's
// order, and returns what fired.
func (r *reference) tick(now int64, locked map[storage.TupleID]bool, gate bool) []firing {
	var fired []firing
	due := func(q *refQueue, t refTask) bool { return t.released || t.insertNano+q.age <= now }
	for _, q := range r.queues {
		type popped struct {
			refTask
			inOrder bool
		}
		var batch []popped
		keep := q.retries[:0]
		for _, t := range q.retries {
			if t.notBefore <= now && due(q, t.refTask) {
				batch = append(batch, popped{t.refTask, false})
			} else {
				keep = append(keep, t)
			}
		}
		q.retries = keep
		var rest []refTask
		for _, t := range q.private {
			if t.released {
				batch = append(batch, popped{t, false})
			} else {
				rest = append(rest, t)
			}
		}
		for len(rest) > 0 && due(q, rest[0]) {
			batch = append(batch, popped{rest[0], false})
			rest = rest[1:]
		}
		q.private = rest
		for len(q.main) > 0 && due(q, q.main[0]) {
			batch = append(batch, popped{q.main[0], true})
			q.main = q.main[1:]
		}
		for _, p := range batch {
			t := r.tuples[p.tid]
			switch {
			case locked[p.tid]:
				q.retries = append(q.retries, refRetry{p.refTask, now + r.recheck})
				continue
			case t.deleted:
				continue
			case q.pred != "" && !gate:
				q.retries = append(q.retries, refRetry{p.refTask, now + r.recheck})
				continue
			case q.isDelete:
				t.deleted = true
				fired = append(fired, firing{p.tid, -1, 0})
				continue
			case int(t.states[q.key.attr]) != q.from:
				continue
			}
			fired = append(fired, firing{p.tid, q.key.attr, q.from})
			if q.to == -1 {
				t.states[q.key.attr] = storage.StateErased
				continue
			}
			t.states[q.key.attr] = uint8(q.to)
			if q.next == nil {
				continue
			}
			if p.inOrder {
				q.next.main = append(q.next.main, refTask{task: p.task})
			} else {
				q.next.insertPrivate(refTask{task: p.task})
			}
		}
	}
	return fired
}

func (r *reference) pending() int {
	n := 0
	for _, q := range r.queues {
		n += q.pending()
	}
	return n
}

func (r *reference) lag(now int64) time.Duration {
	var worst int64
	for _, q := range r.queues {
		q.heads(func(nano int64) { worst = max(worst, now-(nano+q.age)) })
	}
	return time.Duration(worst)
}

// cutoffs returns what retire hands the scrubber for every (column,
// state) with an outgoing transition.
func (r *reference) cutoffs(now int64) map[queueKey]int64 {
	out := make(map[queueKey]int64)
	oldest := make(map[int]int64)
	for _, q := range r.queues {
		if q.isDelete {
			continue
		}
		o, ok := oldest[q.key.attr]
		if !ok {
			o = math.MaxInt64
		}
		q.heads(func(nano int64) { o = min(o, nano) })
		oldest[q.key.attr] = o
		out[q.key] = min(now-q.age, o)
	}
	return out
}

// recordingScrubber keeps the cutoffs of the last retire.
type recordingScrubber struct {
	cutoffs map[queueKey]int64
}

func (s *recordingScrubber) Retire(tbl *catalog.Table, degPos int, state uint8, cutoff time.Time) error {
	s.cutoffs[queueKey{tbl.ID, degPos, state}] = cutoff.UnixNano()
	return nil
}

func (s *recordingScrubber) Periodic(time.Time) error { return nil }

// modelPolicies are the model table's two columns: a goes 0 → 1 at 10
// minutes, 1 → 2 at an event or 1 h 10 m, 2 → erased under a predicate
// at 1 h 40 m, and the tuple is deleted then; b goes 0 → 1 at 20 minutes
// and stays.
func modelPolicies(loc *gentree.Tree) (a, b *lcp.Policy) {
	a = lcp.NewBuilder("a", loc).Hold(0, 10*time.Minute).HoldUntilEvent(1, time.Hour, "ev").
		HoldIf(2, 30*time.Minute, "gate").ThenDelete().MustBuild()
	b = lcp.NewBuilder("b", loc).Hold(0, 20*time.Minute).Hold(2, 40*time.Minute).ThenRemain().MustBuild()
	return a, b
}

// runQueueModel interprets ops as a stream of operations on a table with
// two degradable columns, applies each to the engine and the reference,
// and compares them: after every operation the pending count and the
// lag, after every tick also the transitions fired, that none fired
// before its deadline, and the retire cutoffs. An operation is an opcode
// byte and its argument bytes (missing ones read as zero).
func runQueueModel(ops []byte) error {
	cat := catalog.New()
	loc := gentree.Figure1Locations()
	if err := cat.AddDomain(loc); err != nil {
		return err
	}
	polA, polB := modelPolicies(loc)
	for _, p := range []*lcp.Policy{polA, polB} {
		if err := cat.AddPolicy(p); err != nil {
			return err
		}
	}
	tbl, err := cat.CreateTable("m", []catalog.Column{
		{Name: "id", Kind: value.KindInt},
		{Name: "a", Kind: value.KindText, Degradable: true, Domain: loc, Policy: polA},
		{Name: "b", Kind: value.KindText, Degradable: true, Domain: loc, Policy: polB},
	}, 0, catalog.LayoutMove)
	if err != nil {
		return err
	}
	mgr := storage.NewManager(storage.NewMemStore())
	ts := mgr.Table(tbl)
	clock := vclock.NewSimulated(vclock.Epoch)
	locks := txn.NewLockManager(time.Millisecond)
	const recheck = 3 * time.Minute
	var fired []firing
	apply := applier(cat, mgr)
	commit := func(recs []*wal.Record) error {
		for _, r := range recs {
			f := firing{tid: r.Tuple, attr: -1}
			if r.Type == wal.RecDegrade {
				tup, err := ts.Get(r.Tuple)
				if err != nil {
					return err
				}
				f.attr, f.from = int(r.DegPos), int(tup.States[r.DegPos])
			}
			fired = append(fired, f)
		}
		return apply(recs)
	}
	scrub := &recordingScrubber{cutoffs: make(map[queueKey]int64)}
	eng := New(clock, cat, mgr, locks, &txn.IDSource{}, commit, scrub, Options{BatchSize: 7, RecheckInterval: recheck})
	gate := false
	eng.RegisterPredicate("gate", func(storage.Tuple) bool { return gate })
	ref := newReference(tbl, recheck)
	locked := make(map[storage.TupleID]bool)
	var ids []storage.TupleID
	events := 0
	stored, err := loc.ResolveInsert(value.Text("Dam 1"))
	if err != nil {
		return err
	}

	arg := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	pick := func() (storage.TupleID, bool) {
		if len(ids) == 0 {
			return 0, false
		}
		return ids[(arg()<<8|arg())%len(ids)], true
	}
	for step := 0; len(ops) > 0; step++ {
		op := arg() % 10
		now := clock.Now().UnixNano()
		switch op {
		case 0, 1: // an insert run; its stamps up to 25 ms early, in any order
			tups := make([]storage.Tuple, arg()%6+1)
			for i := range tups {
				at := time.Unix(0, now-int64(arg())*100_000)
				tid, err := ts.Insert([]value.Value{value.Int(int64(len(ids))), stored, stored}, []uint8{0, 0}, at)
				if err != nil {
					return err
				}
				tups[i] = storage.Tuple{ID: tid, InsertedAt: at}
				ids = append(ids, tid)
			}
			eng.OnInsertRun(tbl, tups)
			ref.insert(tups)
		case 2, 3, 4: // advance whole minutes, mostly a few, and tick
			if d := arg(); d < 160 {
				clock.Advance(time.Duration(d%16) * time.Minute)
			} else {
				clock.Advance(time.Duration(d%120) * time.Minute)
			}
			now = clock.Now().UnixNano()
			fired = fired[:0]
			clear(scrub.cutoffs)
			if _, err := eng.Tick(); err != nil {
				return fmt.Errorf("step %d: tick: %w", step, err)
			}
			want := ref.tick(now, locked, gate)
			got := slices.Clone(fired)
			slices.SortFunc(got, compareFirings)
			slices.SortFunc(want, compareFirings)
			if !slices.Equal(got, want) {
				return fmt.Errorf("step %d: the tick fired %v, the reference %v", step, got, want)
			}
			for _, f := range got {
				q := ref.queue(f.attr, f.from)
				if f.attr == -1 {
					q = ref.queues[len(ref.queues)-1]
				}
				if dl := ref.tuples[f.tid].insertNano + q.age; dl > now && (q.event == "" || events == 0) {
					return fmt.Errorf("step %d: %+v fired %v before its deadline", step, f, time.Duration(dl-now))
				}
			}
			if w := ref.cutoffs(now); !maps.Equal(scrub.cutoffs, w) {
				return fmt.Errorf("step %d: retire cutoffs %v, the reference %v", step, scrub.cutoffs, w)
			}
		case 5: // a reader takes or drops a row lock
			tid, ok := pick()
			if !ok {
				break
			}
			reader := txn.ID(1<<40 + uint64(tid))
			if locked[tid] {
				locks.ReleaseAll(reader)
				delete(locked, tid)
			} else if locks.TryAcquire(reader, txn.RowRes(tbl.ID, tid), txn.LockS) {
				locked[tid] = true
			}
		case 6: // the predicate flips
			gate = !gate
		case 7: // the event fires
			eng.FireEvent("ev")
			ref.fireEvent("ev")
			events++
		case 8: // a user delete, or a replicated transition
			tid, ok := pick()
			if !ok || ref.tuples[tid].deleted {
				break
			}
			if attr := arg() % 3; attr == 2 {
				if err := ts.Delete(tid); err != nil {
					return err
				}
				ref.tuples[tid].deleted = true
			} else {
				pol := []*lcp.Policy{polA, polB}[attr]
				st := int(ref.tuples[tid].states[attr])
				if st == int(storage.StateErased) || st+1 >= pol.StateCount() {
					break
				}
				tup, err := ts.Get(tid)
				if err != nil {
					return err
				}
				next, err := loc.Degrade(tup.Row[1+attr], pol.LevelOf(st), pol.LevelOf(st+1))
				if err != nil {
					return err
				}
				if err := ts.DegradeAttr(tid, attr, next, uint8(st+1)); err != nil {
					return err
				}
				eng.OnExternalTransition(tbl, tid, attr, uint8(st+1), ref.tuples[tid].insertNano)
				ref.external(tid, attr, uint8(st+1))
			}
		case 9: // restart: both rebuild from storage
			var scanned []storage.TupleID
			var tups []storage.Tuple
			if err := ts.Scan(func(t storage.Tuple) bool {
				scanned = append(scanned, t.ID)
				tups = append(tups, t)
				return true
			}); err != nil {
				return err
			}
			err := eng.Reseed(func(add func(*catalog.Table, *storage.Tuple)) error {
				for i := range tups {
					add(tbl, &tups[i])
				}
				return nil
			})
			if err != nil {
				return err
			}
			ref.reseed(scanned)
		}
		if p, w := eng.Stats().Pending, ref.pending(); p != w {
			return fmt.Errorf("step %d (op %d): %d pending, the reference %d", step, op, p, w)
		}
		if l, w := eng.Lag(clock.Now()), ref.lag(clock.Now().UnixNano()); l != w {
			return fmt.Errorf("step %d (op %d): lag %v, the reference %v", step, op, l, w)
		}
	}
	return nil
}

// TestQueuesMatchReference drives the engine and the reference with the
// same random operation stream, one stream per seed; a failure names the
// seed, and -run 'TestQueuesMatchReference/seed=N' replays it.
func TestQueuesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 3000)
			rng.Read(ops)
			if err := runQueueModel(ops); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzQueues is the model test with the operation stream chosen by the
// fuzzer.
func FuzzQueues(f *testing.F) {
	f.Add([]byte{0, 5, 1, 2, 3, 4, 5, 2, 10, 2, 60, 7, 2, 0, 2, 30})
	f.Add([]byte{1, 3, 9, 9, 9, 5, 0, 0, 2, 11, 2, 11, 5, 0, 0, 2, 3, 9, 2, 90})
	f.Add([]byte{0, 2, 0, 0, 8, 0, 0, 0, 8, 0, 1, 1, 9, 2, 15, 6, 2, 99, 2, 99})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := runQueueModel(ops); err != nil {
			t.Fatal(err)
		}
	})
}
