package degrade

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"instantdb/internal/catalog"
	"instantdb/internal/storage"
	"instantdb/internal/txn"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
)

// fifoModel is the queue as a plain slice: what taskFIFO must equal.
type fifoModel []task

func (m *fifoModel) insertSorted(t task) {
	i := len(*m)
	for i > 0 && (*m)[i-1].insertNano > t.insertNano {
		i--
	}
	*m = slices.Insert(*m, i, t)
}

func (m *fifoModel) popWhile(max int, due func(task) bool) []task {
	n := 0
	for n < len(*m) && n < max && due((*m)[n]) {
		n++
	}
	out := slices.Clone((*m)[:n])
	*m = (*m)[n:]
	return out
}

// checkFIFO compares the packed queue with the model task by task and
// holds the chunk invariants: no chunk without a queued task, none left
// in a drained queue, counts adding up.
func checkFIFO(f *taskFIFO, m fifoModel) error {
	if f.len() != len(m) {
		return fmt.Errorf("len %d, model %d", f.len(), len(m))
	}
	head, ok := f.peek()
	if ok != (len(m) > 0) || (ok && head != m[0]) {
		return fmt.Errorf("peek (%+v, %v), model %+v", head, ok, m[:min(1, len(m))])
	}
	i := 0
	var err error
	f.each(func(t task) {
		if err == nil && (i >= len(m) || t != m[i]) {
			err = fmt.Errorf("task %d is %+v, model %+v", i, t, m[min(i, len(m)-1)])
		}
		i++
	})
	if err == nil && i != len(m) {
		err = fmt.Errorf("iterated %d tasks, model holds %d", i, len(m))
	}
	if err != nil {
		return err
	}
	if len(m) == 0 {
		if len(f.chunks) != 0 || f.bytes() != 0 {
			return fmt.Errorf("a drained queue holds %d chunks, %d bytes", len(f.chunks), f.bytes())
		}
		return nil
	}
	if f.last != m[len(m)-1] {
		return fmt.Errorf("last %+v, model %+v", f.last, m[len(m)-1])
	}
	total := -f.idx
	for ci, c := range f.chunks {
		if c.n < 1 || c.n > chunkTasks || (ci == 0 && f.idx >= c.n) {
			return fmt.Errorf("chunk %d holds %d tasks (head at %d)", ci, c.n, f.idx)
		}
		total += c.n
	}
	if total != len(m) {
		return fmt.Errorf("chunks hold %d queued tasks, model %d", total, len(m))
	}
	return nil
}

// runFIFOOps interprets ops as a stream of queue operations, applies
// each to a packed queue and to the model, and compares them after every
// step. An operation is an opcode byte and up to three argument bytes
// (missing ones read as zero).
func runFIFOOps(ops []byte) error {
	var f taskFIFO
	var m fifoModel
	cur := task{tid: 1, insertNano: 1_700_000_000_000_000_000}
	arg := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	always := func(task) bool { return true }
	pop := func(max int, due func(task) bool) error {
		got, want := f.popWhile(nil, max, due), m.popWhile(max, due)
		if !slices.Equal(got, want) {
			return fmt.Errorf("popWhile(%d) returned %d tasks, model %d", max, len(got), len(want))
		}
		return nil
	}
	for step := 0; len(ops) > 0; step++ {
		op := arg()
		var err error
		switch op % 8 {
		case 0, 1, 2: // a run of pushes: ids +1, stamps by mode
			n, mode, d := arg()+1, arg(), int64(arg())
			for i := 0; i < n; i++ {
				cur.tid++
				switch mode % 6 {
				case 0: // one instant
				case 1:
					cur.insertNano += d * 1000
				case 2:
					cur.insertNano += d * 1_000_000
				case 3: // out of stamp order
					cur.insertNano -= d * 1000
				case 4: // far apart, as after a restore or a shard split
					if i == 0 {
						cur.tid += 1 << 40
						cur.insertNano += 1 << 40
					}
				case 5:
					if i == 0 {
						cur.tid -= 1 << 40
						cur.insertNano -= 1 << 40
					}
				}
				f.push(cur)
				m = append(m, cur)
			}
		case 3: // insertSorted next to a queued task's stamp
			at, d := arg()<<8|arg(), int64(arg())-128
			cur.tid++
			t := task{tid: cur.tid, insertNano: cur.insertNano + d}
			if len(m) > 0 {
				t.insertNano = m[at%len(m)].insertNano + d
			}
			f.insertSorted(t)
			m.insertSorted(t)
		case 4: // pop what is due at a queued task's stamp
			max, at := arg(), arg()<<8|arg()
			limit := cur.insertNano
			if len(m) > 0 {
				limit = m[at%len(m)].insertNano
			}
			err = pop(max, func(t task) bool { return t.insertNano <= limit })
		case 5: // pop up to the end of the front chunk, or just short of it
			max := arg() % 2
			if len(f.chunks) > 0 {
				max = f.chunks[0].n - f.idx - max
			}
			err = pop(max, always)
		case 6: // pop whole chunks' worth
			err = pop(chunkTasks*(1+arg()%3), always)
		case 7: // drain
			err = pop(len(m), always)
		}
		if err == nil {
			err = checkFIFO(&f, m)
		}
		if err != nil {
			return fmt.Errorf("step %d (op %d): %w", step, op%8, err)
		}
	}
	return nil
}

// TestTaskFIFOModel drives the packed queue and the slice model with the
// same random operation stream, one stream per seed; a failure names the
// seed, and -run 'TestTaskFIFOModel/seed=N' replays it.
func TestTaskFIFOModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 1200)
			rng.Read(ops)
			if err := runFIFOOps(ops); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzTaskFIFO is the model test with the operation stream chosen by the
// fuzzer.
func FuzzTaskFIFO(f *testing.F) {
	f.Add([]byte{0, 255, 0, 0, 0, 255, 1, 7, 5, 0, 5, 1, 6, 0, 7})
	f.Add([]byte{1, 200, 3, 9, 3, 0, 10, 100, 3, 0, 0, 0, 4, 50, 0, 60})
	f.Add([]byte{2, 10, 4, 0, 2, 10, 5, 0, 3, 0, 5, 128, 0, 255, 0, 0, 3, 0, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := runFIFOOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTaskFIFO: a chunk is let go when the head leaves it, a drained
// queue holds none, and an out-of-order insert repacks one chunk only.
func TestTaskFIFO(t *testing.T) {
	var f taskFIFO
	const n = 4*chunkTasks + 10
	for i := 1; i <= n; i++ {
		f.push(task{tid: storage.TupleID(i), insertNano: int64(i)})
	}
	if len(f.chunks) != 5 || f.len() != n {
		t.Fatalf("%d tasks in %d chunks, want %d in 5", f.len(), len(f.chunks), n)
	}
	// Ids +1 and stamps +1 are one byte each.
	if got := len(f.chunks[1].enc); got != 2*(chunkTasks-1) {
		t.Fatalf("a full chunk of unit steps encodes in %d bytes, want %d", got, 2*(chunkTasks-1))
	}
	always := func(task) bool { return true }
	if got := f.popWhile(nil, chunkTasks-1, always); len(got) != chunkTasks-1 || len(f.chunks) != 5 {
		t.Fatalf("popped %d, %d chunks left, want the front chunk kept for its last task", len(got), len(f.chunks))
	}
	f.popWhile(nil, 1, always)
	if head, _ := f.peek(); len(f.chunks) != 4 || head.tid != chunkTasks+1 {
		t.Fatalf("after the front chunk's last task: %d chunks, head %d", len(f.chunks), head.tid)
	}
	// Only tasks due are popped, in order, up to max.
	got := f.popWhile(nil, 1000, func(t task) bool { return t.insertNano <= chunkTasks+3 })
	if len(got) != 3 || got[0].tid != chunkTasks+1 || got[2].tid != chunkTasks+3 {
		t.Fatalf("popWhile(due) = %v", got)
	}
	// An insert into the third chunk of four leaves the others as they are.
	kept := []*chunk{f.chunks[0], f.chunks[1], f.chunks[3]}
	f.insertSorted(task{tid: 9999, insertNano: 3*chunkTasks + 7})
	if len(f.chunks) != 5 || f.chunks[0] != kept[0] || f.chunks[1] != kept[1] || f.chunks[4] != kept[2] {
		t.Fatalf("insertSorted repacked more than the chunk it landed in (%d chunks)", len(f.chunks))
	}
	var seq []storage.TupleID
	f.each(func(t task) { seq = append(seq, t.tid) })
	at := slices.Index(seq, 9999)
	if at < 1 || seq[at-1] != 3*chunkTasks+7 || seq[at+1] != 3*chunkTasks+8 || len(seq) != f.len() {
		t.Fatalf("insertSorted put the task at %d of %d", at, len(seq))
	}
	f.popWhile(nil, f.len(), always)
	if f.len() != 0 || f.chunks != nil || f.bytes() != 0 {
		t.Fatalf("a drained FIFO keeps %d chunks, %d bytes", len(f.chunks), f.bytes())
	}
}

// Queue budgets: heap bytes per pending tuple at 100 000 tuples of
// consecutive ids, each awaiting three transitions (two degradable
// columns out of state 0, and the tuple deletion): one arrival-log task
// each. 2.34 measured with every stamp the same (a simulated clock
// standing still), 4.35 with stamps 50–500 µs apart. One packed task per
// (tuple, queue) took three times that, 6.9 and 13 B; a slice of
// 16-byte tasks per queue 48 exactly sized, up to twice that grown by
// append.
const (
	queueBudgetStill = 2.6
	queueBudgetWall  = 4.8
)

func heapInUse() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// newWideFixture is newFixture with a second degradable column, home,
// under the same Figure 2 policy: three transitions wait on every tuple.
func newWideFixture(t *testing.T) *fixture {
	t.Helper()
	f := newFixture(t, Options{}, figure2Policy)
	pol := f.tbl.Columns[1].Policy
	tbl, err := f.cat.CreateTable("resident", []catalog.Column{
		{Name: "id", Kind: value.KindInt},
		{Name: "location", Kind: value.KindText, Degradable: true, Domain: f.loc, Policy: pol},
		{Name: "home", Kind: value.KindText, Degradable: true, Domain: f.loc, Policy: pol},
	}, 0, catalog.LayoutMove)
	if err != nil {
		t.Fatal(err)
	}
	f.tbl, f.ts = tbl, f.mgr.Table(tbl)
	return f
}

// TestQueueSizeBudget holds the heap the queues keep per pending tuple
// to the committed budget, pushed live and rebuilt by Reseed, and checks
// that the queue-bytes gauge accounts for that heap.
func TestQueueSizeBudget(t *testing.T) {
	const tuples, transitions = 100_000, 3
	for _, tc := range []struct {
		name   string
		budget float64
		gap    func(*rand.Rand) int64
	}{
		{"still clock", queueBudgetStill, func(*rand.Rand) int64 { return 0 }},
		{"stamps 50-500us apart", queueBudgetWall, func(r *rand.Rand) int64 { return 50_000 + r.Int63n(450_000) }},
	} {
		f := newWideFixture(t)
		// feed hands every tuple's id and insert instant to add, the same
		// sequence on every call.
		feed := func(add func(storage.TupleID, time.Time)) {
			rng := rand.New(rand.NewSource(1))
			at := vclock.Epoch.UnixNano()
			for id := 1; id <= tuples; id++ {
				at += tc.gap(rng)
				add(storage.TupleID(id), time.Unix(0, at))
			}
		}
		measure := func(how string, fill func(*Engine)) {
			before := heapInUse()
			eng := New(f.clock, f.cat, f.mgr, f.locks, &txn.IDSource{}, applier(f.cat, f.mgr), nil, Options{})
			fill(eng)
			heap := heapInUse() - before
			if p := eng.Stats().Pending; p != transitions*tuples {
				t.Fatalf("%s, %s: %d transitions pending, want %d", tc.name, how, p, transitions*tuples)
			}
			gauge := eng.queueBytes()
			per := float64(heap) / tuples
			t.Logf("%s, %s: %.2f B per pending tuple (budget %.1f), gauge %.2f", tc.name, how, per, tc.budget, float64(gauge)/tuples)
			if per > tc.budget {
				t.Errorf("%s, %s: queues keep %.2f B per pending tuple, budget %.1f", tc.name, how, per, tc.budget)
			}
			if g := float64(gauge); g > float64(heap) || g < 0.85*float64(heap) {
				t.Errorf("%s, %s: gauge sums to %d bytes, the heap grew by %d", tc.name, how, gauge, heap)
			}
		}
		measure("pushed live", func(eng *Engine) {
			feed(func(id storage.TupleID, at time.Time) {
				eng.OnInsertRun(f.tbl, []storage.Tuple{{ID: id, InsertedAt: at}})
			})
		})
		measure("reseeded", func(eng *Engine) {
			tup := storage.Tuple{States: []uint8{0, 0}}
			err := eng.Reseed(func(add func(*catalog.Table, *storage.Tuple)) error {
				feed(func(id storage.TupleID, at time.Time) {
					tup.ID, tup.InsertedAt = id, at
					add(f.tbl, &tup)
				})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkTaskFIFO pushes a task and, once a thousand are queued, pops
// one per push: the steady state of a queue between waves.
func BenchmarkTaskFIFO(b *testing.B) {
	var f taskFIFO
	rng := rand.New(rand.NewSource(1))
	at := vclock.Epoch.UnixNano()
	always := func(task) bool { return true }
	due := make([]task, 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at += 50_000 + rng.Int63n(450_000)
		f.push(task{tid: storage.TupleID(i), insertNano: at})
		if f.len() > 1000 {
			due = f.popWhile(due[:0], 1, always)
		}
	}
}
