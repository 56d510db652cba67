package degrade

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"instantdb/internal/catalog"
	"instantdb/internal/gentree"
	"instantdb/internal/lcp"
	"instantdb/internal/metrics"
	"instantdb/internal/storage"
	"instantdb/internal/trace"
	"instantdb/internal/txn"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
	"instantdb/internal/wal"
)

// applier applies records straight to storage — the minimal Committer.
func applier(cat *catalog.Catalog, mgr *storage.Manager) Committer {
	return func(recs []*wal.Record) error {
		for _, r := range recs {
			tbl, err := cat.TableByID(r.Table)
			if err != nil {
				return err
			}
			ts := mgr.Table(tbl)
			switch r.Type {
			case wal.RecDelete:
				if err := ts.Delete(r.Tuple); err != nil {
					return err
				}
			case wal.RecDegrade:
				if err := ts.DegradeAttr(r.Tuple, int(r.DegPos), r.NewStored, r.NewState); err != nil {
					return err
				}
			default:
				return fmt.Errorf("unexpected record type %d", r.Type)
			}
		}
		return nil
	}
}

type fixture struct {
	cat   *catalog.Catalog
	mgr   *storage.Manager
	tbl   *catalog.Table
	ts    *storage.TableStore
	loc   *gentree.Tree
	clock *vclock.Simulated
	locks *txn.LockManager
	eng   *Engine
}

// newFixture builds a person table under the Figure 2 policy and an
// engine over a simulated clock.
func newFixture(t *testing.T, opts Options, build func(loc *gentree.Tree) *lcp.Policy) *fixture {
	t.Helper()
	return newFixtureOn(t, storage.NewMemStore(), opts, build)
}

// newFixtureOn is newFixture over a given page store.
func newFixtureOn(t *testing.T, store storage.Store, opts Options, build func(loc *gentree.Tree) *lcp.Policy) *fixture {
	t.Helper()
	cat := catalog.New()
	loc := gentree.Figure1Locations()
	if err := cat.AddDomain(loc); err != nil {
		t.Fatal(err)
	}
	pol := build(loc)
	if err := cat.AddPolicy(pol); err != nil {
		t.Fatal(err)
	}
	tbl, err := cat.CreateTable("person", []catalog.Column{
		{Name: "id", Kind: value.KindInt},
		{Name: "location", Kind: value.KindText, Degradable: true, Domain: loc, Policy: pol},
	}, 0, catalog.LayoutMove)
	if err != nil {
		t.Fatal(err)
	}
	mgr := storage.NewManager(store)
	clock := vclock.NewSimulated(vclock.Epoch)
	locks := txn.NewLockManager(20 * time.Millisecond)
	ids := &txn.IDSource{}
	eng := New(clock, cat, mgr, locks, ids, applier(cat, mgr), nil, opts)
	return &fixture{cat: cat, mgr: mgr, tbl: tbl, ts: mgr.Table(tbl), loc: loc,
		clock: clock, locks: locks, eng: eng}
}

func figure2Policy(loc *gentree.Tree) *lcp.Policy { return lcp.Figure2(loc) }

func (f *fixture) insert(t *testing.T, id int64, addr string) storage.TupleID {
	t.Helper()
	stored, err := f.loc.ResolveInsert(value.Text(addr))
	if err != nil {
		t.Fatal(err)
	}
	tid, err := f.ts.Insert([]value.Value{value.Int(id), stored}, []uint8{0}, f.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	f.eng.OnInsertRun(f.tbl, []storage.Tuple{{ID: tid, InsertedAt: f.clock.Now()}})
	return tid
}

func (f *fixture) stateOf(t *testing.T, tid storage.TupleID) (uint8, bool) {
	t.Helper()
	tup, err := f.ts.Get(tid)
	if err != nil {
		return 0, false
	}
	return tup.States[0], true
}

func TestFigure2LifetimeOnSimClock(t *testing.T) {
	f := newFixture(t, Options{}, figure2Policy)
	tid := f.insert(t, 1, "45 avenue des Etats-Unis")

	// At insert the tuple is accurate; the 0-minute state expires on the
	// first tick.
	if n, err := f.eng.Tick(); err != nil || n != 1 {
		t.Fatalf("tick0: n=%d err=%v", n, err)
	}
	if st, ok := f.stateOf(t, tid); !ok || st != 1 {
		t.Fatalf("state=%d want 1 (city)", st)
	}
	// 1 hour: city → region.
	f.clock.Advance(time.Hour)
	if n, _ := f.eng.Tick(); n != 1 {
		t.Fatal("city→region did not fire")
	}
	if st, _ := f.stateOf(t, tid); st != 2 {
		t.Fatalf("state=%d want 2", st)
	}
	// Check the stored value renders as the region.
	tup, _ := f.ts.Get(tid)
	r, err := f.loc.Render(tup.Row[1], 2)
	if err != nil || r.Text() != "Ile-de-France" {
		t.Fatalf("render: %v %v", r, err)
	}
	// +1 day: region → country.
	f.clock.Advance(24 * time.Hour)
	if n, _ := f.eng.Tick(); n != 1 {
		t.Fatal("region→country did not fire")
	}
	// +1 month: terminal — attribute erased and tuple deleted.
	f.clock.Advance(30 * 24 * time.Hour)
	if n, _ := f.eng.Tick(); n < 1 {
		t.Fatal("terminal transitions did not fire")
	}
	if _, ok := f.stateOf(t, tid); ok {
		t.Fatal("tuple survived its Figure 2 horizon")
	}
	st := f.eng.Stats()
	// 3 degradations + the terminal erase at the horizon, then deletion.
	if st.Transitions != 4 || st.Deletions != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Pending != 0 {
		t.Fatalf("pending=%d want 0", st.Pending)
	}
}

func TestNoEarlyFiring(t *testing.T) {
	f := newFixture(t, Options{}, func(loc *gentree.Tree) *lcp.Policy {
		return lcp.NewBuilder("slow", loc).
			Hold(0, time.Hour).Hold(1, time.Hour).ThenSuppress().MustBuild()
	})
	tid := f.insert(t, 1, "Dam 1")
	if n, _ := f.eng.Tick(); n != 0 {
		t.Fatal("transition fired before deadline")
	}
	f.clock.Advance(59 * time.Minute)
	if n, _ := f.eng.Tick(); n != 0 {
		t.Fatal("transition fired 1 minute early")
	}
	f.clock.Advance(time.Minute)
	if n, _ := f.eng.Tick(); n != 1 {
		t.Fatal("transition missed its deadline")
	}
	if st, _ := f.stateOf(t, tid); st != 1 {
		t.Fatalf("state=%d", st)
	}
	// Suppression leaves the tuple, erases the attribute.
	f.clock.Advance(time.Hour)
	if n, _ := f.eng.Tick(); n != 1 {
		t.Fatal("suppression missed")
	}
	tup, err := f.ts.Get(tid)
	if err != nil {
		t.Fatal("suppress must keep the tuple")
	}
	if tup.States[0] != storage.StateErased || !tup.Row[1].IsNull() {
		t.Fatalf("attr not erased: %+v", tup)
	}
}

func TestBatchingAndFIFO(t *testing.T) {
	f := newFixture(t, Options{BatchSize: 10}, func(loc *gentree.Tree) *lcp.Policy {
		return lcp.NewBuilder("p", loc).Hold(0, time.Hour).Hold(3, time.Hour).ThenRemain().MustBuild()
	})
	for i := 0; i < 35; i++ {
		f.insert(t, int64(i), "Dam 1")
		f.clock.Advance(time.Second)
	}
	f.clock.Advance(time.Hour)
	n, err := f.eng.Tick()
	if err != nil {
		t.Fatal(err)
	}
	// Tick loops batches until drained: all 35 fire.
	if n != 35 {
		t.Fatalf("tick degraded %d want 35", n)
	}
	st := f.eng.Stats()
	if st.Batches < 4 {
		t.Fatalf("batches=%d want >=4 given batch size 10", st.Batches)
	}
	// Remain policy: no further transitions ever.
	f.clock.Advance(1000 * time.Hour)
	if n, _ := f.eng.Tick(); n != 0 {
		t.Fatal("Remain policy fired a terminal transition")
	}
	if got := f.ts.Count(); got != 35 {
		t.Fatalf("tuples=%d", got)
	}
}

func TestLagMetrics(t *testing.T) {
	f := newFixture(t, Options{}, func(loc *gentree.Tree) *lcp.Policy {
		return lcp.NewBuilder("p", loc).Hold(0, time.Hour).Hold(1, time.Hour).ThenSuppress().MustBuild()
	})
	f.insert(t, 1, "Dam 1")
	// Tick 30 minutes late.
	f.clock.Advance(90 * time.Minute)
	f.eng.Tick()
	st := f.eng.Stats()
	if st.MaxLag < 30*time.Minute || st.MaxLag > 31*time.Minute {
		t.Fatalf("MaxLag=%v want ~30m", st.MaxLag)
	}
}

// TestLatenessHistogram fires one transition 90 s past its deadline on
// the sim clock: it lands in the (60 s, 300 s] bucket of its (table,
// attr) series, and the observe allocates nothing.
func TestLatenessHistogram(t *testing.T) {
	f := newFixture(t, Options{}, func(loc *gentree.Tree) *lcp.Policy {
		return lcp.NewBuilder("p", loc).Hold(0, time.Hour).Hold(1, time.Hour).ThenSuppress().MustBuild()
	})
	reg := metrics.NewRegistry()
	f.eng.Instrument(reg)
	f.insert(t, 1, "Dam 1")
	f.clock.Advance(time.Hour + 90*time.Second)
	if n, err := f.eng.Tick(); n != 1 || err != nil {
		t.Fatalf("tick fired %d, %v", n, err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`instantdb_degrade_lateness_seconds_bucket{table="person",attr="location",le="60"} 0`,
		`instantdb_degrade_lateness_seconds_bucket{table="person",attr="location",le="300"} 1`,
		`instantdb_degrade_lateness_seconds_sum{table="person",attr="location"} 90`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition lacks %s:\n%s", want, b.String())
		}
	}
	h := f.eng.lateness.With("person", "location")
	if n := testing.AllocsPerRun(100, func() { h.Observe(90 * time.Second) }); n != 0 {
		t.Fatalf("a lateness observe allocates %v times", n)
	}
}

func TestLockedRowSkippedThenRetried(t *testing.T) {
	f := newFixture(t, Options{RecheckInterval: time.Millisecond}, func(loc *gentree.Tree) *lcp.Policy {
		return lcp.NewBuilder("p", loc).Hold(0, time.Hour).Hold(1, 1000*time.Hour).ThenSuppress().MustBuild()
	})
	tid := f.insert(t, 1, "Dam 1")
	// A reader holds a row S lock.
	reader := txn.ID(99999)
	if err := f.locks.Acquire(reader, txn.RowRes(f.tbl.ID, tid), txn.LockS); err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(2 * time.Hour)
	if n, _ := f.eng.Tick(); n != 0 {
		t.Fatal("degraded a locked row")
	}
	st := f.eng.Stats()
	if st.LockSkips == 0 {
		t.Fatal("lock skip not counted")
	}
	if st.Pending != 1 {
		t.Fatalf("pending=%d want 1", st.Pending)
	}
	// Reader commits; next tick succeeds.
	f.locks.ReleaseAll(reader)
	f.clock.Advance(time.Second)
	if n, _ := f.eng.Tick(); n != 1 {
		t.Fatal("retry did not degrade")
	}
	if got, _ := f.stateOf(t, tid); got != 1 {
		t.Fatalf("state=%d", got)
	}
}

// flakyStore fails the next ReadPage once armed.
type flakyStore struct {
	*storage.MemStore
	failNext atomic.Bool
}

func (s *flakyStore) ReadPage(id storage.PageID, buf []byte) error {
	if s.failNext.CompareAndSwap(true, false) {
		return errors.New("injected page read failure")
	}
	return s.MemStore.ReadPage(id, buf)
}

// TestFailedReadKeepsDeadline: a page read that fails while a batch
// reads its tuples is not a deleted tuple. The tick reports it, the task
// stays in the backlog, and the transition fires on the next tick.
func TestFailedReadKeepsDeadline(t *testing.T) {
	store := &flakyStore{MemStore: storage.NewMemStore()}
	f := newFixtureOn(t, store, Options{RecheckInterval: time.Millisecond}, figure2Policy)
	tid := f.insert(t, 1, "45 avenue des Etats-Unis")
	store.failNext.Store(true)
	if n, err := f.eng.Tick(); err == nil || n != 0 {
		t.Fatalf("tick over a failed page read: n=%d err=%v, want 0 and the read error", n, err)
	}
	if st, _ := f.stateOf(t, tid); st != 0 {
		t.Fatalf("state=%d after a failed read, want 0", st)
	}
	if bl := f.eng.Backlog(); len(bl) == 0 || bl[0].Tuple != tid || bl[0].Attr != 0 || bl[0].State != 0 {
		t.Fatalf("backlog after a failed read = %+v, want the tuple's state-0 task first", bl)
	}
	f.clock.Advance(time.Millisecond)
	if n, err := f.eng.Tick(); err != nil || n != 1 {
		t.Fatalf("next tick: n=%d err=%v, want 1 transition", n, err)
	}
	if st, _ := f.stateOf(t, tid); st != 1 {
		t.Fatalf("state=%d after the retry, want 1", st)
	}
}

// TestUndegradableCellIsErased: a stored cell its domain cannot degrade
// is erased at its deadline — degrading early is the one direction that
// is always safe — in the batch it was popped with, beside the valid
// tuple that degrades. The erasure is counted once as a failure and
// audited once, as a fired event with a fixed detail; later ticks neither
// meet it again nor report it, and nothing is overdue.
func TestUndegradableCellIsErased(t *testing.T) {
	f := newFixture(t, Options{RecheckInterval: time.Millisecond}, figure2Policy)
	aud, err := trace.OpenAudit("")
	if err != nil {
		t.Fatal(err)
	}
	f.eng.SetAudit(aud)
	bad, err := f.ts.Insert([]value.Value{value.Int(1), value.Int(5)}, []uint8{0}, f.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	f.eng.OnInsertRun(f.tbl, []storage.Tuple{{ID: bad, InsertedAt: f.clock.Now()}})
	good := f.insert(t, 2, "45 avenue des Etats-Unis")
	f.clock.Advance(2 * time.Hour)
	for tick := 1; tick <= 2; tick++ {
		if _, err := f.eng.Tick(); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		// Figure 2 degrades state 0 at insert and state 1 an hour later.
		if st, _ := f.stateOf(t, good); st != 2 {
			t.Fatalf("tick %d: the valid tuple is in state %d, want 2", tick, st)
		}
		tup, err := f.ts.Get(bad)
		if err != nil || tup.States[0] != storage.StateErased || !tup.Row[1].IsNull() {
			t.Fatalf("tick %d: the undegradable cell is %+v (err %v), want it erased", tick, tup, err)
		}
		if lag := f.eng.Lag(f.clock.Now()); lag != 0 {
			t.Fatalf("tick %d: lag %v, want 0", tick, lag)
		}
		if n := f.eng.ctr.failures.Load(); n != 1 {
			t.Fatalf("tick %d: %d failures counted, want 1", tick, n)
		}
		var evs []trace.Event
		for _, ev := range aud.Tail(0) {
			if ev.Tuple == uint64(bad) && ev.Kind != trace.EvScheduled {
				evs = append(evs, ev)
			}
		}
		if len(evs) != 1 || evs[0].Kind != trace.EvFired || evs[0].Detail != undegradableDetail ||
			evs[0].Deadline != vclock.Epoch.UnixNano() {
			t.Fatalf("tick %d: the undegradable tuple's events %+v, want one fired event with detail %q", tick, evs, undegradableDetail)
		}
		f.clock.Advance(time.Millisecond)
	}
	if st := f.eng.Stats(); st.Erasures != 1 {
		t.Fatalf("%d erasures counted, want 1", st.Erasures)
	}
}

// TestFailedCommitKeepsDeadline: a batch whose table lock or commit
// fails commits nothing, and every task it popped — from a retry, from
// the private FIFO and from the arrival log — is retried with its
// deadline. No transition is counted and no fired event written until
// the next tick fires them all.
func TestFailedCommitKeepsDeadline(t *testing.T) {
	f := newFixture(t, Options{RecheckInterval: time.Millisecond}, func(loc *gentree.Tree) *lcp.Policy {
		return lcp.NewBuilder("p", loc).Hold(0, time.Hour).Hold(1, time.Hour).Hold(2, 1000*time.Hour).ThenSuppress().MustBuild()
	})
	var failCommit atomic.Bool
	apply := applier(f.cat, f.mgr)
	f.eng = New(f.clock, f.cat, f.mgr, f.locks, &txn.IDSource{}, func(recs []*wal.Record) error {
		if failCommit.CompareAndSwap(true, false) {
			return errors.New("injected commit failure")
		}
		return apply(recs)
	}, nil, Options{RecheckInterval: time.Millisecond})
	aud, err := trace.OpenAudit("")
	if err != nil {
		t.Fatal(err)
	}
	f.eng.SetAudit(aud)

	// retried waits in the state-1 queue's retries, logged in its range,
	// private in its private FIFO: all three come due at 2h30m.
	retried := f.insert(t, 1, "Dam 1")
	f.clock.Advance(30 * time.Minute)
	logged := f.insert(t, 2, "Dam 1")
	private := f.insert(t, 3, "Dam 1")
	tup, err := f.ts.Get(private)
	if err != nil {
		t.Fatal(err)
	}
	pol := f.tbl.Columns[1].Policy
	next, err := f.loc.Degrade(tup.Row[1], pol.LevelOf(0), pol.LevelOf(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ts.DegradeAttr(private, 0, next, 1); err != nil {
		t.Fatal(err)
	}
	f.eng.OnExternalTransition(f.tbl, private, 0, 1, tup.InsertedAt.UnixNano())
	f.clock.Advance(time.Hour)
	if n, err := f.eng.Tick(); err != nil || n != 2 {
		t.Fatalf("state-0 tick: n=%d err=%v, want 2", n, err)
	}
	reader := txn.ID(99999)
	if err := f.locks.Acquire(reader, txn.RowRes(f.tbl.ID, retried), txn.LockS); err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(30 * time.Minute)
	if n, err := f.eng.Tick(); err != nil || n != 0 {
		t.Fatalf("tick under the reader's lock: n=%d err=%v, want 0", n, err)
	}
	f.locks.ReleaseAll(reader)
	f.clock.Advance(30 * time.Minute)

	// inState1 checks the state-1 queue's backlog: its range, then its
	// private FIFO, then its retries in the order they were popped.
	inState1 := func(stage string, want ...storage.TupleID) {
		t.Helper()
		var got []storage.TupleID
		for _, p := range f.eng.Backlog() {
			if p.Attr == 0 && p.State == 1 {
				got = append(got, p.Tuple)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s the state-1 queue holds %v, want %v", stage, got, want)
		}
		if lag := f.eng.Lag(f.clock.Now()); lag < 30*time.Minute {
			t.Fatalf("%s lag %v, want the retried task's 30m and more", stage, lag)
		}
	}
	inState1("before the failures", logged, private, retried)
	before := f.eng.Stats().Transitions
	ddl := txn.ID(88888)
	if err := f.locks.Acquire(ddl, txn.TableRes(f.tbl.ID), txn.LockX); err != nil {
		t.Fatal(err)
	}
	for i, stage := range []string{"a table lock held by DDL", "a failed commit"} {
		n, err := f.eng.Tick()
		if err == nil || n != 0 {
			t.Fatalf("tick over %s: n=%d err=%v, want 0 and the error", stage, n, err)
		}
		inState1("after "+stage, retried, private, logged)
		if st := f.eng.Stats(); st.Transitions != before || f.eng.ctr.failures.Load() != uint64(i+1) {
			t.Fatalf("after %s: %d transitions (want %d), %d failures (want %d)",
				stage, st.Transitions, before, f.eng.ctr.failures.Load(), i+1)
		}
		evs := aud.Tail(3)
		for _, ev := range evs {
			if ev.Kind != trace.EvRetried || ev.Detail != err.Error() {
				t.Fatalf("after %s: events %+v, want three retried events carrying the error", stage, evs)
			}
		}
		f.locks.ReleaseAll(ddl)
		failCommit.Store(true)
		f.clock.Advance(time.Millisecond)
	}
	failCommit.Store(false)
	if n, err := f.eng.Tick(); err != nil || n != 3 {
		t.Fatalf("tick after the failures: n=%d err=%v, want 3", n, err)
	}
	for _, tid := range []storage.TupleID{retried, logged, private} {
		if st, _ := f.stateOf(t, tid); st != 2 {
			t.Fatalf("tuple %d in state %d, want 2", tid, st)
		}
	}
	if bl := f.eng.Backlog(); len(bl) != 3 || bl[0].State != 2 {
		t.Fatalf("backlog %+v, want the three tuples waiting in state 2", bl)
	}
}

func TestEventTrigger(t *testing.T) {
	f := newFixture(t, Options{}, func(loc *gentree.Tree) *lcp.Policy {
		return lcp.NewBuilder("p", loc).
			HoldUntilEvent(0, 100*time.Hour, "consent-withdrawn").
			Hold(1, time.Hour).ThenSuppress().MustBuild()
	})
	tid := f.insert(t, 1, "Dam 1")
	// Long before the time deadline, nothing fires.
	f.clock.Advance(time.Hour)
	if n, _ := f.eng.Tick(); n != 0 {
		t.Fatal("event state fired early")
	}
	// The event makes it due immediately.
	f.eng.FireEvent("consent-withdrawn")
	if n, _ := f.eng.Tick(); n != 1 {
		t.Fatal("event did not trigger transition")
	}
	if st, _ := f.stateOf(t, tid); st != 1 {
		t.Fatalf("state=%d", st)
	}
	// Unknown events are ignored.
	f.eng.FireEvent("nothing-waits-on-this")
	if n, _ := f.eng.Tick(); n != 0 {
		t.Fatal("spurious transition")
	}
}

// TestEventReleasesOnlyWaitingTuples: an event releases exactly the
// tuples its queue holds when it fires, whenever the tick that executes
// it comes; a tuple that arrives later waits for its own deadline, and
// one a reader's row lock held back stays released until it fires.
func TestEventReleasesOnlyWaitingTuples(t *testing.T) {
	eventPolicy := func(loc *gentree.Tree) *lcp.Policy {
		return lcp.NewBuilder("p", loc).
			HoldUntilEvent(0, 100*time.Hour, "ev").
			Hold(1, time.Hour).ThenSuppress().MustBuild()
	}
	for _, tickAfterEvent := range []bool{false, true} {
		f := newFixture(t, Options{}, eventPolicy)
		t1 := f.insert(t, 1, "Dam 1")
		f.eng.FireEvent("ev")
		if tickAfterEvent {
			if n, _ := f.eng.Tick(); n != 1 {
				t.Fatalf("tick after the event: %d transitions, want 1", n)
			}
		}
		t2 := f.insert(t, 2, "Dam 1")
		f.eng.Tick()
		if st, _ := f.stateOf(t, t1); st != 1 {
			t.Errorf("tick right after the event %v: the waiting tuple is in state %d, want 1", tickAfterEvent, st)
		}
		if st, _ := f.stateOf(t, t2); st != 0 {
			t.Errorf("tick right after the event %v: the tuple inserted after it is in state %d, want 0", tickAfterEvent, st)
		}
	}

	f := newFixture(t, Options{RecheckInterval: time.Minute}, eventPolicy)
	t1 := f.insert(t, 1, "Dam 1")
	t2 := f.insert(t, 2, "Dam 1")
	reader := txn.ID(99999)
	if err := f.locks.Acquire(reader, txn.RowRes(f.tbl.ID, t1), txn.LockS); err != nil {
		t.Fatal(err)
	}
	f.eng.FireEvent("ev")
	if n, _ := f.eng.Tick(); n != 1 {
		t.Fatalf("tick after the event: %d transitions, want 1 (the unlocked tuple)", n)
	}
	t3 := f.insert(t, 3, "Dam 1")
	f.clock.Advance(time.Minute)
	if n, _ := f.eng.Tick(); n != 0 {
		t.Fatalf("tick while the reader holds its lock: %d transitions, want 0", n)
	}
	f.locks.ReleaseAll(reader)
	f.clock.Advance(time.Minute)
	if n, _ := f.eng.Tick(); n != 1 {
		t.Fatalf("tick after the reader let go: %d transitions, want 1", n)
	}
	for _, c := range []struct {
		tid  storage.TupleID
		want uint8
	}{{t1, 1}, {t2, 1}, {t3, 0}} {
		if st, _ := f.stateOf(t, c.tid); st != c.want {
			t.Errorf("tuple %d in state %d, want %d", c.tid, st, c.want)
		}
	}
}

func TestEventDeadlineStillApplies(t *testing.T) {
	// Event states also expire at their retention deadline without the
	// event.
	f := newFixture(t, Options{}, func(loc *gentree.Tree) *lcp.Policy {
		return lcp.NewBuilder("p", loc).
			HoldUntilEvent(0, time.Hour, "ev").
			Hold(1, time.Hour).ThenSuppress().MustBuild()
	})
	tid := f.insert(t, 1, "Dam 1")
	f.clock.Advance(time.Hour)
	if n, _ := f.eng.Tick(); n != 1 {
		t.Fatal("time deadline ignored for event state")
	}
	if st, _ := f.stateOf(t, tid); st != 1 {
		t.Fatalf("state=%d", st)
	}
}

func TestPredicateGate(t *testing.T) {
	f := newFixture(t, Options{RecheckInterval: time.Minute}, func(loc *gentree.Tree) *lcp.Policy {
		return lcp.NewBuilder("p", loc).
			HoldIf(0, time.Hour, "case-closed").
			Hold(1, 1000*time.Hour).ThenSuppress().MustBuild()
	})
	closed := false
	f.eng.RegisterPredicate("case-closed", func(storage.Tuple) bool { return closed })
	tid := f.insert(t, 1, "Dam 1")
	f.clock.Advance(2 * time.Hour)
	if n, _ := f.eng.Tick(); n != 0 {
		t.Fatal("gated transition fired")
	}
	if f.eng.Stats().PredicateHold == 0 {
		t.Fatal("predicate hold not counted")
	}
	// Once the predicate holds, the retry fires.
	closed = true
	f.clock.Advance(time.Minute)
	if n, _ := f.eng.Tick(); n != 1 {
		t.Fatal("gated transition never fired")
	}
	if st, _ := f.stateOf(t, tid); st != 1 {
		t.Fatalf("state=%d", st)
	}
}

// TestBatchEventOrder: one batch holds a tuple whose row a reader
// locks, one its predicate holds, one that fires and one whose value
// its domain cannot degrade. The trail gets the fired event first, then
// the undegradable erasure, then lock-busy, then predicate-held; the
// retries queue in the same order.
func TestBatchEventOrder(t *testing.T) {
	f := newFixture(t, Options{}, func(loc *gentree.Tree) *lcp.Policy {
		return lcp.NewBuilder("p", loc).HoldIf(0, time.Hour, "gate").Hold(1, time.Hour).ThenSuppress().MustBuild()
	})
	aud, err := trace.OpenAudit("")
	if err != nil {
		t.Fatal(err)
	}
	f.eng.SetAudit(aud)
	bad, err := f.ts.Insert([]value.Value{value.Int(0), value.Int(5)}, []uint8{0}, f.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	f.eng.OnInsertRun(f.tbl, []storage.Tuple{{ID: bad, InsertedAt: f.clock.Now()}})
	heldBack, locked, fires := f.insert(t, 1, "Dam 1"), f.insert(t, 2, "Dam 1"), f.insert(t, 3, "Dam 1")
	f.eng.RegisterPredicate("gate", func(tup storage.Tuple) bool { return tup.ID != heldBack })
	if err := f.locks.Acquire(txn.ID(99999), txn.RowRes(f.tbl.ID, locked), txn.LockS); err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(time.Hour)
	if n, err := f.eng.Tick(); n != 2 || err != nil {
		t.Fatalf("tick: n=%d err=%v, want 2 (a transition and an erasure)", n, err)
	}
	want := []struct {
		tid    storage.TupleID
		kind   trace.Kind
		detail string
	}{{fires, trace.EvFired, "state 0→1"}, {bad, trace.EvFired, undegradableDetail},
		{locked, trace.EvRetried, "row lock busy"}, {heldBack, trace.EvRetried, "predicate held"}}
	evs := aud.Tail(len(want))
	for i, w := range want {
		if ev := evs[i]; ev.Tuple != uint64(w.tid) || ev.Kind != w.kind || !strings.Contains(ev.Detail, w.detail) {
			t.Fatalf("event %d of the batch: %+v, want tuple %d %v %q", i, ev, w.tid, w.kind, w.detail)
		}
	}
	var retries []storage.TupleID
	for _, p := range f.eng.Backlog() {
		if p.State == 0 {
			retries = append(retries, p.Tuple)
		}
	}
	if !slices.Equal(retries, []storage.TupleID{locked, heldBack}) {
		t.Fatalf("state-0 retries %v, want %d, %d", retries, locked, heldBack)
	}
}

// scanAll hands Reseed every tuple of the fixture's table.
func (f *fixture) scanAll(add func(*catalog.Table, *storage.Tuple)) error {
	return f.ts.Scan(func(t storage.Tuple) bool { add(f.tbl, &t); return true })
}

// TestReseedOrdersAndSizesQueues: whatever order the scan meets the
// tuples in, the table's arrival log comes out in deadline order, in as
// few chunks as hold its tasks, and the queues of the tuples' state list
// every tuple from it in that order.
func TestReseedOrdersAndSizesQueues(t *testing.T) {
	f := newFixture(t, Options{}, figure2Policy)
	var tuples []storage.Tuple
	for i := 0; i < 2*chunkTasks+44; i++ {
		tid := f.insert(t, int64(i), "Dam 1")
		f.clock.Advance(time.Millisecond)
		tp, err := f.ts.Get(tid)
		if err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, tp)
	}
	for _, scan := range []func(add func(*catalog.Table, *storage.Tuple)) error{
		f.scanAll,
		func(add func(*catalog.Table, *storage.Tuple)) error { // newest first
			for i := len(tuples) - 1; i >= 0; i-- {
				add(f.tbl, &tuples[i])
			}
			return nil
		},
	} {
		eng := New(f.clock, f.cat, f.mgr, f.locks, &txn.IDSource{}, applier(f.cat, f.mgr), nil, Options{})
		if err := eng.Reseed(scan); err != nil {
			t.Fatal(err)
		}
		l := eng.logs[f.tbl.ID]
		if l == nil || l.tail != int64(len(tuples)) || len(l.chunks) != 3 || l.holes != nil {
			t.Fatalf("arrival log: %+v, want %d tasks in 3 chunks and no hole", l, len(tuples))
		}
		var got []Pending
		for _, p := range eng.Backlog() {
			if (p.Attr == 0 && p.State == 0) || p.Attr == -1 {
				got = append(got, p)
			}
		}
		if len(got) != 2*len(tuples) || len(eng.Backlog()) != len(got) {
			t.Fatalf("%d pending, %d of them out of state 0 or deletes, want %d", len(eng.Backlog()), len(got), 2*len(tuples))
		}
		for i, p := range got {
			tp := tuples[i%len(tuples)]
			if p.Tuple != tp.ID || p.Attr != []int{0, -1}[i/len(tuples)] {
				t.Fatalf("pending %d is %+v, want tuple %d", i, p, tp.ID)
			}
		}
	}
}

func TestReseedRebuildsQueues(t *testing.T) {
	f := newFixture(t, Options{}, figure2Policy)
	tid := f.insert(t, 1, "Dam 1")
	f.eng.Tick() // 0-minute state expires: now at city (state 1)
	f.clock.Advance(30 * time.Minute)

	// A fresh engine reseeded from storage must pick up where the old
	// one left off.
	ids := &txn.IDSource{}
	eng2 := New(f.clock, f.cat, f.mgr, f.locks, ids, applier(f.cat, f.mgr), nil, Options{})
	if err := eng2.Reseed(f.scanAll); err != nil {
		t.Fatal(err)
	}
	if eng2.Stats().Pending == 0 {
		t.Fatal("reseed found nothing")
	}
	// 30 more minutes: the 1-hour city deadline passes.
	f.clock.Advance(30 * time.Minute)
	if n, _ := eng2.Tick(); n != 1 {
		t.Fatal("reseeded engine missed the deadline")
	}
	if st, _ := f.stateOf(t, tid); st != 2 {
		t.Fatalf("state=%d want 2", st)
	}
	// Full horizon: deletion also rescheduled.
	f.clock.Advance(40 * 24 * time.Hour)
	eng2.Tick()
	if _, ok := f.stateOf(t, tid); ok {
		t.Fatal("reseeded engine lost the deletion deadline")
	}
}

func TestNextDeadline(t *testing.T) {
	f := newFixture(t, Options{}, func(loc *gentree.Tree) *lcp.Policy {
		return lcp.NewBuilder("p", loc).Hold(0, time.Hour).Hold(1, time.Hour).ThenSuppress().MustBuild()
	})
	if _, ok := f.eng.NextDeadline(); ok {
		t.Fatal("empty engine has no deadline")
	}
	f.insert(t, 1, "Dam 1")
	d, ok := f.eng.NextDeadline()
	if !ok || !d.Equal(vclock.Epoch.Add(time.Hour)) {
		t.Fatalf("NextDeadline=(%v,%v)", d, ok)
	}
	// Drive the simulation by deadlines only.
	steps := 0
	for {
		d, ok := f.eng.NextDeadline()
		if !ok {
			break
		}
		f.clock.AdvanceTo(d)
		if _, err := f.eng.Tick(); err != nil {
			t.Fatal(err)
		}
		steps++
		if steps > 10 {
			t.Fatal("simulation did not terminate")
		}
	}
	if f.eng.Stats().Transitions != 2 {
		t.Fatalf("transitions=%d", f.eng.Stats().Transitions)
	}

	// A released event makes its tuples due at the instant it fired.
	f = newFixture(t, Options{}, func(loc *gentree.Tree) *lcp.Policy {
		return lcp.NewBuilder("p", loc).HoldUntilEvent(0, 100*time.Hour, "ev").Hold(1, time.Hour).ThenSuppress().MustBuild()
	})
	f.insert(t, 1, "Dam 1")
	f.clock.Advance(time.Hour)
	fired := f.clock.Now()
	f.eng.FireEvent("ev")
	f.clock.Advance(time.Minute)
	if d, ok := f.eng.NextDeadline(); !ok || !d.Equal(fired) {
		t.Fatalf("NextDeadline after the event = (%v, %v), want the instant it fired, %v", d, ok, fired)
	}
	if n, _ := f.eng.Tick(); n != 1 {
		t.Fatal("the released transition did not fire")
	}
	// Deadlines run from insert: the next one is 100 h + 1 h after it.
	if d, ok := f.eng.NextDeadline(); !ok || !d.Equal(vclock.Epoch.Add(101*time.Hour)) {
		t.Fatalf("NextDeadline after the tick = (%v, %v), want the next state's deadline %v", d, ok, vclock.Epoch.Add(101*time.Hour))
	}
}

func TestRunBackgroundLoop(t *testing.T) {
	f := newFixture(t, Options{}, func(loc *gentree.Tree) *lcp.Policy {
		return lcp.NewBuilder("p", loc).Hold(0, 0).Hold(1, time.Hour).ThenSuppress().MustBuild()
	})
	tid := f.insert(t, 1, "Dam 1")
	f.eng.Run(5 * time.Millisecond)
	defer f.eng.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if st, _ := f.stateOf(t, tid); st == 1 {
			f.eng.Stop()
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("background loop never degraded the 0-retention state")
}

func TestStaleTasksSkipped(t *testing.T) {
	// A tuple deleted by the user before its transition fires must be
	// skipped silently.
	f := newFixture(t, Options{}, func(loc *gentree.Tree) *lcp.Policy {
		return lcp.NewBuilder("p", loc).Hold(0, time.Hour).Hold(1, time.Hour).ThenSuppress().MustBuild()
	})
	tid := f.insert(t, 1, "Dam 1")
	if err := f.ts.Delete(tid); err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(2 * time.Hour)
	if n, err := f.eng.Tick(); err != nil || n != 0 {
		t.Fatalf("deleted tuple degraded: n=%d err=%v", n, err)
	}
}

// TestDrainedQueuesHoldNoBacklog: after a wave moves every tuple to the
// next state, the source queue retains no chunk, and Pending and Lag
// read as before.
func TestDrainedQueuesHoldNoBacklog(t *testing.T) {
	f := newFixture(t, Options{}, figure2Policy)
	const rows = 1000
	for i := 0; i < rows; i++ {
		f.insert(t, int64(i), "Dam 1")
	}
	if p := f.eng.Stats().Pending; p != 2*rows { // state-0 queue + delete queue
		t.Fatalf("pending %d, want %d", p, 2*rows)
	}
	age, _ := f.tbl.Columns[1].Policy.DeadlineFromInsert(0)
	f.clock.Advance(age + time.Minute)
	if lag := f.eng.Lag(f.clock.Now()); lag != time.Minute {
		t.Fatalf("lag %v before the tick, want 1m", lag)
	}
	bytes := f.eng.queueBytes()
	if n, err := f.eng.Tick(); err != nil || n != rows {
		t.Fatalf("tick: n=%d err=%v", n, err)
	}
	if p := f.eng.Stats().Pending; p != 2*rows { // state-1 queue + delete queue
		t.Fatalf("pending %d after the wave, want %d", p, 2*rows)
	}
	if lag := f.eng.Lag(f.clock.Now()); lag != 0 {
		t.Fatalf("lag %v after the tick", lag)
	}
	// The wave moved cursors only: nothing was stored again.
	if got := f.eng.queueBytes(); got != bytes {
		t.Fatalf("queues hold %d bytes after the wave, %d before", got, bytes)
	}
	// Once every tuple is gone, so is every chunk.
	f.clock.Advance(40 * 24 * time.Hour)
	if _, err := f.eng.Tick(); err != nil {
		t.Fatal(err)
	}
	if p, b := f.eng.Stats().Pending, f.eng.queueBytes(); p != 0 || b != 0 {
		t.Fatalf("after the horizon: %d pending in %d bytes, want none", p, b)
	}
}

// TestBatchEventsReachTrail: a tuple's scheduled events and a batch's
// fired events arrive in the trail complete and in order — one event
// per tuple and attribute, same deadline at both ends.
func TestBatchEventsReachTrail(t *testing.T) {
	f := newFixture(t, Options{BatchSize: 16}, figure2Policy)
	aud, err := trace.OpenAudit("")
	if err != nil {
		t.Fatal(err)
	}
	f.eng.SetAudit(aud)
	const rows = 40
	var tids []storage.TupleID
	for i := 0; i < rows; i++ {
		tids = append(tids, f.insert(t, int64(i), "Dam 1"))
	}
	age, _ := f.tbl.Columns[1].Policy.DeadlineFromInsert(0)
	f.clock.Advance(age)
	if n, err := f.eng.Tick(); err != nil || n != rows {
		t.Fatalf("tick: n=%d err=%v", n, err)
	}
	evs := aud.Tail(0)
	if len(evs) != 3*rows { // per tuple: location scheduled, delete scheduled, location fired
		t.Fatalf("%d events in the trail, want %d", len(evs), 3*rows)
	}
	deadline := vclock.Epoch.UnixNano() + int64(age)
	for i, tid := range tids {
		sched, del, fired := evs[2*i], evs[2*i+1], evs[2*rows+i]
		if sched.Kind != trace.EvScheduled || sched.Tuple != uint64(tid) || sched.Attr != "location" || sched.Deadline != deadline {
			t.Fatalf("tuple %d scheduled event: %+v", tid, sched)
		}
		if del.Kind != trace.EvScheduled || del.Tuple != uint64(tid) || del.Detail != "tuple-delete" {
			t.Fatalf("tuple %d delete-scheduled event: %+v", tid, del)
		}
		if fired.Kind != trace.EvFired || fired.Tuple != uint64(tid) || fired.Attr != "location" ||
			fired.Deadline != deadline || fired.Actual != deadline || fired.Detail != "state 0→1" {
			t.Fatalf("tuple %d fired event: %+v", tid, fired)
		}
	}

	// A multi-row insert run hands its events over queue-major: every
	// tuple's location event, then every tuple's delete event, so the
	// trail stores each queue's share as one run.
	run := make([]storage.Tuple, 5)
	for i := range run {
		run[i] = storage.Tuple{ID: storage.TupleID(1000 + i), InsertedAt: f.clock.Now()}
	}
	f.eng.OnInsertRun(f.tbl, run)
	evs = aud.Tail(2 * len(run))
	for i, ev := range evs {
		tup, attr, detail := run[i%len(run)].ID, "location", ""
		if i >= len(run) {
			attr, detail = "", "tuple-delete"
		}
		if ev.Kind != trace.EvScheduled || ev.Tuple != uint64(tup) || ev.Attr != attr || ev.Detail != detail {
			t.Fatalf("event %d of the insert run: %+v, want tuple %d scheduled for %q%q", i, ev, tup, attr, detail)
		}
	}
}

// TestTickRacesWriters ticks on one goroutine, on a clock it moves a
// minute a tick, while others insert runs, fire the event, and take and
// drop readers' row locks. Once they stop and the event fires a last
// time, one tick more fires every tuple out of state 0 exactly once:
// nothing is late, and every tuple waits in the state-1 queue. Run it
// under the race detector (make race-txn). The ticker moves the clock
// for as long as the writers run, and a loaded machine can starve them
// for tens of thousands of ticks: the state-1 hold is 90 years, so no
// run of the test comes near it.
func TestTickRacesWriters(t *testing.T) {
	opts := Options{BatchSize: 16, RecheckInterval: time.Minute}
	f := newFixture(t, opts, func(loc *gentree.Tree) *lcp.Policy {
		return lcp.NewBuilder("p", loc).HoldUntilEvent(0, time.Hour, "ev").Hold(1, 90*365*24*time.Hour).ThenSuppress().MustBuild()
	})
	var mu sync.Mutex
	fired := make(map[storage.TupleID]int) // every record is a state-0 transition
	apply := applier(f.cat, f.mgr)
	f.eng = New(f.clock, f.cat, f.mgr, f.locks, &txn.IDSource{}, func(recs []*wal.Record) error {
		mu.Lock()
		for _, r := range recs {
			fired[r.Tuple]++
		}
		mu.Unlock()
		return apply(recs)
	}, nil, opts)
	stored, err := f.loc.ResolveInsert(value.Text("Dam 1"))
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg    sync.WaitGroup
		idsMu sync.Mutex
		ids   []storage.TupleID
	)
	// ticks waits until the ticker has moved the clock twice, so at least
	// one whole tick ran in between. The ticker stops only once every
	// writer has returned.
	ticks := func() {
		for start := f.clock.Now(); !f.clock.Now().After(start.Add(time.Minute)); {
			runtime.Gosched()
		}
	}
	wg.Add(3)
	go func() { // insert runs
		defer wg.Done()
		for r := 0; r < 100; r++ {
			tups := make([]storage.Tuple, 4)
			for i := range tups {
				at := f.clock.Now()
				tid, err := f.ts.Insert([]value.Value{value.Int(int64(r*len(tups) + i)), stored}, []uint8{0}, at)
				if err != nil {
					t.Error(err)
					return
				}
				tups[i] = storage.Tuple{ID: tid, InsertedAt: at}
			}
			f.eng.OnInsertRun(f.tbl, tups)
			idsMu.Lock()
			for _, tp := range tups {
				ids = append(ids, tp.ID)
			}
			idsMu.Unlock()
		}
	}()
	go func() { // events
		defer wg.Done()
		for i := 0; i < 50; i++ {
			f.eng.FireEvent("ev")
			ticks()
		}
	}()
	go func() { // readers' row locks
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200; i++ {
			reader := txn.ID(1<<40 + uint64(i))
			idsMu.Lock()
			for k := 0; k < 8 && len(ids) > 0; k++ {
				f.locks.TryAcquire(reader, txn.RowRes(f.tbl.ID, ids[rng.Intn(len(ids))]), txn.LockS)
			}
			idsMu.Unlock()
			ticks()
			f.locks.ReleaseAll(reader)
		}
	}()
	stop, ticked := make(chan struct{}), make(chan struct{})
	go func() { // the ticker
		defer close(ticked)
		for {
			select {
			case <-stop:
				return
			default:
			}
			f.clock.Advance(time.Minute)
			if _, err := f.eng.Tick(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-ticked

	f.eng.FireEvent("ev")
	f.clock.Advance(opts.RecheckInterval) // past every retry gate
	if _, err := f.eng.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != len(ids) {
		t.Errorf("%d tuples fired, %d inserted", len(fired), len(ids))
	}
	for _, tid := range ids {
		if fired[tid] != 1 {
			t.Errorf("tuple %d fired %d times, want once", tid, fired[tid])
		}
	}
	if lag := f.eng.Lag(f.clock.Now()); lag != 0 {
		t.Errorf("lag %v after the last tick, want 0", lag)
	}
	if p := f.eng.Stats().Pending; p != len(ids) {
		t.Errorf("%d transitions pending, want %d: one state-1 transition per tuple", p, len(ids))
	}
}
