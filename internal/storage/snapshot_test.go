package storage

import (
	"errors"
	"testing"
	"time"

	"instantdb/internal/catalog"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
)

// snapTable builds an in-memory store with stable columns and one
// degradable column over the Figure 1/2 fixture.
func snapTable(t *testing.T) (*Manager, *TableStore) {
	t.Helper()
	_, tbl, _ := personFixture(t, catalog.LayoutMove)
	mgr := NewManager(NewMemStore())
	return mgr, mgr.Table(tbl)
}

// snapInsert stores a row with the degradable column's stored form given
// directly (tests drive states by hand).
func snapInsert(t *testing.T, ts *TableStore, id int64, who, place string) TupleID {
	t.Helper()
	tid := ts.ReserveID()
	err := ts.InsertWithID(tid, []value.Value{value.Int(id), value.Text(who), value.Text(place)},
		[]uint8{0}, vclock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	return tid
}

func TestSnapshotGetVisibility(t *testing.T) {
	mgr, ts := snapTable(t)

	mgr.SetStampEpoch(1, 0)
	a := snapInsert(t, ts, 1, "alice", "Dam 1")

	// A snapshot taken before the insert's epoch does not see it.
	if _, err := ts.SnapshotGet(a, 0); !errors.Is(err, ErrNoTuple) {
		t.Fatalf("pre-insert snapshot: got err %v, want ErrNoTuple", err)
	}
	got, err := ts.SnapshotGet(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Row[1].Text() != "alice" {
		t.Fatalf("snapshot 1 sees %q, want alice", got.Row[1].Text())
	}

	// A stable update at epoch 2 keeps the old image for snapshot 1.
	mgr.SetStampEpoch(2, 0)
	if err := ts.UpdateStable(a, 1, value.Text("bob")); err != nil {
		t.Fatal(err)
	}
	old, err := ts.SnapshotGet(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if old.Row[1].Text() != "alice" {
		t.Fatalf("snapshot 1 after update sees %q, want alice", old.Row[1].Text())
	}
	cur, err := ts.SnapshotGet(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Row[1].Text() != "bob" {
		t.Fatalf("snapshot 2 sees %q, want bob", cur.Row[1].Text())
	}
}

func TestDegradeScrubsVersionChain(t *testing.T) {
	mgr, ts := snapTable(t)
	mgr.SetStampEpoch(1, 0)
	a := snapInsert(t, ts, 1, "alice", "Dam 1")
	mgr.SetStampEpoch(2, 0)
	if err := ts.UpdateStable(a, 1, value.Text("bob")); err != nil {
		t.Fatal(err)
	}
	if st := ts.Stats(); st.Versions != 1 {
		t.Fatalf("retained %d versions, want 1", st.Versions)
	}

	// The LCP transition overwrites the degradable column everywhere:
	// current image and every retained version, regardless of the open
	// snapshot at epoch 1.
	if err := ts.DegradeAttr(a, 0, value.Text("Amsterdam"), 1); err != nil {
		t.Fatal(err)
	}
	old, err := ts.SnapshotGet(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if old.Row[1].Text() != "alice" {
		t.Fatalf("snapshot 1 stable column = %q, want alice (version retained)", old.Row[1].Text())
	}
	if old.Row[2].Text() != "Amsterdam" || old.States[0] != 1 {
		t.Fatalf("snapshot 1 degradable column = %q state %d, want Amsterdam state 1 (scrubbed at deadline)",
			old.Row[2].Text(), old.States[0])
	}
}

func TestDeleteScrubsVersionChain(t *testing.T) {
	mgr, ts := snapTable(t)
	mgr.SetStampEpoch(1, 0)
	a := snapInsert(t, ts, 1, "alice", "Dam 1")
	mgr.SetStampEpoch(2, 0)
	if err := ts.UpdateStable(a, 1, value.Text("bob")); err != nil {
		t.Fatal(err)
	}
	if err := ts.Delete(a); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.SnapshotGet(a, 1); !errors.Is(err, ErrNoTuple) {
		t.Fatalf("deleted tuple visible at old snapshot: err = %v", err)
	}
	if st := ts.Stats(); st.Versions != 0 {
		t.Fatalf("delete left %d versions behind", st.Versions)
	}
}

func TestVersionChainBoundAndMerge(t *testing.T) {
	mgr, ts := snapTable(t)
	mgr.SetStampEpoch(1, 0)
	a := snapInsert(t, ts, 1, "v1", "Dam 1")
	for e := uint64(2); e <= 10; e++ {
		mgr.SetStampEpoch(e, 0)
		if err := ts.UpdateStable(a, 1, value.Text("v"+string(rune('0'+e)))); err != nil {
			t.Fatal(err)
		}
	}
	if st := ts.Stats(); st.Versions != MaxTupleVersions {
		t.Fatalf("chain length %d, want cap %d", st.Versions, MaxTupleVersions)
	}
	// A snapshot older than the oldest retained version still resolves
	// (birth epochs merge downward on truncation): it reads the oldest
	// surviving image — bounded staleness, never a miss.
	got, err := ts.SnapshotGet(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Row[1].Text() == "" {
		t.Fatal("truncated snapshot read returned empty image")
	}
}

func TestHasVisibleHistory(t *testing.T) {
	mgr, ts := snapTable(t)
	mgr.SetStampEpoch(1, 0)
	a := snapInsert(t, ts, 1, "alice", "Dam 1")
	if ts.HasVisibleHistory(1) {
		t.Fatal("fresh table claims visible history")
	}
	mgr.SetStampEpoch(5, 0)
	if err := ts.UpdateStable(a, 1, value.Text("bob")); err != nil {
		t.Fatal(err)
	}
	// Snapshots older than the supersede may need chain images;
	// snapshots at or past it provably read current images only — so
	// stable-column indexes serve them even while the chain lingers.
	if !ts.HasVisibleHistory(4) {
		t.Fatal("pre-supersede snapshot not flagged")
	}
	if ts.HasVisibleHistory(5) {
		t.Fatal("snapshot at the supersede epoch flagged although it sees the current image")
	}
	if ts.HasVisibleHistory(9) {
		t.Fatal("later snapshot flagged although chains cannot diverge for it")
	}
}

func TestVersionPruneByLowWater(t *testing.T) {
	mgr, ts := snapTable(t)
	mgr.SetStampEpoch(1, 0)
	a := snapInsert(t, ts, 1, "v1", "Dam 1")
	mgr.SetStampEpoch(2, 0)
	if err := ts.UpdateStable(a, 1, value.Text("v2")); err != nil {
		t.Fatal(err)
	}
	// No snapshot older than epoch 5 is open: the v1 image (died at 2)
	// is unreachable and the next push prunes it.
	mgr.SetStampEpoch(6, 5)
	if err := ts.UpdateStable(a, 1, value.Text("v3")); err != nil {
		t.Fatal(err)
	}
	if st := ts.Stats(); st.Versions != 1 {
		t.Fatalf("retained %d versions after prune, want 1 (only the v2 image)", st.Versions)
	}
}

func TestSnapshotScanSeesConsistentSet(t *testing.T) {
	mgr, ts := snapTable(t)
	mgr.SetStampEpoch(1, 0)
	snapInsert(t, ts, 1, "alice", "Dam 1")
	snapInsert(t, ts, 2, "bob", "Coolsingel 40")
	mgr.SetStampEpoch(2, 0)
	snapInsert(t, ts, 3, "carol", "Museumplein 6")

	count := func(snap uint64) int {
		n := 0
		if err := ts.SnapshotScan(snap, func(Tuple) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := count(1); got != 2 {
		t.Fatalf("snapshot 1 scan sees %d tuples, want 2", got)
	}
	if got := count(2); got != 3 {
		t.Fatalf("snapshot 2 scan sees %d tuples, want 3", got)
	}
}

// TestBlockedScanDoesNotDelayDegrader is the storage-level half of the
// tentpole guarantee: a SnapshotScan whose consumer is wedged mid-scan
// holds no table lock, so a degradation rewrite on the same table
// completes while the scan is still blocked.
func TestBlockedScanDoesNotDelayDegrader(t *testing.T) {
	mgr, ts := snapTable(t)
	mgr.SetStampEpoch(1, 0)
	a := snapInsert(t, ts, 1, "alice", "Dam 1")
	snapInsert(t, ts, 2, "bob", "Coolsingel 40")

	entered := make(chan struct{})
	release := make(chan struct{})
	scanDone := make(chan error, 1)
	go func() {
		first := true
		scanDone <- ts.SnapshotScan(1, func(Tuple) bool {
			if first {
				first = false
				close(entered)
				<-release // wedge the consumer mid-scan
			}
			return true
		})
	}()

	<-entered
	// The scan is parked inside its callback. The transition must not
	// wait for it.
	degradeDone := make(chan error, 1)
	go func() { degradeDone <- ts.DegradeAttr(a, 0, value.Text("Amsterdam"), 1) }()
	select {
	case err := <-degradeDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("degradation transition blocked behind a wedged scan")
	}
	close(release)
	if err := <-scanDone; err != nil {
		t.Fatal(err)
	}

	// And the committed transition is what any later read observes.
	got, err := ts.SnapshotGet(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Row[2].Text() != "Amsterdam" {
		t.Fatalf("post-transition read = %q, want Amsterdam", got.Row[2].Text())
	}
}

// TestSnapshotBirthsAcrossLowWater holds a snapshot open across many
// commits: the births of their inserts and updates stay exact for it
// however many pile up, and are forgotten, storage and all, once no
// snapshot can tell them from 0.
func TestSnapshotBirthsAcrossLowWater(t *testing.T) {
	mgr, ts := snapTable(t)
	const commits = 1000
	mgr.SetStampEpoch(1, 0)
	qs := make([]TupleID, commits)
	for i := range qs {
		qs[i] = snapInsert(t, ts, int64(i), "old", "Dam 1")
	}
	const snap = 1 // S: opened once epoch 1 is published, so the mark stays at 1
	rs := make([]TupleID, commits)
	for i := range rs {
		mgr.SetStampEpoch(uint64(i+2), snap)
		rs[i] = snapInsert(t, ts, int64(commits+i), "r", "Coolsingel 40")
		if err := ts.UpdateStable(qs[i], 1, value.Text("new")); err != nil {
			t.Fatal(err)
		}
		mgr.SetLowWater(snap)
	}
	if st := ts.Stats(); st.Young != 2*commits {
		t.Fatalf("%d young tuples while S is open, want %d", st.Young, 2*commits)
	}
	seen := func(at uint64) (rows int, olds int) {
		err := ts.SnapshotScan(at, func(tp Tuple) bool {
			rows++
			if tp.Row[1].Text() == "old" {
				olds++
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows, olds
	}
	if rows, olds := seen(snap); rows != commits || olds != commits {
		t.Fatalf("S sees %d rows, %d of them old images; want only the %d q rows, all old", rows, olds, commits)
	}
	for i := range rs {
		if _, err := ts.SnapshotGet(rs[i], snap); !errors.Is(err, ErrNoTuple) {
			t.Fatalf("S reads r #%d inserted after it: %v", rs[i], err)
		}
		if q, err := ts.SnapshotGet(qs[i], snap); err != nil || q.Row[1].Text() != "old" {
			t.Fatalf("S reads q #%d as %v, %v; want its old image", qs[i], q.Row, err)
		}
	}

	// S closes; one more commit, which writes no image, lands.
	mgr.SetStampEpoch(commits+2, commits+1)
	if err := ts.Delete(rs[0]); err != nil {
		t.Fatal(err)
	}
	if st := ts.Stats(); st.Young != 0 || ts.births.at != nil || ts.births.fifo != nil {
		t.Fatalf("births still hold %d tuples (fifo %d) after the mark passed them", st.Young, len(ts.births.fifo))
	}
	if rows, olds := seen(commits + 2); rows != 2*commits-1 || olds != 0 {
		t.Fatalf("a new snapshot sees %d rows, %d old images; want %d rows, none old", rows, olds, 2*commits-1)
	}
}
