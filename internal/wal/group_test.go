package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"instantdb/internal/storage"
	"instantdb/internal/value"
)

// encodeBatch encodes one single-record test batch whose tuple id makes
// it uniquely identifiable in a replay.
func encodeBatch(t *testing.T, tuple int) []byte {
	t.Helper()
	payload, err := EncodeRecords(nil, []*Record{insertRec(storage.TupleID(tuple), fmt.Sprintf("r%d", tuple), value.Int(int64(tuple)))}, PlainCodec{})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// replayTuples reopens dir with a plain log and collects the tuple ids
// of every replayed insert.
func replayTuples(t *testing.T, dir string) map[int]bool {
	t.Helper()
	l, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	got := map[int]bool{}
	if err := l.Replay(func(r *Record) error {
		if r.Type == RecInsert {
			got[int(r.Tuple)] = true
		}
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

// waitQueued blocks until n batches wait in l's group-commit queue
// behind the flush in flight.
func waitQueued(t *testing.T, l *Log, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		l.gmu.Lock()
		q := len(l.gqueue)
		l.gmu.Unlock()
		if q >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d batches queued behind the parked flush, want %d", q, n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestGroupAppendMatchesAppendBytes proves grouping never changes the
// bytes: the same batch sequence appended one group per batch and
// appended as one shared group leaves byte-identical segments and acks
// the same positions, so tailers (replication, incremental backup)
// cannot tell how the batches were grouped.
func TestGroupAppendMatchesAppendBytes(t *testing.T) {
	const n = 20
	base, baseDir := openTestLog(t, Options{Sync: true})
	fi := &FaultInjector{}
	grp, grpDir := openFaultLog(t, fi, Options{Sync: true})
	want := make([]Pos, n+1)
	for i := 1; i <= n; i++ {
		pos, err := base.GroupAppend(encodeBatch(t, i))
		if err != nil {
			t.Fatal(err)
		}
		if end := base.EndPos(); pos != end {
			t.Fatalf("batch %d: ack pos %v != end pos %v", i, pos, end)
		}
		want[i] = pos
	}

	// Batch 1's flush parks in Sync; batches 2..n queue behind it one at
	// a time, so the second group holds them in order.
	parked := fi.Hold()
	got := make([]Pos, n+1)
	errs := make([]error, n+1)
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = grp.GroupAppend(encodeBatch(t, i))
		}(i)
		if i == 1 {
			<-parked
		} else {
			waitQueued(t, grp, i-1)
		}
	}
	fi.Release()
	wg.Wait()
	for i := 1; i <= n; i++ {
		if errs[i] != nil {
			t.Fatalf("grouped batch %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("batch %d: grouped ack %v, one-at-a-time ack %v", i, got[i], want[i])
		}
	}
	if g := grp.GroupCount(); g != 2 {
		t.Fatalf("grouped log flushed %d groups, want 2", g)
	}
	if base.EndPos() != grp.EndPos() {
		t.Fatalf("end positions differ: %v vs %v", base.EndPos(), grp.EndPos())
	}
	base.Close()
	grp.Close()
	compareDirs(t, baseDir, grpDir)
}

func compareDirs(t *testing.T, a, b string) {
	t.Helper()
	ae, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	be, err := os.ReadDir(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ae) != len(be) {
		t.Fatalf("segment counts differ: %d vs %d", len(ae), len(be))
	}
	for i := range ae {
		if ae[i].Name() != be[i].Name() {
			t.Fatalf("segment names differ: %s vs %s", ae[i].Name(), be[i].Name())
		}
		ab, err := os.ReadFile(filepath.Join(a, ae[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(filepath.Join(b, be[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(ab) != string(bb) {
			t.Fatalf("segment %s differs between the two logs", ae[i].Name())
		}
	}
}

// TestGroupAppendConcurrent is the amortization proof: 32 committers ×
// 10 batches, every ack position strictly monotone per committer, every
// batch replayable, and strictly fewer fsyncs than batches.
func TestGroupAppendConcurrent(t *testing.T) {
	const committers, perCommitter = 32, 10
	fi := &FaultInjector{}
	l, dir := openFaultLog(t, fi, Options{Sync: true})
	parked := fi.Hold()
	var wg sync.WaitGroup
	errs := make([]error, committers)
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var last Pos
			for i := 0; i < perCommitter; i++ {
				pos, err := l.GroupAppend(encodeBatch(t, c*perCommitter+i+1))
				if err != nil {
					errs[c] = err
					return
				}
				if !last.Before(pos) {
					errs[c] = fmt.Errorf("ack positions not monotone: %v then %v", last, pos)
					return
				}
				last = pos
			}
		}(c)
	}
	// The first flush parks; every other committer's first batch queues
	// behind it and they share the next fsync.
	<-parked
	waitQueued(t, l, committers-1)
	fi.Release()
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("committer %d: %v", c, err)
		}
	}
	total := uint64(committers * perCommitter)
	if got := l.BatchCount(); got != total {
		t.Fatalf("BatchCount = %d, want %d", got, total)
	}
	if f := l.FsyncCount(); f >= total {
		t.Fatalf("fsyncs (%d) not amortized over %d commits", f, total)
	}
	if g, f := l.GroupCount(), l.FsyncCount(); g != f {
		t.Fatalf("groups (%d) != fsyncs (%d): every group must cost exactly one fsync", g, f)
	}

	// Tailer byte-identity: the raw batch payloads read back are exactly
	// the payloads handed to GroupAppend, each in its own frame.
	want := map[string]bool{}
	for i := 1; i <= int(total); i++ {
		want[string(encodeBatch(t, i))] = true
	}
	seen := 0
	if err := l.TailRaw(Pos{}, l.EndPos(), func(payload []byte, _ Pos) error {
		if !want[string(payload)] {
			return errors.New("tailer observed a payload never appended")
		}
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != int(total) {
		t.Fatalf("tailer saw %d batches, want %d", seen, total)
	}
	l.Close()

	got := replayTuples(t, dir)
	if len(got) != int(total) {
		t.Fatalf("replay found %d tuples, want %d", len(got), total)
	}
}

// TestGroupAppendEmpty: an empty payload is a no-op ack at the current
// end position, costing nothing.
func TestGroupAppendEmpty(t *testing.T) {
	l, _ := openTestLog(t, Options{Sync: true})
	defer l.Close()
	pos, err := l.GroupAppend(nil)
	if err != nil || pos != l.EndPos() {
		t.Fatalf("empty GroupAppend: pos=%v err=%v", pos, err)
	}
	if l.FsyncCount() != 0 || l.BatchCount() != 0 {
		t.Fatal("empty GroupAppend must not write or sync")
	}
}

// TestGroupAppendFailureFailsWholeGroup: when the shared fsync fails,
// every waiter of the group gets the error (none were made durable) and
// the log latches broken for later appends.
func TestGroupAppendFailureFailsWholeGroup(t *testing.T) {
	fi := &FaultInjector{}
	l, _ := openFaultLog(t, fi, Options{Sync: true})
	defer l.Close()
	// The pre-fault append parks in the first Sync; the n waiters queue
	// behind it as one group, whose fsync (the second) fails.
	fi.CrashBeforeSync(2)
	parked := fi.Hold()
	pre := make(chan error, 1)
	go func() {
		_, err := l.GroupAppend(encodeBatch(t, 1))
		pre <- err
	}()
	<-parked
	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = l.GroupAppend(encodeBatch(t, 100+i))
		}(i)
	}
	waitQueued(t, l, n)
	fi.Release()
	if err := <-pre; err != nil {
		t.Fatalf("pre-fault append: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("waiter %d was acked after a failed group fsync", i)
		}
	}
	if _, err := l.GroupAppend(encodeBatch(t, 999)); err == nil {
		t.Fatal("log must latch broken after a failed group fsync")
	}
}
