package wal

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
)

// Deterministic power-cut scenarios around the group fsync, driven by
// the FaultInjector write-back layer (fault.go). The durability theorem
// under test:
//
//   - an acked commit (GroupAppend returned nil) survives reopen+replay,
//     always — the ack happens strictly after its group's fsync;
//   - a crash BEFORE the fsync loses the whole group: reopen shows
//     exactly the acked batches, nothing else;
//   - a crash DURING the fsync (torn tail) may leave unacked batches
//     whose frames happen to be complete, but never a partial batch:
//     replay is acked ⊆ visible ⊆ attempted, with the torn frame
//     truncated away.

func openFaultLog(t *testing.T, fi *FaultInjector, opts Options) (*Log, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	t.Cleanup(fi.Release) // never leave a flush parked past the test
	opts.OpenSegment = fi.Open
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, dir
}

func TestCrashBeforeSyncLosesWholeGroup(t *testing.T) {
	fi := &FaultInjector{}
	l, dir := openFaultLog(t, fi, Options{Sync: true})
	if _, err := l.GroupAppend(encodeBatch(t, 1)); err != nil {
		t.Fatalf("acked append: %v", err)
	}
	fi.CrashBeforeSync(1)
	if _, err := l.GroupAppend(encodeBatch(t, 2)); !errors.Is(err, ErrInjected) {
		t.Fatalf("crashed append err = %v, want ErrInjected", err)
	}
	l.Close()
	got := replayTuples(t, dir)
	if len(got) != 1 || !got[1] {
		t.Fatalf("after crash-before-sync replay = %v, want exactly {1}", got)
	}
}

func TestCrashDuringSyncTruncatesTornBatch(t *testing.T) {
	fi := &FaultInjector{}
	l, dir := openFaultLog(t, fi, Options{Sync: true})
	if _, err := l.GroupAppend(encodeBatch(t, 1)); err != nil {
		t.Fatal(err)
	}
	// Cut the next flush mid-frame: the header plus a few payload bytes
	// of batch 2 reach disk, the rest does not.
	fi.CrashDuringSync(1, batchHeaderSize+3)
	if _, err := l.GroupAppend(encodeBatch(t, 2)); !errors.Is(err, ErrInjected) {
		t.Fatalf("crashed append err = %v, want ErrInjected", err)
	}
	l.Close()

	// Reopen: recovery truncates the torn frame; only the acked batch
	// replays, and the log accepts new appends cleanly.
	l2, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	var tuples []int
	if err := l2.Replay(func(r *Record) error { tuples = append(tuples, int(r.Tuple)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || tuples[0] != 1 {
		t.Fatalf("torn-tail replay = %v, want [1]", tuples)
	}
	if _, err := l2.GroupAppend(encodeBatch(t, 3)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	l2.Close()
	if got := replayTuples(t, dir); len(got) != 2 || !got[1] || !got[3] {
		t.Fatalf("post-recovery replay = %v, want {1,3}", got)
	}
}

// TestKillDropsEverythingUnsynced: with the per-commit fsync disabled
// the whole tail is one unsynced buffer — a power cut erases it all,
// which is exactly the -wal-nosync caveat made visible.
func TestKillDropsEverythingUnsynced(t *testing.T) {
	fi := &FaultInjector{}
	l, dir := openFaultLog(t, fi, Options{Sync: false})
	for i := 1; i <= 3; i++ {
		if _, err := l.GroupAppend(encodeBatch(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	fi.Kill()
	l.Close()
	if got := replayTuples(t, dir); len(got) != 0 {
		t.Fatalf("unsynced batches survived a kill: %v", got)
	}
}

// TestCrashConcurrentAckedSurvive is the end-to-end durability theorem
// under concurrency: 16 committers race, the machine dies at an
// arbitrary group fsync, and reopen+replay shows exactly the acked set
// (crash-before-sync drops whole groups; nothing partial ever applies).
func TestCrashConcurrentAckedSurvive(t *testing.T) {
	for _, torn := range []int{0, batchHeaderSize + 7} {
		name := "before-sync"
		if torn > 0 {
			name = "torn-tail"
		}
		t.Run(name, func(t *testing.T) {
			fi := &FaultInjector{}
			l, dir := openFaultLog(t, fi, Options{Sync: true})
			parked := fi.Hold()
			if torn > 0 {
				fi.CrashDuringSync(5, torn)
			} else {
				fi.CrashBeforeSync(5)
			}
			const committers, perCommitter = 16, 8
			var mu sync.Mutex
			acked := map[int]bool{}
			attempted := map[int]bool{}
			var wg sync.WaitGroup
			for c := 0; c < committers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < perCommitter; i++ {
						id := c*perCommitter + i + 1
						mu.Lock()
						attempted[id] = true
						mu.Unlock()
						if _, err := l.GroupAppend(encodeBatch(t, id)); err != nil {
							return // crashed: this and later batches unacked
						}
						mu.Lock()
						acked[id] = true
						mu.Unlock()
					}
				}(c)
			}
			// Park the first flush until every other committer queues
			// behind it, so the fault fires under shared fsyncs.
			<-parked
			waitQueued(t, l, committers-1)
			fi.Release()
			wg.Wait()
			if !fi.Crashed() {
				t.Fatal("fault point never fired")
			}
			l.Close()

			visible := replayTuples(t, dir)
			for id := range acked {
				if !visible[id] {
					t.Fatalf("acked batch %d lost after crash", id)
				}
			}
			for id := range visible {
				if !attempted[id] {
					t.Fatalf("replayed batch %d was never appended", id)
				}
				if torn == 0 && !acked[id] {
					t.Fatalf("unacked batch %d visible after crash-before-sync", id)
				}
			}
			if torn == 0 && len(visible) != len(acked) {
				t.Fatalf("visible %d != acked %d after crash-before-sync", len(visible), len(acked))
			}
		})
	}
}
