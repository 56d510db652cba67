package repl_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"instantdb/internal/engine"
	"instantdb/internal/repl"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
	"instantdb/internal/wal"
)

// stableWorkload drives the same deterministic commit sequence against
// any database: the byte-stability test runs it against two databases
// and requires identical WAL bytes, because the replication and backup
// streams are raw reads of exactly those bytes.
func stableWorkload(t *testing.T, db *engine.DB) {
	t.Helper()
	if err := db.ExecScript(testSchema); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 24; i++ {
		place := "Dam 1"
		if i%3 == 0 {
			place = "Coolsingel 40"
		}
		if _, err := db.Exec("INSERT INTO visits (id, who, place) VALUES (?, ?, ?)",
			value.Int(int64(i)), value.Text(fmt.Sprintf("user-%d", i)), value.Text(place)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec("UPDATE visits SET who = ? WHERE id = ?",
		value.Text("renamed"), value.Int(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DELETE FROM visits WHERE id = ?", value.Int(3)); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitStreamByteStable: what reaches disk depends only on
// the commit sequence — the same workload against two databases must
// leave byte-identical WAL segments, so every raw-byte consumer
// (follower tailers, incremental backup) sees a reproducible stream.
// LogPlain plus a simulated clock makes the bytes reproducible across
// databases.
func TestGroupCommitStreamByteStable(t *testing.T) {
	open := func() (*engine.DB, string) {
		dir := t.TempDir()
		db, err := engine.Open(engine.Config{Dir: dir, Clock: vclock.NewSimulated(vclock.Epoch),
			LogMode: engine.LogPlain})
		if err != nil {
			t.Fatal(err)
		}
		return db, dir
	}
	base, baseDir := open()
	group, groupDir := open()
	stableWorkload(t, base)
	stableWorkload(t, group)
	base.Close()
	group.Close()

	baseWAL, groupWAL := filepath.Join(baseDir, "wal"), filepath.Join(groupDir, "wal")
	be, err := os.ReadDir(baseWAL)
	if err != nil {
		t.Fatal(err)
	}
	ge, err := os.ReadDir(groupWAL)
	if err != nil {
		t.Fatal(err)
	}
	if len(be) != len(ge) {
		t.Fatalf("segment count diverges: baseline %d, group %d", len(be), len(ge))
	}
	for i, e := range be {
		if e.Name() != ge[i].Name() {
			t.Fatalf("segment name diverges: baseline %s, group %s", e.Name(), ge[i].Name())
		}
		bb, err := os.ReadFile(filepath.Join(baseWAL, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		gb, err := os.ReadFile(filepath.Join(groupWAL, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bb, gb) {
			t.Fatalf("segment %s differs between two runs of the same workload (%d vs %d bytes)",
				e.Name(), len(bb), len(gb))
		}
	}
}

// TestReplicationGroupCommitConvergence: a follower tailing a leader
// under concurrent group-committed writers converges to exactly the
// acked row set — group fsync amortization on the leader is invisible
// to the replication stream.
func TestReplicationGroupCommitConvergence(t *testing.T) {
	leaderDir := t.TempDir()
	fi := &wal.FaultInjector{}
	leader, err := engine.Open(engine.Config{Dir: leaderDir, WALOpenSegment: fi.Open})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	defer fi.Release()
	if err := leader.ExecScript(testSchema); err != nil {
		t.Fatal(err)
	}
	leaderAddr, closeLeader := serveDB(t, leader, "")
	defer closeLeader()

	followerDir := t.TempDir()
	follower, err := engine.Open(engine.Config{Dir: followerDir, Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	f := &repl.Follower{Addr: leaderAddr, DB: follower, BackoffMin: 10 * time.Millisecond, Logf: t.Logf}
	f.Start()
	defer f.Stop()

	f0, b0 := leader.Log().FsyncCount(), leader.Log().BatchCount()
	const writers, perWriter = 8, 8
	parked := fi.Hold()
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn := leader.NewConn()
			for i := 0; i < perWriter; i++ {
				id := w*perWriter + i + 1
				if _, err := conn.Exec("INSERT INTO visits (id, who, place) VALUES (?, ?, 'Dam 1')",
					value.Int(int64(id)), value.Text(fmt.Sprintf("user-%d", id))); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	// The first commit's flush parks; the other writers' inserts get a
	// moment to queue behind it and share the next fsync. (Natural
	// batching would group some of them without the gate too.)
	<-parked
	time.Sleep(20 * time.Millisecond)
	fi.Release()
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	const commits = writers * perWriter
	if got := leader.Log().BatchCount() - b0; got != commits {
		t.Fatalf("leader appended %d batches, want %d", got, commits)
	}
	if syncs := leader.Log().FsyncCount() - f0; syncs >= commits {
		t.Fatalf("leader fsyncs (%d) not amortized over %d concurrent commits", syncs, commits)
	}

	waitFor(t, "follower convergence", func() bool { return countRows(t, follower) == commits })
	image := func(db *engine.DB) map[int64]string {
		rows, err := db.NewConn().Query("SELECT id, who FROM visits")
		if err != nil {
			t.Fatal(err)
		}
		m := make(map[int64]string, rows.Len())
		for _, r := range rows.Data {
			m[r[0].Int()] = r[1].Text()
		}
		return m
	}
	if l, fo := image(leader), image(follower); !reflect.DeepEqual(l, fo) {
		t.Fatalf("follower diverges from leader:\nleader:   %v\nfollower: %v", l, fo)
	}
}
