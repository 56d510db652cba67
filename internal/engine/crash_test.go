package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"instantdb/internal/forensic"
	"instantdb/internal/trace"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
	"instantdb/internal/wal"
)

// Engine-level crash injection: a simulated power cut at the WAL group
// fsync, then a real reopen of the same directory. The contract under
// test is the durability boundary commit enforces — a commit is
// acked (Exec returned nil) only after its group's fsync, and it
// becomes visible to other sessions only after that — so:
//
//   - every acked insert is present after reopen+replay;
//   - no unacked insert is present (crash-before-sync variant);
//   - with the shred codec, the crash leaves no plaintext of any
//     degradable value in the WAL — torn tails included.

func TestEngineCrashAckedCommitsSurviveReopen(t *testing.T) {
	for _, torn := range []int{0, 41} {
		name := "before-sync"
		if torn > 0 {
			name = "torn-tail"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			clock := vclock.NewSimulated(vclock.Epoch)
			fi := &wal.FaultInjector{}
			db, err := Open(Config{Dir: dir, Clock: clock, WALOpenSegment: fi.Open})
			if err != nil {
				t.Fatal(err)
			}
			defer fi.Release()
			installSchema(t, db)
			parked := fi.Hold()

			// Arm the cut a few commit fsyncs into the concurrent phase.
			if torn > 0 {
				fi.CrashDuringSync(4, torn)
			} else {
				fi.CrashBeforeSync(4)
			}
			const sessions, perSession = 8, 6
			var mu sync.Mutex
			acked := map[int]bool{}
			var wg sync.WaitGroup
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					conn := db.NewConn()
					for i := 0; i < perSession; i++ {
						id := s*perSession + i + 1
						_, err := conn.Exec(
							`INSERT INTO person (id, name, location, salary) VALUES (?, ?, 'Dam 1', ?)`,
							value.Int(int64(id)), value.Text(fmt.Sprintf("user%d", id)), value.Int(int64(id)))
						if err != nil {
							return // power is out for this session
						}
						mu.Lock()
						acked[id] = true
						mu.Unlock()
					}
				}(s)
			}
			// Park the first commit's flush until every session has an
			// insert admitted, so the cut lands on shared fsyncs.
			<-parked
			waitReserved(t, db, sessions)
			fi.Release()
			wg.Wait()
			if !fi.Crashed() {
				t.Fatal("fault point never fired")
			}
			db.Close() // best effort; the process is "dead"

			// Reopen the directory for real: recovery truncates any torn
			// tail and replays complete batches.
			db2, err := Open(Config{Dir: dir, Clock: clock})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer db2.Close()
			rows, err := db2.NewConn().Query(`SELECT id FROM person`)
			if err != nil {
				t.Fatal(err)
			}
			visible := map[int]bool{}
			for _, r := range rows.Data {
				visible[int(r[0].Int())] = true
			}
			for id := range acked {
				if !visible[id] {
					t.Fatalf("acked insert %d lost after reopen", id)
				}
			}
			if torn == 0 {
				for id := range visible {
					if !acked[id] {
						t.Fatalf("unacked insert %d visible after crash-before-sync", id)
					}
				}
			}

			// Forensic pass: under the shred codec no plaintext of any
			// degradable value may sit in the log — not in complete
			// batches, not in the torn tail the crash left behind.
			needles := []forensic.Needle{
				forensic.NeedleForStored("degradable location", value.Text("Dam 1")),
			}
			rep, err := forensic.ScanDir(filepath.Join(dir, "wal"), needles)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("plaintext degradable value in WAL after crash: %v", rep.Findings)
			}
		})
	}
}

// TestEngineCrashFencesInFlightCommits: after the injected crash the
// still-open database refuses further commits loudly instead of acking
// writes it can no longer make durable.
func TestEngineCrashFencesInFlightCommits(t *testing.T) {
	dir := t.TempDir()
	fi := &wal.FaultInjector{}
	db, err := Open(Config{Dir: dir, Clock: vclock.NewSimulated(vclock.Epoch), WALOpenSegment: fi.Open})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	installSchema(t, db)
	fi.CrashBeforeSync(1)
	if _, err := db.Exec(`INSERT INTO person (id, name, location, salary) VALUES (1, 'a', 'Dam 1', 1)`); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("crashed commit err = %v, want ErrInjected", err)
	}
	if _, err := db.Exec(`INSERT INTO person (id, name, location, salary) VALUES (2, 'b', 'Dam 1', 1)`); err == nil {
		t.Fatal("commit after a WAL failure must be refused")
	}
}

// TestFailedSyncLeavesEndPos: a degrade batch whose fsync fails never
// becomes part of the log's end. EndPos must stay where the last durable
// batch left it, or an incremental backup would tail to bytes that never
// reached the file and a replica heartbeat would report a phantom end.
func TestFailedSyncLeavesEndPos(t *testing.T) {
	clock := vclock.NewSimulated(vclock.Epoch)
	fi := &wal.FaultInjector{}
	db, err := Open(Config{Dir: t.TempDir(), Clock: clock, WALOpenSegment: fi.Open})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	installSchema(t, db)
	db.MustExec(`INSERT INTO person (id, name, location, salary) VALUES (1, 'a', 'Dam 1', 2471)`)
	before := db.Log().EndPos()
	fi.CrashBeforeSync(1)
	clock.Advance(16 * time.Minute)
	if _, err := db.DegradeNow(); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("degrade over a failed fsync: err = %v, want ErrInjected", err)
	}
	if end := db.Log().EndPos(); end != before {
		t.Fatalf("EndPos moved from %v to %v over a batch whose fsync failed", before, end)
	}
}

// TestEngineCrashMidAuditAppend: a process killed while the audit trail
// is being appended to must reopen. What the kill leaves on disk is the
// trail's whole blocks (the open block dies with the process), possibly
// followed by a torn frame; both images must open, keep every committed
// row, and carry on one verifiable chain.
func TestEngineCrashMidAuditAppend(t *testing.T) {
	src := t.TempDir()
	clock := vclock.NewSimulated(vclock.Epoch)
	nosync := false
	db, err := Open(Config{Dir: src, Clock: clock, WALSync: &nosync})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	installSchema(t, db)
	const rows = 200 // 600 scheduled events: two sealed blocks, 88 events still open
	for id := 1; id <= rows; id++ {
		db.MustExec(`INSERT INTO person (id, name, location, salary) VALUES (?, 'x', 'Dam 1', 1)`, value.Int(int64(id)))
	}

	for _, tear := range []int{0, 23} {
		name := "open-block-lost"
		if tear > 0 {
			name = "torn-frame"
		}
		t.Run(name, func(t *testing.T) {
			// The directory as the kill left it: src is still open and
			// never closed before this copy.
			dir := t.TempDir()
			copyTree(t, src, dir)
			seg := filepath.Join(dir, "audit", "audit-00000001.log")
			st, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, st.Size()-int64(tear)); err != nil {
				t.Fatal(err)
			}

			db2, err := Open(Config{Dir: dir, Clock: clock})
			if err != nil {
				t.Fatalf("reopen after kill: %v", err)
			}
			res, err := db2.Exec(`SELECT COUNT(*) FROM person`)
			if err != nil {
				t.Fatal(err)
			}
			if n := res.Rows.Data[0][0].Int(); n != rows {
				t.Fatalf("%d rows after reopen, want %d", n, rows)
			}
			whole := uint64(512)
			if tear > 0 {
				whole = 256
			}
			if got := db2.AuditLog().Seq(); got != whole {
				t.Fatalf("trail continues from seq %d, want %d", got, whole)
			}
			db2.MustExec(`INSERT INTO person (id, name, location, salary) VALUES (?, 'x', 'Dam 1', 1)`, value.Int(rows+1))
			if err := db2.Close(); err != nil {
				t.Fatal(err)
			}
			if n, err := trace.Verify(filepath.Join(dir, "audit")); err != nil || uint64(n) != whole+3 {
				t.Fatalf("verify after kill, reopen, insert: n=%d err=%v", n, err)
			}
		})
	}
}

// TestReopenRecordsHealedTornMove tears a degradation move the way a
// crash between its two page write-backs can — the moved copy reaches
// pages.db, the scrub of its source page does not — and reopens:
// recovery must count the repair and append one torn_move_healed event
// naming the tuple and the states of the copy it kept.
func TestReopenRecordsHealedTornMove(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewSimulated(vclock.Epoch)
	db, err := Open(Config{Dir: dir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	installSchema(t, db)
	// Tuple 2, due a minute later, keeps the source page in use, so the
	// move cannot land on it.
	db.MustExec(`INSERT INTO person (id, name, location, salary) VALUES (1, 'x', 'Dam 1', 2471)`)
	clock.Advance(time.Minute)
	db.MustExec(`INSERT INTO person (id, name, location, salary) VALUES (2, 'y', 'Dam 1', 2471)`)
	pages := filepath.Join(dir, "pages.db")
	before, err := os.ReadFile(pages)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(14 * time.Minute)
	if n, err := db.DegradeNow(); err != nil || n != 1 {
		t.Fatalf("degrade: n=%d err=%v", n, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The move's destination is a page allocated past the old end of the
	// file; writing the old pages back restores the finer source copy.
	f, err := os.OpenFile(pages, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(before, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Config{Dir: dir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	var healed float64 = -1
	for _, s := range db2.Metrics().Snapshot() {
		if s.Key == "instantdb_storage_torn_moves_healed_total" {
			healed = s.Value
		}
	}
	if healed != 1 {
		t.Fatalf("instantdb_storage_torn_moves_healed_total = %v, want 1", healed)
	}
	var evs []trace.Event
	for _, ev := range db2.AuditLog().Tail(0) {
		if ev.Kind == trace.EvTornMoveHealed {
			evs = append(evs, ev)
		}
	}
	if len(evs) != 1 || evs[0].Table != "person" || evs[0].Tuple == 0 || evs[0].Detail != "kept states [1 0]" {
		t.Fatalf("torn_move_healed events after reopen: %v, want one for person's tuple keeping states [1 0]", evs)
	}
	res, err := db2.Exec(`SELECT id, location FROM person`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows.Data) != 1 || res.Rows.Data[0][0].Int() != 2 {
		t.Fatalf("full accuracy after tuple 1's hold returns %v, want tuple 2 alone", res.Rows.Data)
	}
}

// copyTree copies the regular files under src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o700)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o600)
	})
	if err != nil {
		t.Fatal(err)
	}
}
