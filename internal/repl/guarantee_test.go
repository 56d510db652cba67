package repl_test

import (
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"instantdb/internal/engine"
	"instantdb/internal/forensic"
	"instantdb/internal/storage"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
	"instantdb/internal/wal"
)

// feedAll drains the leader's WAL into the follower (the deterministic,
// network-free stand-in for a live stream) and returns the position the
// follower would resume from.
func feedAll(t *testing.T, leader, follower *engine.DB, pos wal.Pos) wal.Pos {
	t.Helper()
	log := leader.Log()
	end := log.EndPos()
	if err := log.TailRaw(pos, end, func(payload []byte, next wal.Pos) error {
		recs, err := wal.DecodeRecords(payload, log.Codec())
		if err != nil {
			return err
		}
		if err := follower.ApplyReplicated(recs, next); err != nil {
			return fmt.Errorf("ApplyReplicated: %w", err)
		}
		pos = next
		return nil
	}); err != nil {
		t.Fatalf("tail %v..%v: %v", pos, end, err)
	}
	return pos
}

// queryPlaces returns place values visible under purpose for tuple id.
func queryPlaces(t *testing.T, db *engine.DB, purpose string, id int) []string {
	t.Helper()
	conn := db.NewConn()
	if err := conn.SetPurpose(purpose); err != nil {
		t.Fatal(err)
	}
	rows, err := conn.Query("SELECT place FROM visits WHERE id = ?", value.Int(int64(id)))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, r[0].Text())
	}
	return out
}

// scanFollower runs the forensic adversary over every persistent
// artifact of the follower: raw store pages, WAL segments, key file.
func scanFollower(t *testing.T, db *engine.DB, dir string, needles []forensic.Needle) forensic.Report {
	t.Helper()
	rep, err := forensic.ScanStore(db.StorageManager().Store(), needles)
	if err != nil {
		t.Fatal(err)
	}
	dirRep, err := forensic.ScanDir(filepath.Join(dir, "wal"), needles)
	if err != nil {
		t.Fatal(err)
	}
	rep.Merge(dirRep)
	keyRep, err := forensic.ScanFile(filepath.Join(dir, "keys.db"), needles)
	if err != nil {
		t.Fatal(err)
	}
	rep.Merge(keyRep)
	return rep
}

// replayDegLost replays the follower's own WAL and reports whether the
// insert record of tuple tid has its first degradable payload marked
// irrecoverable (epoch key shredded).
func replayDegLost(t *testing.T, db *engine.DB, tid storage.TupleID) bool {
	t.Helper()
	lost := false
	if err := db.Log().Replay(func(r *wal.Record) error {
		if r.Type == wal.RecInsert && r.Tuple == tid {
			lost = len(r.DegLost) > 0 && r.DegLost[0]
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return lost
}

// TestDisconnectedReplicaEnforcesDeadlines is the degradation-critical
// guarantee: a follower partitioned from its leader still executes LCP
// transitions at the deadline, on its OWN clock — and after the
// deadline, the expired accuracy state is unrecoverable from every one
// of the follower's persistent artifacts (storage pages, its WAL, the
// key file), with zero lock skips (nothing on the replica can delay
// enforcement). Fully deterministic: both databases run on simulated
// clocks and batches are fed directly from the leader's log.
func TestDisconnectedReplicaEnforcesDeadlines(t *testing.T) {
	t0 := vclock.Epoch

	leaderClock := vclock.NewSimulated(t0)
	leaderDir := t.TempDir()
	leader, err := engine.Open(engine.Config{Dir: leaderDir, Clock: leaderClock, ShredBucket: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.ExecScript(testSchema); err != nil {
		t.Fatal(err)
	}
	// Wave A at t0, wave B twenty minutes later (its later transition
	// is what lets the follower's scrubber retire wave A's epoch key).
	resA, err := leader.Exec(`INSERT INTO visits (id, who, place) VALUES (1, 'alice', 'Dam 1')`)
	if err != nil {
		t.Fatal(err)
	}
	tidA := resA.LastInsertID
	leaderClock.Advance(20 * time.Minute)
	if _, err := leader.Exec(`INSERT INTO visits (id, who, place) VALUES (2, 'bob', 'Coolsingel 40')`); err != nil {
		t.Fatal(err)
	}

	folClock := vclock.NewSimulated(t0)
	folDir := t.TempDir()
	follower, err := engine.Open(engine.Config{Dir: folDir, Replica: true, Clock: folClock, ShredBucket: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	_, schema, err := leader.ReplSource()
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyReplicatedDDL(schema); err != nil {
		t.Fatal(err)
	}
	feedAll(t, leader, follower, wal.Pos{})
	// ---- the partition starts here: nothing more is ever fed. ----

	// Pre-deadline sanity: the precise value is served, and its stored
	// form is present in the follower's raw store (validates the
	// needle before we assert its absence).
	if got := queryPlaces(t, follower, "precise", 1); len(got) != 1 || got[0] != "Dam 1" {
		t.Fatalf("pre-deadline precise read: %v", got)
	}
	tbl, err := follower.Catalog().Table("visits")
	if err != nil {
		t.Fatal(err)
	}
	tupA, err := follower.StorageManager().Table(tbl).Get(tidA)
	if err != nil {
		t.Fatal(err)
	}
	needles := []forensic.Needle{forensic.NeedleForStored("waveA-address", tupA.Row[2])}
	if rep, err := forensic.ScanStore(follower.StorageManager().Store(), needles); err != nil || rep.Clean() {
		t.Fatalf("needle must be present before the deadline (err=%v clean=%v)", err, rep.Clean())
	}

	// Cross wave A's address deadline on the FOLLOWER's clock. The
	// leader is partitioned away and will never ship this transition.
	folClock.Advance(15*time.Minute + time.Second)
	n, err := follower.DegradeNow()
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatalf("disconnected follower executed %d transitions, want >= 1", n)
	}
	stats := follower.Degrader().Stats()
	if stats.LockSkips != 0 {
		t.Fatalf("LockSkips = %d, want 0 (nothing on a replica may delay enforcement)", stats.LockSkips)
	}

	// The expired accuracy state is gone from every artifact.
	if rep := scanFollower(t, follower, folDir, needles); !rep.Clean() {
		t.Fatalf("forensic scan after deadline found leaks: %v", rep.Findings)
	}
	// Exposure through the query surface: the address-accuracy purpose
	// can no longer observe the tuple at all (core semantics), while
	// the city purpose sees exactly the degraded form.
	if got := queryPlaces(t, follower, "precise", 1); len(got) != 0 {
		t.Fatalf("post-deadline precise read must expose nothing, got %v", got)
	}
	if got := queryPlaces(t, follower, "cities", 1); len(got) != 1 || got[0] != "Amsterdam" {
		t.Fatalf("post-deadline city read: %v", got)
	}

	// Wave A's insert payload in the follower's OWN WAL is ciphertext
	// under a follower epoch key; once wave B's transition passes the
	// same state, the scrubber retires that key and the payload becomes
	// permanently undecipherable — replication never extended the life
	// of log material.
	if replayDegLost(t, follower, storage.TupleID(tidA)) {
		t.Fatal("wave A payload already lost before its key's scrub window")
	}
	folClock.Advance(20*time.Minute + time.Second) // t0+35m+2s: wave B deadline
	if _, err := follower.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	if !replayDegLost(t, follower, storage.TupleID(tidA)) {
		t.Fatal("wave A payload still decipherable after its epoch key's scrub deadline")
	}

	if stats := follower.Degrader().Stats(); stats.LockSkips != 0 {
		t.Fatalf("LockSkips = %d after second tick, want 0", stats.LockSkips)
	}
}

// TestLeaderFirstSchedulesFollowup covers the other half of the
// autonomous-clock rule: when the LEADER's transition arrives first
// (the follower's clock lags), the externally applied batch must still
// schedule the follower's own NEXT transition — a later partition must
// not orphan the rest of the tuple's degradation ladder.
func TestLeaderFirstSchedulesFollowup(t *testing.T) {
	t0 := vclock.Epoch
	leaderClock := vclock.NewSimulated(t0)
	leader, err := engine.Open(engine.Config{Dir: t.TempDir(), Clock: leaderClock})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.ExecScript(testSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Exec(`INSERT INTO visits (id, who, place) VALUES (1, 'alice', 'Dam 1')`); err != nil {
		t.Fatal(err)
	}
	// The leader crosses the address deadline and degrades 0 -> 1.
	leaderClock.Advance(16 * time.Minute)
	if n, err := leader.DegradeNow(); err != nil || n < 1 {
		t.Fatalf("leader transition: n=%d err=%v", n, err)
	}

	// A follower whose clock lags applies insert AND leader transition.
	folClock := vclock.NewSimulated(t0)
	follower, err := engine.Open(engine.Config{Dir: t.TempDir(), Replica: true, Clock: folClock})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	_, schema, err := leader.ReplSource()
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyReplicatedDDL(schema); err != nil {
		t.Fatal(err)
	}
	feedAll(t, leader, follower, wal.Pos{})
	if got := queryPlaces(t, follower, "cities", 1); len(got) != 1 || got[0] != "Amsterdam" {
		t.Fatalf("follower after leader-first transition: %v", got)
	}

	// Partition. The follower alone must fire city -> region at its
	// cumulative deadline (15m + 1h from insert) on its own clock.
	folClock.Advance(76 * time.Minute)
	if n, err := follower.DegradeNow(); err != nil || n < 1 {
		t.Fatalf("autonomous follow-up transition: n=%d err=%v", n, err)
	}
	if got := queryPlaces(t, follower, "cities", 1); len(got) != 0 {
		t.Fatalf("city purpose still sees tuple 1 after the region deadline: %v", got)
	}
}

// TestMonotoneReconciliation: the follower's clock fires a transition
// first; the leader's copy of the same transition arrives later (the
// partition heals) and must be a no-op — degraded accuracy is never
// resurrected, and the stream keeps applying cleanly past it.
func TestMonotoneReconciliation(t *testing.T) {
	t0 := vclock.Epoch
	leaderClock := vclock.NewSimulated(t0)
	leader, err := engine.Open(engine.Config{Dir: t.TempDir(), Clock: leaderClock})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.ExecScript(testSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Exec(`INSERT INTO visits (id, who, place) VALUES (1, 'alice', 'Dam 1')`); err != nil {
		t.Fatal(err)
	}

	folClock := vclock.NewSimulated(t0)
	follower, err := engine.Open(engine.Config{Dir: t.TempDir(), Replica: true, Clock: folClock})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	_, schema, err := leader.ReplSource()
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyReplicatedDDL(schema); err != nil {
		t.Fatal(err)
	}
	pos := feedAll(t, leader, follower, wal.Pos{})

	// Partition. The follower's clock crosses the deadline first.
	folClock.Advance(16 * time.Minute)
	if n, err := follower.DegradeNow(); err != nil || n < 1 {
		t.Fatalf("follower transition: n=%d err=%v", n, err)
	}
	if got := queryPlaces(t, follower, "cities", 1); len(got) != 1 || got[0] != "Amsterdam" {
		t.Fatalf("follower degraded read: %v", got)
	}

	// The leader fires the same transition during the partition...
	leaderClock.Advance(16 * time.Minute)
	if n, err := leader.DegradeNow(); err != nil || n < 1 {
		t.Fatalf("leader transition: n=%d err=%v", n, err)
	}
	// ...and the partition heals: the late duplicate applies as a no-op.
	pos = feedAll(t, leader, follower, pos)
	if got := queryPlaces(t, follower, "cities", 1); len(got) != 1 || got[0] != "Amsterdam" {
		t.Fatalf("post-heal read regressed: %v", got)
	}

	// The stream stays live past the duplicate: a fresh leader write
	// still replicates.
	if _, err := leader.Exec(`INSERT INTO visits (id, who, place) VALUES (2, 'bob', 'Coolsingel 40')`); err != nil {
		t.Fatal(err)
	}
	feedAll(t, leader, follower, pos)
	rows, err := follower.NewConn().Query("SELECT id FROM visits")
	if err != nil || rows.Len() != 2 {
		t.Fatalf("post-heal replication: rows=%v err=%v", rows, err)
	}

	// And the follower's next transition (city -> region at 1h) still
	// fires autonomously — the externally applied leader batch did not
	// orphan the follow-up schedule.
	folClock.Advance(60 * time.Minute) // t0 + 76m > city deadline (15m + 1h)
	if _, err := follower.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	conn := follower.NewConn()
	if err := conn.SetPurpose("cities"); err != nil {
		t.Fatal(err)
	}
	rows, err = conn.Query("SELECT place FROM visits WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 0 {
		t.Fatalf("city purpose still sees tuple 1 after the region deadline: %v", rows.Data)
	}
}

// TestLateCopiesAfterKeyShred: a follower partitioned from its leader
// crosses deadlines on its own clock, fires the transitions itself and
// shreds the epoch keys of the states it left. When the partition heals
// the leader's copies of the same transitions arrive late: they must
// apply as no-ops — not fail sealing a payload under a key that no
// longer exists — and the resume position must still advance.
func TestLateCopiesAfterKeyShred(t *testing.T) {
	t0 := vclock.Epoch
	leaderClock := vclock.NewSimulated(t0)
	leader, err := engine.Open(engine.Config{Dir: t.TempDir(), Clock: leaderClock, ShredBucket: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.ExecScript(testSchema); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		`INSERT INTO visits (id, who, place) VALUES (1, 'alice', 'Dam 1')`,
		`INSERT INTO visits (id, who, place) VALUES (2, 'bob', 'Coolsingel 40')`,
	} {
		if _, err := leader.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}

	folClock := vclock.NewSimulated(t0)
	follower, err := engine.Open(engine.Config{Dir: t.TempDir(), Replica: true, Clock: folClock, ShredBucket: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	_, schema, err := leader.ReplSource()
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyReplicatedDDL(schema); err != nil {
		t.Fatal(err)
	}
	pos := feedAll(t, leader, follower, wal.Pos{})

	// Partition. The follower passes the address and the city deadline
	// (15m, 15m + 1h) by more than a key bucket: both transitions fire
	// here and the keys of states address and city are shredded.
	folClock.Advance(80 * time.Minute)
	if n, err := follower.DegradeNow(); err != nil || n != 4 {
		t.Fatalf("follower transitions: n=%d err=%v, want 4", n, err)
	}
	// The leader fires address -> city only, then deletes tuple 2.
	leaderClock.Advance(16 * time.Minute)
	if n, err := leader.DegradeNow(); err != nil || n != 2 {
		t.Fatalf("leader transitions: n=%d err=%v, want 2", n, err)
	}
	if _, err := leader.Exec(`DELETE FROM visits WHERE id = 2`); err != nil {
		t.Fatal(err)
	}

	// Heal: the late copies (into a state whose key is gone) are no-ops.
	healed := feedAll(t, leader, follower, pos)
	if healed == pos || follower.ReplPos() != healed {
		t.Fatalf("resume position after the heal: follower at %v, leader log fed up to %v (from %v)", follower.ReplPos(), healed, pos)
	}
	if got := queryPlaces(t, follower, "cities", 1); len(got) != 0 {
		t.Fatalf("late copy brought city accuracy back: %v", got)
	}
	rows, err := follower.NewConn().Query("SELECT id FROM visits")
	if err != nil || rows.Len() != 1 {
		t.Fatalf("after the heal: rows=%v err=%v, want tuple 1 only", rows, err)
	}

	// The follower then runs ahead to the end of the ladder and deletes
	// tuple 1; the leader's later transitions and its own delete of a
	// tuple that is gone here must not stop the stream either.
	folClock.Advance(40 * 24 * time.Hour)
	if _, err := follower.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	leaderClock.Advance(40 * 24 * time.Hour)
	if _, err := leader.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Exec(`INSERT INTO visits (id, who, place) VALUES (3, 'carol', 'Dam 1')`); err != nil {
		t.Fatal(err)
	}
	feedAll(t, leader, follower, healed)
	rows, err = follower.NewConn().Query("SELECT id FROM visits")
	if err != nil || rows.Len() != 1 || rows.Data[0][0].Int() != 3 {
		t.Fatalf("after the second heal: rows=%v err=%v, want tuple 3 only", rows, err)
	}
}

// TestReplicaAppliesWhileTicking: replicated leader batches commit
// through the replica's one commit path while its own degrader ticks on
// its own clock, so the two race: either side may fire a transition
// first, and a local tick may land between a leader batch's late-copy
// filter and its encode. One goroutine feeds the leader's batches in
// order (retrying one whose encode met a key the replica has shredded
// meanwhile, as a reconnecting follower does from its ReplPos) while the
// replica advances its clock a minute per tick, never more than ten
// minutes ahead of the leader's inserts. At the end every tuple is in
// the coarser of the leader's state and the state the replica's clock
// demands, nothing is overdue, a reopen reads the same states, and the
// replay position is the end of the fed stream.
func TestReplicaAppliesWhileTicking(t *testing.T) {
	const inserts, leaderSteps, replicaSteps, ahead = 40, 120, 100, 10
	t0 := vclock.Epoch
	leaderClock := vclock.NewSimulated(t0)
	leader, err := engine.Open(engine.Config{Dir: t.TempDir(), Clock: leaderClock})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.ExecScript(testSchema); err != nil {
		t.Fatal(err)
	}

	// The leader's history, one insert a minute for 40 minutes and a tick
	// every minute for two hours, cut into its commit batches. Each is
	// decoded right after the step that wrote it, while the leader still
	// holds its keys.
	type leaderBatch struct {
		recs        []*wal.Record
		start, next wal.Pos
		step        int
	}
	var stream []leaderBatch
	var pos wal.Pos
	for step := 0; step < leaderSteps; step++ {
		if step < inserts {
			if _, err := leader.Exec(`INSERT INTO visits (id, who, place) VALUES (?, 'w', ?)`,
				value.Int(int64(step+1)), value.Text([]string{"Dam 1", "Coolsingel 40"}[step%2])); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := leader.DegradeNow(); err != nil {
			t.Fatal(err)
		}
		log := leader.Log()
		if err := log.TailRaw(pos, log.EndPos(), func(payload []byte, next wal.Pos) error {
			recs, err := wal.DecodeRecords(payload, log.Codec())
			stream = append(stream, leaderBatch{recs, pos, next, step})
			pos = next
			return err
		}); err != nil {
			t.Fatal(err)
		}
		leaderClock.Advance(time.Minute)
	}

	dir := t.TempDir()
	folClock := vclock.NewSimulated(t0)
	cfg := engine.Config{Dir: dir, Replica: true, Clock: folClock, ShredBucket: time.Minute}
	follower, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { follower.Close() }()
	_, schema, err := leader.ReplSource()
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyReplicatedDDL(schema); err != nil {
		t.Fatal(err)
	}

	var fed atomic.Int64 // the leader step whose batches are all applied
	fed.Store(-1)
	feedErr := make(chan error, 1)
	go func() {
		defer fed.Store(leaderSteps)
		for i := 0; i < len(stream); i++ {
			b := stream[i]
			err := follower.ApplyReplicated(b.recs, b.next)
			if errors.Is(err, wal.ErrKeyShredded) && follower.ReplPos() == b.start {
				i-- // resume from ReplPos: the filter drops the late copy now
				continue
			}
			if err != nil {
				feedErr <- fmt.Errorf("batch %d (leader step %d): %w", i, b.step, err)
				return
			}
			if i+1 == len(stream) || stream[i+1].step != b.step {
				fed.Store(int64(b.step))
			}
		}
		feedErr <- nil
	}()
	for step := 1; step <= replicaSteps; step++ {
		for deadline := time.Now().Add(10 * time.Second); step-ahead < inserts && fed.Load() < int64(step-ahead); {
			if time.Now().After(deadline) {
				t.Fatalf("replica step %d: the feed is stuck at leader step %d", step, fed.Load())
			}
			time.Sleep(50 * time.Microsecond)
		}
		folClock.Advance(time.Minute)
		if _, err := follower.DegradeNow(); err != nil {
			t.Fatalf("replica tick at step %d: %v", step, err)
		}
	}
	if err := <-feedErr; err != nil {
		t.Fatal(err)
	}
	if _, err := follower.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	if lag := follower.Degrader().Lag(folClock.Now()); lag != 0 {
		t.Fatalf("replica lag %v after its last tick, want 0", lag)
	}
	if got, want := follower.ReplPos(), stream[len(stream)-1].next; got != want {
		t.Fatalf("replica resumes at %v, want the end of the fed stream %v", got, want)
	}

	// The state the replica's own clock demands of tuple id (inserted at
	// minute id-1): address for 15 minutes, city for an hour after that,
	// region for the rest of this test.
	byClock := func(id int64) uint8 {
		switch age := folClock.Now().Sub(t0.Add(time.Duration(id-1) * time.Minute)); {
		case age < 15*time.Minute:
			return 0
		case age < 75*time.Minute:
			return 1
		}
		return 2
	}
	want := placeStates(t, leader)
	for id, st := range want {
		want[id] = max(st, byClock(id))
	}
	if got := placeStates(t, follower); !maps.Equal(got, want) {
		t.Fatalf("replica states %v, want the coarser of the leader's and its clock's %v", got, want)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	follower, err = engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := placeStates(t, follower); !maps.Equal(got, want) {
		t.Fatalf("reopened replica states %v, want %v", got, want)
	}
	if got, want := follower.ReplPos(), stream[len(stream)-1].next; got != want {
		t.Fatalf("reopened replica resumes at %v, want %v", got, want)
	}
}

// placeStates returns the stored state of each visits row's place, by id.
func placeStates(t *testing.T, db *engine.DB) map[int64]uint8 {
	t.Helper()
	tbl, err := db.Catalog().Table("visits")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int64]uint8)
	if err := db.StorageManager().Table(tbl).Scan(func(tup storage.Tuple) bool {
		out[tup.Row[0].Int()] = tup.States[0]
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}
