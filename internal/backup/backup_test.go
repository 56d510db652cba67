package backup

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"instantdb/internal/engine"
	"instantdb/internal/forensic"
	"instantdb/internal/storage"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
	"instantdb/internal/wal"
)

const testSchema = `
CREATE DOMAIN location TREE LEVELS (address, city, region, country)
  PATH ('Dam 1', 'Amsterdam', 'Noord-Holland', 'Netherlands')
  PATH ('Coolsingel 40', 'Rotterdam', 'Zuid-Holland', 'Netherlands');
CREATE POLICY locpol ON location (
  HOLD address FOR '15m',
  HOLD city FOR '1h',
  HOLD region FOR '1d',
  HOLD country FOR '1mo'
) THEN DELETE;
CREATE TABLE visits (
  id INT PRIMARY KEY,
  who TEXT NOT NULL,
  place TEXT DEGRADABLE DOMAIN location POLICY locpol
);
DECLARE PURPOSE precise SET ACCURACY LEVEL address FOR visits.place;
DECLARE PURPOSE cities SET ACCURACY LEVEL city FOR visits.place;
`

// openTestDB opens a shred-mode database on a simulated clock with
// minute-wide epoch-key buckets (so shreds fire within test timescales).
func openTestDB(t *testing.T, dir string, clock vclock.Clock, replica bool) *engine.DB {
	t.Helper()
	db, err := engine.Open(engine.Config{Dir: dir, Clock: clock, ShredBucket: time.Minute, Replica: replica})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
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

// storedNeedle builds the forensic needle for the stored form of tuple
// tid's place column.
func storedNeedle(t *testing.T, db *engine.DB, tid storage.TupleID, label string) forensic.Needle {
	t.Helper()
	tbl, err := db.Catalog().Table("visits")
	if err != nil {
		t.Fatal(err)
	}
	tup, err := db.StorageManager().Table(tbl).Get(tid)
	if err != nil {
		t.Fatal(err)
	}
	return forensic.NeedleForStored(label, tup.Row[2])
}

// scanAll runs the forensic adversary over every persistent artifact of
// a database directory: raw pages, WAL segments, key file.
func scanAll(t *testing.T, dir string, needles []forensic.Needle) forensic.Report {
	t.Helper()
	rep, err := forensic.ScanDir(filepath.Join(dir, "wal"), needles)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"pages.db", "keys.db"} {
		sub, err := forensic.ScanFile(filepath.Join(dir, f), needles)
		if err != nil {
			t.Fatal(err)
		}
		rep.Merge(sub)
	}
	return rep
}

// restoreDirs returns a fresh parent for restore targets (Restore
// requires a non-existent target directory).
func restoreTarget(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

func TestFullBackupRestoreRoundTrip(t *testing.T) {
	clock := vclock.NewSimulated(vclock.Epoch)
	liveDir := filepath.Join(t.TempDir(), "live")
	db := openTestDB(t, liveDir, clock, false)
	if err := db.ExecScript(testSchema); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		place := "Dam 1"
		if i%2 == 0 {
			place = "Coolsingel 40"
		}
		if _, err := db.Exec("INSERT INTO visits (id, who, place) VALUES (?, ?, ?)",
			value.Int(int64(i)), value.Text(fmt.Sprintf("user-%d", i)), value.Text(place)); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	sum, err := Full(db, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Tuples != 5 {
		t.Fatalf("archived %d tuples, want 5", sum.Tuples)
	}
	hdr, err := ReadHeader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Incremental || hdr.End != sum.End || hdr.Epoch != sum.Epoch {
		t.Fatalf("header %+v does not match summary %+v", hdr, sum)
	}

	target := restoreTarget(t, "restored")
	rsum, err := Restore(RestoreOptions{Dir: target, KeysPath: filepath.Join(liveDir, "keys.db")},
		bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rsum.Tuples != 5 || rsum.Lost != 0 || rsum.Erased != 0 {
		t.Fatalf("restore summary %+v, want 5 tuples and nothing lost", rsum)
	}
	restored := openTestDB(t, target, vclock.NewSimulated(clock.Now()), false)
	if got := queryPlaces(t, restored, "precise", 1); len(got) != 1 || got[0] != "Dam 1" {
		t.Fatalf("restored precise read: %v", got)
	}
	rows, err := restored.NewConn().Query("SELECT id, who FROM visits")
	if err != nil || rows.Len() != 5 {
		t.Fatalf("restored row count %d err %v, want 5", rows.Len(), err)
	}
}

// TestRetroactiveDegradation is the deterministic acceptance proof: a
// full backup taken at full accuracy is retroactively degraded when the
// live database shreds the epoch key at the LCP deadline — the expired
// accuracy state is Lost in the restored store, indexes and WAL, and a
// forensic scan of both the restored directory and the raw archive
// bytes finds no plaintext. A chain that also includes an incremental
// taken after the transition restores the degraded (still-live) form.
func TestRetroactiveDegradation(t *testing.T) {
	clock := vclock.NewSimulated(vclock.Epoch)
	liveDir := filepath.Join(t.TempDir(), "live")
	db := openTestDB(t, liveDir, clock, false)
	if err := db.ExecScript(testSchema); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`INSERT INTO visits (id, who, place) VALUES (1, 'alice', 'Dam 1')`)
	if err != nil {
		t.Fatal(err)
	}
	needles := []forensic.Needle{storedNeedle(t, db, res.LastInsertID, "accurate-address")}

	// Full backup at full accuracy.
	var base bytes.Buffer
	sum, err := Full(db, &base)
	if err != nil {
		t.Fatal(err)
	}
	// Even before any shred, the archive itself must carry only
	// ciphertext — the plaintext stored form never leaves the engine.
	if rep, err := forensic.ScanReader("archive", "base", bytes.NewReader(base.Bytes()), needles); err != nil || !rep.Clean() {
		t.Fatalf("plaintext leaked into the archive: %v (err=%v)", rep.Findings, err)
	}

	// Restore BEFORE the deadline: the accurate value is recoverable
	// (that is what backups are for).
	early := restoreTarget(t, "early")
	if _, err := Restore(RestoreOptions{Dir: early, KeysPath: filepath.Join(liveDir, "keys.db")},
		bytes.NewReader(base.Bytes())); err != nil {
		t.Fatal(err)
	}
	earlyDB := openTestDB(t, early, vclock.NewSimulated(clock.Now()), false)
	if got := queryPlaces(t, earlyDB, "precise", 1); len(got) != 1 || got[0] != "Dam 1" {
		t.Fatalf("pre-deadline restore must recover the accurate value, got %v", got)
	}

	// The live database crosses the deadline and shreds the epoch key.
	clock.Advance(16 * time.Minute)
	if n, err := db.DegradeNow(); err != nil || n < 1 {
		t.Fatalf("live transition: n=%d err=%v", n, err)
	}
	// An incremental extends the chain past the transition.
	var incr bytes.Buffer
	if _, err := Incremental(db, sum.End, &incr); err != nil {
		t.Fatal(err)
	}

	// Base-only restore: the expired accuracy state is gone for good.
	target := restoreTarget(t, "after-shred")
	rsum, err := Restore(RestoreOptions{Dir: target, KeysPath: filepath.Join(liveDir, "keys.db")},
		bytes.NewReader(base.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rsum.Lost < 1 || rsum.Erased < 1 {
		t.Fatalf("restore summary %+v, want the shredded payload lost and its attribute erased", rsum)
	}
	restored := openTestDB(t, target, vclock.NewSimulated(clock.Now()), false)
	if n, err := restored.DegradeNow(); err != nil {
		t.Fatalf("degrade catch-up: n=%d err=%v", n, err)
	}
	if got := queryPlaces(t, restored, "precise", 1); len(got) != 0 {
		t.Fatalf("expired accuracy state served after restore: %v", got)
	}
	if got := queryPlaces(t, restored, "cities", 1); len(got) != 0 {
		t.Fatalf("base-only restore cannot know the city form, got %v", got)
	}
	rows, err := restored.NewConn().Query("SELECT who FROM visits WHERE id = 1")
	if err != nil || rows.Len() != 1 || rows.Data[0][0].Text() != "alice" {
		t.Fatalf("stable columns must survive: %v err=%v", rows, err)
	}
	// The insert payload in the restored WAL is permanently Lost.
	lost := false
	if err := restored.Log().Replay(func(r *wal.Record) error {
		if r.Type == wal.RecInsert && r.Tuple == res.LastInsertID {
			lost = len(r.DegLost) > 0 && r.DegLost[0]
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !lost {
		t.Fatal("restored WAL still opens the shredded payload")
	}
	restored.Close()
	// The adversary with raw byte access finds nothing: restored
	// directory (pages, WAL, keys) and the raw archive bytes.
	if rep := scanAll(t, target, needles); !rep.Clean() {
		t.Fatalf("forensic scan of restored directory found leaks: %v", rep.Findings)
	}
	if rep, err := forensic.ScanReader("archive", "base", bytes.NewReader(base.Bytes()), needles); err != nil || !rep.Clean() {
		t.Fatalf("forensic scan of archive bytes: %v (err=%v)", rep.Findings, err)
	}

	// Base+incremental restore: the degraded form (whose key lives)
	// comes back; the expired one still does not.
	chain := restoreTarget(t, "chained")
	if _, err := Restore(RestoreOptions{Dir: chain, KeysPath: filepath.Join(liveDir, "keys.db")},
		bytes.NewReader(base.Bytes()), bytes.NewReader(incr.Bytes())); err != nil {
		t.Fatal(err)
	}
	chainDB := openTestDB(t, chain, vclock.NewSimulated(clock.Now()), false)
	if got := queryPlaces(t, chainDB, "precise", 1); len(got) != 0 {
		t.Fatalf("chained restore resurrected the expired state: %v", got)
	}
	if got := queryPlaces(t, chainDB, "cities", 1); len(got) != 1 || got[0] != "Amsterdam" {
		t.Fatalf("chained restore must recover the degraded form, got %v", got)
	}
	chainDB.Close()
	if rep := scanAll(t, chain, needles); !rep.Clean() {
		t.Fatalf("forensic scan of chained restore found leaks: %v", rep.Findings)
	}
}

// TestIncrementalRoundTripExact proves a base+incremental restore
// round-trips row-for-row: every tuple's id, insert time, states and
// stored row equal the source's.
func TestIncrementalRoundTripExact(t *testing.T) {
	clock := vclock.NewSimulated(vclock.Epoch)
	liveDir := filepath.Join(t.TempDir(), "live")
	db := openTestDB(t, liveDir, clock, false)
	if err := db.ExecScript(testSchema); err != nil {
		t.Fatal(err)
	}
	insert := func(id int, place string) {
		t.Helper()
		if _, err := db.Exec("INSERT INTO visits (id, who, place) VALUES (?, ?, ?)",
			value.Int(int64(id)), value.Text(fmt.Sprintf("user-%d", id)), value.Text(place)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 8; i++ {
		insert(i, "Dam 1")
	}
	var base bytes.Buffer
	sum, err := Full(db, &base)
	if err != nil {
		t.Fatal(err)
	}
	// Post-base churn: inserts, a stable update, a delete.
	for i := 9; i <= 12; i++ {
		insert(i, "Coolsingel 40")
	}
	if _, err := db.Exec("UPDATE visits SET who = ? WHERE id = ?", value.Text("renamed"), value.Int(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DELETE FROM visits WHERE id = ?", value.Int(3)); err != nil {
		t.Fatal(err)
	}
	var incr bytes.Buffer
	isum, err := Incremental(db, sum.End, &incr)
	if err != nil {
		t.Fatal(err)
	}
	if isum.Batches < 6 {
		t.Fatalf("incremental carried %d batches, want at least 6", isum.Batches)
	}

	target := restoreTarget(t, "restored")
	if _, err := Restore(RestoreOptions{Dir: target, KeysPath: filepath.Join(liveDir, "keys.db")},
		bytes.NewReader(base.Bytes()), bytes.NewReader(incr.Bytes())); err != nil {
		t.Fatal(err)
	}
	restored := openTestDB(t, target, vclock.NewSimulated(clock.Now()), false)
	if !reflect.DeepEqual(tableImage(t, db), tableImage(t, restored)) {
		t.Fatalf("restored table diverges from source:\nsource:   %v\nrestored: %v",
			tableImage(t, db), tableImage(t, restored))
	}
}

// tableImage materializes visits as id -> (insert time, states, row).
func tableImage(t *testing.T, db *engine.DB) map[storage.TupleID]string {
	t.Helper()
	tbl, err := db.Catalog().Table("visits")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[storage.TupleID]string)
	err = db.StorageManager().Table(tbl).Scan(func(tp storage.Tuple) bool {
		out[tp.ID] = fmt.Sprintf("%d|%v|%v|%v", tp.InsertedAt.UnixNano(), tp.States, tp.Row, tp.ID)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// gateWriter blocks its first Write past trip bytes until released —
// the wedged backup consumer.
type gateWriter struct {
	mu      sync.Mutex
	n       int
	trip    int
	blocked chan struct{} // closed when the writer parks
	release chan struct{} // closing it unparks the writer
	tripped bool
}

// Write implements io.Writer.
func (g *gateWriter) Write(p []byte) (int, error) {
	g.mu.Lock()
	g.n += len(p)
	shouldBlock := !g.tripped && g.n >= g.trip
	if shouldBlock {
		g.tripped = true
	}
	g.mu.Unlock()
	if shouldBlock {
		close(g.blocked)
		<-g.release
	}
	return len(p), nil
}

// TestBackupNeverDelaysDegrader: a full backup draining into a wedged
// writer is in flight while every tuple's deadline is due; the
// degradation engine executes the whole wave with zero lock skips —
// backing up never delays enforcement.
func TestBackupNeverDelaysDegrader(t *testing.T) {
	clock := vclock.NewSimulated(vclock.Epoch)
	liveDir := filepath.Join(t.TempDir(), "live")
	nosync := false
	db, err := engine.Open(engine.Config{Dir: liveDir, Clock: clock, ShredBucket: time.Minute, WALSync: &nosync})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(testSchema); err != nil {
		t.Fatal(err)
	}
	conn := db.NewConn()
	stmt, err := conn.Prepare("INSERT INTO visits (id, who, place) VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 150)
	const rows = 1200
	for i := 1; i <= rows; i++ {
		if _, err := stmt.Exec(value.Int(int64(i)), value.Text(pad), value.Text("Dam 1")); err != nil {
			t.Fatal(err)
		}
	}
	// Every address deadline is now due.
	clock.Advance(16 * time.Minute)

	g := &gateWriter{trip: 64 << 10, blocked: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := Full(db, g)
		done <- err
	}()
	<-g.blocked // the backup is parked mid-archive, snapshot pinned

	n, err := db.DegradeNow()
	if err != nil {
		t.Fatal(err)
	}
	if n < rows {
		t.Fatalf("degrader executed %d transitions under a blocked backup, want >= %d", n, rows)
	}
	if st := db.Degrader().Stats(); st.LockSkips != 0 {
		t.Fatalf("LockSkips = %d, want 0 (a backup must never hold row locks)", st.LockSkips)
	}
	close(g.release)
	if err := <-done; err != nil {
		t.Fatalf("backup under concurrent degradation failed: %v", err)
	}
}

// TestCrashMidRestore: a crash between building the temporary directory
// and the atomic rename leaves the target untouched, and a retry
// succeeds from scratch.
func TestCrashMidRestore(t *testing.T) {
	clock := vclock.NewSimulated(vclock.Epoch)
	liveDir := filepath.Join(t.TempDir(), "live")
	db := openTestDB(t, liveDir, clock, false)
	if err := db.ExecScript(testSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO visits (id, who, place) VALUES (1, 'alice', 'Dam 1')`); err != nil {
		t.Fatal(err)
	}
	var base bytes.Buffer
	if _, err := Full(db, &base); err != nil {
		t.Fatal(err)
	}
	target := restoreTarget(t, "restored")
	keys := filepath.Join(liveDir, "keys.db")

	// Crash between temp-dir build and rename.
	_, err := Restore(RestoreOptions{Dir: target, KeysPath: keys, crashBeforePromote: true},
		bytes.NewReader(base.Bytes()))
	if !errors.Is(err, errCrashHook) {
		t.Fatalf("crash hook returned %v", err)
	}
	if _, err := os.Stat(target); !os.IsNotExist(err) {
		t.Fatalf("target exists after the crash (err=%v); the original path must be untouched", err)
	}
	if _, err := os.Stat(target + ".restore-tmp"); err != nil {
		t.Fatalf("crash must leave the temp dir behind (the kill happened before cleanup): %v", err)
	}

	// Retry: the stale temp dir is discarded and the restore completes.
	if _, err := Restore(RestoreOptions{Dir: target, KeysPath: keys}, bytes.NewReader(base.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(target + ".restore-tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp dir still present after a successful retry (err=%v)", err)
	}
	restored := openTestDB(t, target, vclock.NewSimulated(clock.Now()), false)
	if got := queryPlaces(t, restored, "precise", 1); len(got) != 1 || got[0] != "Dam 1" {
		t.Fatalf("retried restore: %v", got)
	}
}

// TestRestoreWithoutKeys: with no key file at all, every sealed payload
// restores as Lost and its attribute is erased; stable columns survive.
func TestRestoreWithoutKeys(t *testing.T) {
	clock := vclock.NewSimulated(vclock.Epoch)
	liveDir := filepath.Join(t.TempDir(), "live")
	db := openTestDB(t, liveDir, clock, false)
	if err := db.ExecScript(testSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO visits (id, who, place) VALUES (1, 'alice', 'Dam 1')`); err != nil {
		t.Fatal(err)
	}
	var base bytes.Buffer
	if _, err := Full(db, &base); err != nil {
		t.Fatal(err)
	}
	target := restoreTarget(t, "restored")
	rsum, err := Restore(RestoreOptions{Dir: target}, bytes.NewReader(base.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rsum.Lost != 1 || rsum.Erased != 1 {
		t.Fatalf("restore summary %+v, want 1 lost and 1 erased", rsum)
	}
	restored := openTestDB(t, target, vclock.NewSimulated(clock.Now()), false)
	if got := queryPlaces(t, restored, "precise", 1); len(got) != 0 {
		t.Fatalf("sealed payload recovered without its keys: %v", got)
	}
	rows, err := restored.NewConn().Query("SELECT who FROM visits WHERE id = 1")
	if err != nil || rows.Len() != 1 || rows.Data[0][0].Text() != "alice" {
		t.Fatalf("stable columns must survive a keyless restore: %v err=%v", rows, err)
	}
}

// TestRestoreChainValidation: archives must chain base-first and
// position-contiguous.
func TestRestoreChainValidation(t *testing.T) {
	clock := vclock.NewSimulated(vclock.Epoch)
	liveDir := filepath.Join(t.TempDir(), "live")
	db := openTestDB(t, liveDir, clock, false)
	if err := db.ExecScript(testSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO visits (id, who, place) VALUES (1, 'alice', 'Dam 1')`); err != nil {
		t.Fatal(err)
	}
	var base bytes.Buffer
	sum, err := Full(db, &base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO visits (id, who, place) VALUES (2, 'bob', 'Coolsingel 40')`); err != nil {
		t.Fatal(err)
	}
	var incr bytes.Buffer
	if _, err := Incremental(db, sum.End, &incr); err != nil {
		t.Fatal(err)
	}

	if _, err := Restore(RestoreOptions{Dir: restoreTarget(t, "a")}, bytes.NewReader(incr.Bytes())); err == nil {
		t.Fatal("restore accepted an incremental as the base archive")
	}
	// A gap in the chain: an incremental starting past the base's end.
	if _, err := db.Exec(`INSERT INTO visits (id, who, place) VALUES (3, 'eve', 'Dam 1')`); err != nil {
		t.Fatal(err)
	}
	var incr2 bytes.Buffer
	if _, err := Incremental(db, db.Log().EndPos(), &incr2); err != nil {
		t.Fatal(err)
	}
	_, err = Restore(RestoreOptions{Dir: restoreTarget(t, "b")},
		bytes.NewReader(base.Bytes()), bytes.NewReader(incr2.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "chain is broken") {
		t.Fatalf("restore accepted a broken chain (err=%v)", err)
	}
	// An incremental from a position past the log end, or from a
	// mid-batch offset, is refused instead of silently producing an
	// archive that claims coverage it does not have.
	if _, err := Incremental(db, wal.Pos{Seg: 9, Off: 9999}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "past the log end") {
		t.Fatalf("incremental from a past-end position: %v", err)
	}
	if _, err := Incremental(db, wal.Pos{Seg: 1, Off: sum.End.Off + 1}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "batch boundary") {
		t.Fatalf("incremental from a mid-batch position: %v", err)
	}
	// Restoring over an existing directory is refused.
	exists := restoreTarget(t, "c")
	if err := os.MkdirAll(exists, 0o700); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(RestoreOptions{Dir: exists}, bytes.NewReader(base.Bytes())); err == nil {
		t.Fatal("restore overwrote an existing directory")
	}
}

// TestCorruptSectionLengthRejected: a corrupt (or hostile) section
// length field is refused as a clean error before any allocation.
func TestCorruptSectionLengthRejected(t *testing.T) {
	clock := vclock.NewSimulated(vclock.Epoch)
	db := openTestDB(t, filepath.Join(t.TempDir(), "live"), clock, false)
	if err := db.ExecScript(testSchema); err != nil {
		t.Fatal(err)
	}
	var base bytes.Buffer
	if _, err := Full(db, &base); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), base.Bytes()...)
	// First section header starts right after the 8-byte magic; blow up
	// its declared length.
	raw[9], raw[10], raw[11], raw[12] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := ReadHeader(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "claims") {
		t.Fatalf("corrupt section length accepted: %v", err)
	}
	if _, err := Restore(RestoreOptions{Dir: restoreTarget(t, "x")}, bytes.NewReader(raw)); err == nil {
		t.Fatalf("restore accepted a corrupt archive")
	}
}

// TestRestoreRefusesFormat1Archive: an archive written before the WAL's
// run encoding carries per-record sections this build cannot read. It
// is refused at its header with the version error — no record byte
// reaches the decoder, and nothing is left behind at the target.
func TestRestoreRefusesFormat1Archive(t *testing.T) {
	// A format 1 insert record: type, table u32, tuple u64, and fields the
	// run decoder would misread as a count of 2^56 records.
	rec := append([]byte{byte(wal.RecInsert), 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}, bytes.Repeat([]byte{0xff}, 40)...)
	refusesArchive(t, 1, rec)
}

// TestRestoreRefusesFormat2Archive: an archive of runs whose values
// carry fixed-width INTs is refused the same way — its sections are well
// framed, and its payloads would misread as varints.
func TestRestoreRefusesFormat2Archive(t *testing.T) {
	// A format 2 update run: type, table, count, tuple, then column 1 and
	// an INT of kind byte plus 8 bytes.
	rec := []byte{byte(wal.RecUpdateStable), 1, 1, 7, 1, 1, 0, 0, 0, 0, 0, 0, 0, 42}
	refusesArchive(t, 2, rec)
}

// TestRestoreRefusesFormat3Archive: an archive of runs whose stable
// rows are written row by row is refused at its header as well — its
// id deltas would misread as a seq's mode byte.
func TestRestoreRefusesFormat3Archive(t *testing.T) {
	// A format 3 delete run of ids 7 and 8: type, table, count, first
	// id, delta +1.
	rec := []byte{byte(wal.RecDelete), 1, 2, 7, 2}
	refusesArchive(t, 3, rec)
}

// refusesArchive restores an archive of format version whose records
// section is rec, and requires the version error and nothing left at
// the target.
func refusesArchive(t *testing.T, version uint16, rec []byte) {
	t.Helper()
	var old bytes.Buffer
	aw, err := newArchiveWriter(&old)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.header(Header{Version: version, End: wal.Pos{Seg: 1, Off: 118}, Epoch: 3}); err != nil {
		t.Fatal(err)
	}
	if err := aw.section(secDDL, []byte(testSchema)); err != nil {
		t.Fatal(err)
	}
	if err := aw.section(secRecords, rec); err != nil {
		t.Fatal(err)
	}
	if err := aw.end(1, 0); err != nil {
		t.Fatal(err)
	}
	target := restoreTarget(t, "restored")
	_, err = Restore(RestoreOptions{Dir: target}, bytes.NewReader(old.Bytes()))
	if want := fmt.Sprintf("format version %d unsupported", version); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("restore of a format %d archive: %v, want the version error", version, err)
	}
	for _, p := range []string{target, target + ".restore-tmp"} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s exists after the refused restore (err=%v)", p, err)
		}
	}
}
