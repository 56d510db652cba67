package trace

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAuditNilSafety(t *testing.T) {
	var a *Audit
	a.Append(Event{Kind: EvFired})
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if a.Tail(5) != nil || a.Seq() != 0 {
		t.Fatal("nil audit should be empty")
	}
}

func TestAuditAppendVerifyReopen(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenAudit(dir)
	if err != nil {
		t.Fatal(err)
	}
	a.Append(Event{Kind: EvScheduled, Table: "msg", Tuple: 1, Attr: "body", Deadline: 100})
	a.Append(Event{Kind: EvFired, Table: "msg", Tuple: 1, Attr: "body", Deadline: 100, Actual: 103, Detail: "to=Summary"})
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	n, err := Verify(dir)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if n != 3 { // 2 events + checkpoint marker
		t.Fatalf("verified %d events, want 3", n)
	}

	// Reopen: chain and sequence continue, tail is restored.
	a2, err := OpenAudit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Seq() != 3 {
		t.Fatalf("reopened seq %d, want 3", a2.Seq())
	}
	tail := a2.Tail(0)
	if len(tail) != 3 || tail[1].Kind != EvFired || tail[1].Delta() != 3 || tail[1].Tuple != 1 {
		t.Fatalf("restored tail = %+v", tail)
	}
	a2.Append(Event{Kind: EvKeyShredded, Detail: "epoch=4"})
	if err := a2.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := Verify(dir); err != nil || n != 4 {
		t.Fatalf("after reopen append: n=%d err=%v", n, err)
	}
}

// TestAuditBlockRoundTrip pushes events through the block encoder and
// decoder: unset timestamps, deltas in both directions, the extremes of
// the tuple id and repeated and fresh strings must all come back.
func TestAuditBlockRoundTrip(t *testing.T) {
	evs := []Event{
		{Kind: EvScheduled, UnixNano: 1_000_000, Table: "person", Tuple: 7, Attr: "location", Deadline: 1_000_000 + int64(15*time.Minute)},
		{Kind: EvScheduled, UnixNano: 1_000_000, Table: "person", Tuple: 7, Detail: "tuple-delete", Deadline: 1_000_000 + int64(30*24*time.Hour)},
		{Kind: EvFired, UnixNano: 900_000, Table: "person", Tuple: 3, Attr: "location", Deadline: 5, Actual: 900_000, Detail: "state 0→1"},
		{Kind: EvKeyShredded, UnixNano: 900_001, Table: "person", Attr: "location", Detail: "2 epoch keys"},
		{Kind: EvCheckpoint, UnixNano: 2_000_000},
		{Kind: EvRetried, UnixNano: 2_000_000, Table: "other", Tuple: ^uint64(0), Attr: "a", Deadline: -4, Actual: 1 << 62, Detail: "row lock busy"},
		{Kind: Kind(200), UnixNano: -1},
	}
	var b block
	for i := range evs {
		evs[i].Seq = 41 + uint64(i)
		b.add(&evs[i])
	}
	got, err := decodeAuditBlock(b.appendBody(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, evs)
	}
}

// tamperTrail writes a three-segment trail of one-event blocks (a 64 KiB
// Detail exceeds the block byte limit, so every event seals its own
// block) and returns its directory.
func tamperTrail(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	a, err := OpenAudit(dir)
	if err != nil {
		t.Fatal(err)
	}
	filler := strings.Repeat("x", 64<<10)
	for i := 0; i < 40; i++ {
		a.Append(Event{Kind: EvFired, Table: "msg", Tuple: uint64(i + 1), Attr: "body", Deadline: 50, Actual: 51, Detail: filler})
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if ids, _ := auditSegmentIDs(dir); len(ids) != 3 {
		t.Fatalf("want 3 segments, got %v", ids)
	}
	if n, err := Verify(dir); err != nil || n != 40 {
		t.Fatalf("untampered trail: n=%d err=%v", n, err)
	}
	return dir
}

// frameOffsets returns the start offset of every frame of a segment
// image, plus the end of the last.
func frameOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	offs := []int{segHdrSize}
	for off := segHdrSize; off < len(data); {
		off += frameHdrSize + int(binary.LittleEndian.Uint32(data[off:]))
		offs = append(offs, off)
	}
	if offs[len(offs)-1] != len(data) {
		t.Fatalf("segment image does not end on a frame boundary")
	}
	return offs
}

func resealCRC(frame []byte) {
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[frameHdrSize:]))
}

// TestAuditTamperFailsLoud is the tamper matrix: every edit an attacker
// with write access to the directory can make short of dropping the
// trail's tail must fail Verify.
func TestAuditTamperFailsLoud(t *testing.T) {
	edit := func(seg int, f func(data []byte, offs []int) []byte) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			path := auditSegPath(dir, seg)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, f(data, frameOffsets(t, data)), 0o600); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name   string
		tamper func(t *testing.T, dir string)
		want   string
	}{
		{"flipped byte", edit(1, func(d []byte, offs []int) []byte {
			d[offs[3]+frameHdrSize+100] ^= 0x40
			return d
		}), "CRC mismatch"},
		// A smarter attacker rewrites a block and recomputes its CRC; the
		// chain value stored with it no longer matches its body.
		{"forged block, CRC recomputed", edit(2, func(d []byte, offs []int) []byte {
			d[offs[2]+frameHdrSize+100] ^= 0x01
			resealCRC(d[offs[2]:offs[3]])
			return d
		}), "hash chain broken"},
		{"middle block removed", edit(2, func(d []byte, offs []int) []byte {
			return append(d[:offs[4]:offs[4]], d[offs[5]:]...)
		}), "hash chain broken"},
		{"first block of a segment removed", edit(2, func(d []byte, offs []int) []byte {
			return append(d[:offs[0]:offs[0]], d[offs[1]:]...)
		}), "hash chain broken"},
		{"segments swapped", func(t *testing.T, dir string) {
			tmp := auditSegPath(dir, 99)
			for _, mv := range [][2]string{{auditSegPath(dir, 2), tmp}, {auditSegPath(dir, 3), auditSegPath(dir, 2)}, {tmp, auditSegPath(dir, 3)}} {
				if err := os.Rename(mv[0], mv[1]); err != nil {
					t.Fatal(err)
				}
			}
		}, "does not continue"},
		{"middle segment removed", func(t *testing.T, dir string) {
			if err := os.Remove(auditSegPath(dir, 2)); err != nil {
				t.Fatal(err)
			}
		}, "does not continue"},
		{"oldest segment removed", func(t *testing.T, dir string) {
			if err := os.Remove(auditSegPath(dir, 1)); err != nil {
				t.Fatal(err)
			}
		}, "does not continue"},
		{"segment header chain edited", edit(3, func(d []byte, _ []int) []byte {
			d[16] ^= 0x01
			return d
		}), "does not continue"},
		{"segment header first seq edited", edit(2, func(d []byte, _ []int) []byte {
			d[8] ^= 0x01
			return d
		}), "does not continue"},
		{"torn tail never reopened", edit(3, func(d []byte, offs []int) []byte {
			return d[:offs[len(offs)-1]-10]
		}), "torn tail"},
		{"old segment cut mid-frame", edit(1, func(d []byte, offs []int) []byte {
			return d[:offs[len(offs)-1]-10]
		}), "torn tail"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := tamperTrail(t)
			tc.tamper(t, dir)
			if _, err := Verify(dir); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want %q failure, got %v", tc.want, err)
			}
		})
	}
}

// TestAuditOldSegmentDamage: opening reads the newest segment only, so
// damage to history does not stop the database — but Verify still sees
// it.
func TestAuditOldSegmentDamage(t *testing.T) {
	dir := tamperTrail(t)
	path := auditSegPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	a, err := OpenAudit(dir)
	if err != nil {
		t.Fatalf("open with a damaged old segment: %v", err)
	}
	if a.Seq() != 40 {
		t.Fatalf("seq %d, want 40", a.Seq())
	}
	a.Append(Event{Kind: EvCheckpoint})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("verify over damaged history: %v", err)
	}
}

// crashTrail appends n small events in blocks of 100 and abandons the
// trail without Sync or Close, the way a killed process does.
func crashTrail(t *testing.T, n int) (dir, path string) {
	t.Helper()
	dir = t.TempDir()
	a, err := OpenAudit(dir)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Event, 100)
	for i := 0; i < n; i += len(batch) {
		for j := range batch {
			batch[j] = Event{Kind: EvScheduled, Table: "person", Tuple: uint64(i + j + 1), Attr: "location", Deadline: 1000}
		}
		a.Append(batch...)
	}
	a.f.Close() // the process is gone; its open block with it
	return dir, auditSegPath(dir, 1)
}

// TestAuditCrashReopen: a process killed mid-append leaves a torn final
// frame (or none at all); the next open cuts the file back to the last
// whole block, continues the chain from there, and the trail verifies.
func TestAuditCrashReopen(t *testing.T) {
	for _, tc := range []struct {
		name string
		tear func(data []byte, offs []int) []byte
		seq  uint64
	}{
		{"open block lost", func(d []byte, _ []int) []byte { return d }, 768},
		{"short final frame", func(d []byte, offs []int) []byte { return d[:offs[len(offs)-1]-17] }, 512},
		{"final frame header cut", func(d []byte, offs []int) []byte { return d[:offs[2]+3] }, 512},
		{"final frame CRC mismatch", func(d []byte, offs []int) []byte {
			d[len(d)-40] ^= 0x10
			return d
		}, 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// 800 events: three sealed blocks of 256, 32 events lost with
			// the open block.
			dir, path := crashTrail(t, 800)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.tear(data, frameOffsets(t, data)), 0o600); err != nil {
				t.Fatal(err)
			}
			a, err := OpenAudit(dir)
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			if a.Seq() != tc.seq {
				t.Fatalf("seq after crash reopen = %d, want %d", a.Seq(), tc.seq)
			}
			a.Append(Event{Kind: EvFired, Table: "person", Tuple: 1, Attr: "location", Deadline: 1000, Actual: 1001})
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if n, err := Verify(dir); err != nil || uint64(n) != tc.seq+1 {
				t.Fatalf("verify after crash, reopen, append: n=%d err=%v", n, err)
			}
		})
	}

	// Damage that is not at the tail is not a crash: it fails the open.
	dir, path := crashTrail(t, 800)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameOffsets(t, data)[1]+50] ^= 0x10
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAudit(dir); err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("mid-segment damage: want CRC failure on open, got %v", err)
	}
}

func TestAuditRefusesOtherFormats(t *testing.T) {
	// A version 1 trail starts with an event frame, not a segment header.
	dir := t.TempDir()
	v1 := make([]byte, 120)
	binary.LittleEndian.PutUint32(v1, uint32(len(v1)-8))
	if err := os.WriteFile(auditSegPath(dir, 1), v1, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAudit(dir); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 segment: want a version error, got %v", err)
	}
	if _, err := Verify(dir); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 segment: want a version error from Verify, got %v", err)
	}

	// A version 2 trail (per-event blocks) and a future version have
	// well-formed headers; both are refused by name.
	for _, tc := range []struct {
		version uint32
		want    string
	}{
		{2, "unsupported format version 2, a per-event block trail"},
		{segVersion + 1, "unsupported format version 4"},
	} {
		dir = t.TempDir()
		a, err := OpenAudit(dir)
		if err != nil {
			t.Fatal(err)
		}
		a.Append(Event{Kind: EvCheckpoint})
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		data, _ := os.ReadFile(auditSegPath(dir, 1))
		binary.LittleEndian.PutUint32(data[4:], tc.version)
		if err := os.WriteFile(auditSegPath(dir, 1), data, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenAudit(dir); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("version %d segment: open got %v, want %q", tc.version, err, tc.want)
		}
		if _, err := Verify(dir); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("version %d segment: Verify got %v, want %q", tc.version, err, tc.want)
		}
	}
}

func TestAuditRotationCarriesChain(t *testing.T) {
	// Big Detail payloads force rotation past the 1 MiB threshold. 40
	// events leave the newest segment with blocks in it; 16 rotate right
	// after the last append and leave it a bare header.
	filler := strings.Repeat("x", 64<<10)
	for _, n := range []int{40, 16} {
		dir := t.TempDir()
		a, err := OpenAudit(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			a.Append(Event{Kind: EvRetried, Table: "t", Tuple: 9, Attr: "a", Detail: filler})
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		ids, err := auditSegmentIDs(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) < 2 {
			t.Fatalf("expected rotation, got segments %v", ids)
		}
		if st, err := os.Stat(auditSegPath(dir, ids[len(ids)-1])); err != nil || (n == 16) != (st.Size() == segHdrSize) {
			t.Fatalf("n=%d: newest segment size %d (err %v)", n, st.Size(), err)
		}
		if got, err := Verify(dir); err != nil || got != n {
			t.Fatalf("cross-segment verify: n=%d err=%v", got, err)
		}
		// Reopen after rotation: seq and chain continue from the newest
		// segment, blocks or no blocks.
		a2, err := OpenAudit(dir)
		if err != nil {
			t.Fatal(err)
		}
		if a2.Seq() != uint64(n) {
			t.Fatalf("seq after rotated reopen = %d, want %d", a2.Seq(), n)
		}
		a2.Append(Event{Kind: EvCheckpoint})
		if err := a2.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := Verify(dir); err != nil || got != n+1 {
			t.Fatalf("append after rotated reopen: n=%d err=%v", got, err)
		}
	}
}

func TestAuditEphemeralRing(t *testing.T) {
	a, err := OpenAudit("")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < auditRingCap+10; i++ {
		a.Append(Event{Kind: EvScheduled, Table: "t", UnixNano: int64(i + 1)})
	}
	tail := a.Tail(4)
	if len(tail) != 4 {
		t.Fatalf("tail len %d", len(tail))
	}
	if tail[3].Seq != uint64(auditRingCap+10) {
		t.Fatalf("newest seq %d, want %d", tail[3].Seq, auditRingCap+10)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAuditEventString(t *testing.T) {
	ev := Event{Seq: 7, Kind: EvFired, UnixNano: time.Unix(10, 0).UnixNano(),
		Table: "msg", Tuple: 3, Attr: "body", Deadline: 1000, Actual: 2000, Detail: "to=Gone"}
	s := ev.String()
	for _, want := range []string{"#7", "fired", "msg[3].body", "delta=1µs", "to=Gone"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// TestAuditConcurrentAppend: sessions (scheduled events) and the
// degrader (fired batches) append at once while a checkpoint syncs;
// every event lands exactly once, in one verifiable chain.
func TestAuditConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenAudit(dir)
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds, batch = 4, 50, 7
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			evs := make([]Event, batch)
			for r := 0; r < rounds; r++ {
				for i := range evs {
					evs[i] = Event{Kind: EvFired, Table: "person", Tuple: uint64(w*1000 + r), Attr: "location", Deadline: 5, Actual: 6}
				}
				a.Append(evs...)
				if r%10 == 0 {
					if err := a.Sync(); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := Verify(dir); err != nil || n != writers*rounds*batch {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

// TestAuditSizeBudget replays the event shape of the benchmark's set-up
// — per row three scheduled events, then four waves of fired events in
// the degrader's 256-event batches, 20 000 rows — and holds the trail's
// bytes per event on disk to a budget and its appends to no per-event
// heap allocation. Rows are inserted one per commit (their scheduled
// events handed over together, 50 µs apart) or 500 per commit (one
// insert time, handed over queue-major, as OnInsertRun does). It also
// checks that Written reports what reached the disk.
func TestAuditSizeBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		commit int     // rows per insert commit
		budget float64 // bytes per event on disk
	}{
		{"per-row scheduled, batched fired", 1, 8},
		{"set-up shape, queue-major runs of 500", 500, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			auditSizeBudget(t, tc.commit, tc.budget)
		})
	}
}

func auditSizeBudget(t *testing.T, commit int, budget float64) {
	const rows = 20000
	dir := t.TempDir()
	a, err := OpenAudit(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2008, 4, 7, 9, 0, 0, 0, time.UTC).UnixNano()
	insertNano := func(row int) int64 { return base + int64(row/commit*commit)*int64(50*time.Microsecond) }
	holds := []struct {
		attr, detail string
		age          time.Duration
	}{
		{"location", "", 15 * time.Minute},
		{"salary", "", 12 * time.Hour},
		{"", "tuple-delete", 30*24*time.Hour + 25*time.Hour + 15*time.Minute},
	}
	waves := []struct {
		attr, detail string
		age          time.Duration
	}{
		{"location", "state 0→1", 15 * time.Minute},
		{"location", "state 1→2", 75 * time.Minute},
		{"salary", "state 0→1", 12 * time.Hour},
		{"location", "state 2→3", 25*time.Hour + 15*time.Minute},
	}
	sched := make([]Event, 0, len(holds)*commit)
	fired := make([]Event, 0, blockMaxEvents)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events := 0
	for first := 0; first < rows; first += commit {
		sched = sched[:0]
		for _, h := range holds {
			for row := first; row < first+commit; row++ {
				nano := insertNano(row)
				sched = append(sched, Event{Kind: EvScheduled, UnixNano: nano, Table: "person", Tuple: uint64(row + 1),
					Attr: h.attr, Detail: h.detail, Deadline: nano + int64(h.age)})
			}
		}
		a.Append(sched...)
		events += len(sched)
	}
	for _, w := range waves {
		now := insertNano(rows) + int64(w.age) + int64(10*time.Minute)
		for row := 0; row < rows; {
			fired = fired[:0]
			for ; row < rows && len(fired) < cap(fired); row++ {
				fired = append(fired, Event{Kind: EvFired, UnixNano: now, Table: "person", Tuple: uint64(row + 1),
					Attr: w.attr, Detail: w.detail, Deadline: insertNano(row) + int64(w.age), Actual: now})
			}
			a.Append(fired...)
			events += len(fired)
		}
	}
	runtime.ReadMemStats(&after)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	if n, err := Verify(dir); err != nil || n != events {
		t.Fatalf("verify: n=%d (want %d) err=%v", n, events, err)
	}
	var disk int64
	ids, _ := auditSegmentIDs(dir)
	for _, id := range ids {
		st, err := os.Stat(auditSegPath(dir, id))
		if err != nil {
			t.Fatal(err)
		}
		disk += st.Size()
	}
	if n, bytes := a.Written(); n != uint64(events) || bytes != uint64(disk) {
		t.Errorf("Written() = %d events, %d bytes; appended %d, on disk %d", n, bytes, events, disk)
	}
	perEvent := float64(disk) / float64(events)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(events)
	t.Logf("%d events, %d bytes in %d segment(s): %.2f B/event, %.4f allocs/event", events, disk, len(ids), perEvent, allocs)
	if perEvent > budget {
		t.Errorf("trail costs %.2f bytes/event on disk, budget %g", perEvent, budget)
	}
	if allocs >= 0.1 {
		t.Errorf("append allocates %.4f times per event, budget < 0.1", allocs)
	}
}
