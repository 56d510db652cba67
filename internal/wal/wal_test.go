package wal

import (
	"bytes"
	"crypto/cipher"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"instantdb/internal/storage"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
)

func insertRec(tuple storage.TupleID, name string, deg value.Value) *Record {
	return &Record{
		Type:       RecInsert,
		Table:      1,
		Tuple:      tuple,
		InsertNano: vclock.Epoch.UnixNano(),
		States:     []uint8{0},
		StableRow:  []value.Value{value.Int(int64(tuple)), value.Text(name), value.Null()},
		DegVals:    []value.Value{deg},
	}
}

// sealOne seals one payload the way a run column does: the key of the
// insert time's bucket, the keystream of (tuple, table, col, state).
func sealOne(c Codec, table uint32, col, state uint8, nano int64, tuple storage.TupleID, plain []byte) ([]byte, error) {
	block, err := c.SealKey(table, col, state, c.Bucket(nano))
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), plain...)
	if block != nil {
		new(scratch).xor(block, out, tuple, table, col, state)
	}
	return out, nil
}

// openOne is sealOne's inverse; ok is false when the key is gone.
func openOne(c Codec, table uint32, col, state uint8, nano int64, tuple storage.TupleID, sealed []byte) ([]byte, bool, error) {
	block, err := c.OpenKey(table, col, state, c.Bucket(nano))
	if err != nil || block == nil {
		return nil, false, err
	}
	out := append([]byte(nil), sealed...)
	new(scratch).xor(block, out, tuple, table, col, state)
	return out, true, nil
}

func TestRecordRoundtripAllTypes(t *testing.T) {
	codec := PlainCodec{}
	recs := []*Record{
		insertRec(7, "alice", value.Int(42)),
		{Type: RecDelete, Table: 3, Tuple: 9},
		{Type: RecUpdateStable, Table: 1, Tuple: 7, Col: 1, Val: value.Text("bob")},
		{Type: RecDegrade, Table: 1, Tuple: 7, InsertNano: 123456, DegPos: 0, NewState: 2, NewStored: value.Int(17)},
	}
	enc, err := EncodeRecords(nil, recs, codec)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRecords(enc, codec)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(dec), len(recs))
	}
	for i, r := range recs {
		got := dec[i]
		if got.Type != r.Type || got.Table != r.Table || got.Tuple != r.Tuple {
			t.Fatalf("header mismatch: %+v vs %+v", got, r)
		}
		switch r.Type {
		case RecInsert:
			if got.InsertNano != r.InsertNano || len(got.StableRow) != 3 ||
				!value.Equal(got.DegVals[0], r.DegVals[0]) || got.DegLost[0] {
				t.Fatalf("insert mismatch: %+v", got)
			}
		case RecUpdateStable:
			if got.Col != r.Col || !value.Equal(got.Val, r.Val) {
				t.Fatalf("update mismatch: %+v", got)
			}
		case RecDegrade:
			if got.DegPos != r.DegPos || got.NewState != r.NewState ||
				!value.Equal(got.NewStored, r.NewStored) || got.NewLost {
				t.Fatalf("degrade mismatch: %+v", got)
			}
		}
	}
}

func TestRecordDecodeErrors(t *testing.T) {
	codec := PlainCodec{}
	if _, err := DecodeRecords(make([]byte, 13), codec); err == nil {
		t.Error("unknown type should fail")
	}
	enc, _ := EncodeRecords(nil, []*Record{insertRec(1, "x", value.Int(1))}, codec)
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeRecords(enc[:cut], codec); err == nil {
			t.Errorf("run truncated to %d of %d bytes should fail", cut, len(enc))
		}
	}
}

func openTestLog(t *testing.T, opts Options) (*Log, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, dir
}

func TestAppendReplay(t *testing.T) {
	l, _ := openTestLog(t, Options{Sync: true})
	defer l.Close()
	batch1 := []*Record{insertRec(1, "a", value.Int(10)), insertRec(2, "b", value.Int(20))}
	batch2 := []*Record{{Type: RecDelete, Table: 1, Tuple: 1}}
	if err := appendRecs(l, batch1); err != nil {
		t.Fatal(err)
	}
	if err := appendRecs(l, batch2); err != nil {
		t.Fatal(err)
	}
	if err := appendRecs(l, nil); err != nil {
		t.Fatal("empty batch must be a no-op")
	}
	var got []RecType
	if err := l.Replay(func(r *Record) error { got = append(got, r.Type); return nil }); err != nil {
		t.Fatal(err)
	}
	want := []RecType{RecInsert, RecInsert, RecDelete}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d type %d want %d", i, got[i], want[i])
		}
	}
}

func TestReplayAcrossReopen(t *testing.T) {
	l, dir := openTestLog(t, Options{Sync: true})
	if err := appendRecs(l, []*Record{insertRec(1, "a", value.Int(1))}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := appendRecs(l2, []*Record{insertRec(2, "b", value.Int(2))}); err != nil {
		t.Fatal(err)
	}
	n := 0
	l2.Replay(func(*Record) error { n++; return nil })
	if n != 2 {
		t.Fatalf("replayed %d want 2", n)
	}
}

func TestRotationAndSegments(t *testing.T) {
	l, _ := openTestLog(t, Options{Sync: false, SegmentBytes: 256})
	defer l.Close()
	for i := 0; i < 20; i++ {
		if err := appendRecs(l, []*Record{insertRec(storage.TupleID(i), "namename", value.Int(int64(i)))}); err != nil {
			t.Fatal(err)
		}
	}
	if l.SegmentCount() < 2 {
		t.Fatalf("expected rotation, have %d segments", l.SegmentCount())
	}
	n := 0
	l.Replay(func(*Record) error { n++; return nil })
	if n != 20 {
		t.Fatalf("replayed %d want 20", n)
	}
	if l.SizeBytes() <= 0 {
		t.Fatal("SizeBytes should be positive")
	}
}

func TestTornTailIgnoredAndTruncated(t *testing.T) {
	l, dir := openTestLog(t, Options{Sync: true})
	if err := appendRecs(l, []*Record{insertRec(1, "a", value.Int(1))}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Corrupt the tail: append garbage simulating a torn batch.
	seg := filepath.Join(dir, "wal-00000001.log")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x49, 0x57, 0x41, 0x4C, 0xFF, 0xFF}) // magic-ish + garbage
	f.Close()
	l2, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n := 0
	if err := l2.Replay(func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d want 1", n)
	}
	// New appends after the truncated tail are replayable.
	if err := appendRecs(l2, []*Record{insertRec(2, "b", value.Int(2))}); err != nil {
		t.Fatal(err)
	}
	n = 0
	l2.Replay(func(*Record) error { n++; return nil })
	if n != 2 {
		t.Fatalf("after truncate+append replayed %d want 2", n)
	}
}

func TestResetScrubsSegments(t *testing.T) {
	l, dir := openTestLog(t, Options{Sync: true})
	defer l.Close()
	if err := appendRecs(l, []*Record{insertRec(1, "scrub-sentinel-wal", value.Int(1))}); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	// No segment file may contain the sentinel.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte("scrub-sentinel-wal")) {
			t.Fatalf("sentinel survives in %s", e.Name())
		}
	}
	n := 0
	l.Replay(func(*Record) error { n++; return nil })
	if n != 0 {
		t.Fatalf("replay after reset saw %d records", n)
	}
	// The log remains usable.
	if err := appendRecs(l, []*Record{insertRec(2, "post-reset", value.Int(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyStoreRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.db")
	ks, err := OpenKeyStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id := keyID{table: 1, col: 0, state: 0, bucket: 42}
	// fingerprint tells keys apart by what they make of a zero block.
	fingerprint := func(b cipher.Block) (out [16]byte) {
		b.Encrypt(out[:], make([]byte, 16))
		return out
	}
	k1, err := ks.cipherFor(id, true)
	if err != nil || k1 == nil {
		t.Fatalf("create key: %v %v", k1, err)
	}
	k2, _ := ks.cipherFor(id, false)
	if k2 != k1 {
		t.Fatal("second lookup did not reuse the key's expanded cipher")
	}
	if ks.LiveKeys() != 1 {
		t.Fatalf("LiveKeys=%d", ks.LiveKeys())
	}
	ks.Close()
	// Keys survive reopen.
	ks2, err := OpenKeyStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ks2.Close()
	k3, _ := ks2.cipherFor(id, false)
	if k3 == nil || fingerprint(k3) != fingerprint(k1) {
		t.Fatal("key lost across reopen")
	}
}

func TestKeyStoreShred(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.db")
	ks, err := OpenKeyStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ks.Close()
	w := time.Hour
	// Bucket 10 covers [10h, 11h).
	id := keyID{table: 1, col: 0, state: 0, bucket: 10}
	if _, err := ks.cipherFor(id, true); err != nil {
		t.Fatal(err)
	}
	key := ks.entries[id].key
	// Cutoff before bucket end: nothing shredded.
	n, err := ks.Shred(1, 0, 0, time.Unix(0, 0).Add(10*time.Hour+30*time.Minute), w)
	if err != nil || n != 0 {
		t.Fatalf("early shred: n=%d err=%v", n, err)
	}
	// Cutoff at bucket end: shredded.
	n, err = ks.Shred(1, 0, 0, time.Unix(0, 0).Add(11*time.Hour), w)
	if err != nil || n != 1 {
		t.Fatalf("shred: n=%d err=%v", n, err)
	}
	if block, _ := ks.cipherFor(id, false); block != nil {
		t.Fatal("shredded key still live")
	}
	// The raw key bytes are zeroed on disk.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, key[:16]) {
		t.Fatal("key bytes survive on disk after shred")
	}
	// Shredding is idempotent.
	n, _ = ks.Shred(1, 0, 0, time.Unix(0, 0).Add(12*time.Hour), w)
	if n != 0 {
		t.Fatal("double shred counted keys")
	}
	// Other scopes untouched.
	other := keyID{table: 1, col: 1, state: 0, bucket: 10}
	ks.cipherFor(other, true)
	n, _ = ks.Shred(1, 0, 0, time.Unix(0, 0).Add(24*time.Hour), w)
	if n != 0 {
		t.Fatal("shred crossed column scope")
	}
	if ks.LiveKeys() != 1 {
		t.Fatalf("LiveKeys=%d want 1", ks.LiveKeys())
	}
}

func TestShredCodecSealOpen(t *testing.T) {
	ks, err := OpenKeyStore(filepath.Join(t.TempDir(), "keys.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer ks.Close()
	c := NewShredCodec(ks, time.Hour)
	plain := []byte("the accurate location")
	sealed, err := sealOne(c, 1, 0, 0, vclock.Epoch.UnixNano(), 7, plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sealed, plain) {
		t.Fatal("sealed payload contains plaintext")
	}
	got, ok, err := openOne(c, 1, 0, 0, vclock.Epoch.UnixNano(), 7, sealed)
	if err != nil || !ok || !bytes.Equal(got, plain) {
		t.Fatalf("open: %q %v %v", got, ok, err)
	}
	// After shredding the epoch key, the payload is irrecoverable.
	cutoff := vclock.Epoch.Add(2 * time.Hour)
	if n, err := ks.Shred(1, 0, 0, cutoff, time.Hour); err != nil || n != 1 {
		t.Fatalf("shred n=%d err=%v", n, err)
	}
	_, ok, err = openOne(c, 1, 0, 0, vclock.Epoch.UnixNano(), 7, sealed)
	if err != nil || ok {
		t.Fatalf("shredded payload opened: ok=%v err=%v", ok, err)
	}
	// Sealing new data under the dead epoch is refused.
	if _, err := sealOne(c, 1, 0, 0, vclock.Epoch.UnixNano(), 8, plain); err == nil {
		t.Fatal("seal under shredded key must fail")
	}
}

func TestShredReplayYieldsLostValues(t *testing.T) {
	tmp := t.TempDir()
	ks, err := OpenKeyStore(filepath.Join(tmp, "keys.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer ks.Close()
	codec := NewShredCodec(ks, time.Hour)
	l, err := Open(filepath.Join(tmp, "wal"), Options{Sync: true, Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := appendRecs(l, []*Record{
		insertRec(1, "alice", value.Int(2471)),
		{Type: RecDegrade, Table: 1, Tuple: 1, InsertNano: vclock.Epoch.UnixNano(),
			DegPos: 0, NewState: 1, NewStored: value.Int(2400)},
	}); err != nil {
		t.Fatal(err)
	}
	// Shred the state-0 epoch: the insert's accurate value dies, the
	// degrade record (state 1) survives.
	if _, err := ks.Shred(1, 0, 0, vclock.Epoch.Add(2*time.Hour), time.Hour); err != nil {
		t.Fatal(err)
	}
	var ins, deg *Record
	err = l.Replay(func(r *Record) error {
		cp := *r
		switch r.Type {
		case RecInsert:
			ins = &cp
		case RecDegrade:
			deg = &cp
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ins == nil || deg == nil {
		t.Fatal("records missing")
	}
	if !ins.DegLost[0] || !ins.DegVals[0].IsNull() {
		t.Fatalf("accurate value should be lost: %+v", ins)
	}
	if deg.NewLost || deg.NewStored.Int() != 2400 {
		t.Fatalf("degraded value should survive: %+v", deg)
	}
	// Stable columns are untouched.
	if ins.StableRow[1].Text() != "alice" {
		t.Fatal("stable row corrupted")
	}
}

func TestVacuumNullsPayloadsAndScrubs(t *testing.T) {
	l, dir := openTestLog(t, Options{Sync: true})
	defer l.Close()
	secret := "vacuum-secret-location-xyzzy"
	if err := appendRecs(l, []*Record{insertRec(1, "alice", value.Text(secret))}); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Vacuum(func(r *Record) {
		if r.Type == RecInsert {
			for i := range r.DegVals {
				r.DegVals[i] = value.Null()
				r.DegLost[i] = true
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Raw scan of every log file: secret gone.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		data, _ := os.ReadFile(filepath.Join(dir, e.Name()))
		if bytes.Contains(data, []byte(secret)) {
			t.Fatalf("secret survives vacuum in %s", e.Name())
		}
	}
	// Replay still yields the record, with the payload nulled; stable
	// parts intact.
	var ins *Record
	l.Replay(func(r *Record) error {
		if r.Type == RecInsert {
			cp := *r
			ins = &cp
		}
		return nil
	})
	if ins == nil || !ins.DegVals[0].IsNull() || ins.StableRow[1].Text() != "alice" {
		t.Fatalf("vacuumed replay wrong: %+v", ins)
	}
}

func TestVacuumSkipsActiveSegment(t *testing.T) {
	l, _ := openTestLog(t, Options{Sync: true})
	defer l.Close()
	if err := appendRecs(l, []*Record{insertRec(1, "a", value.Int(1))}); err != nil {
		t.Fatal(err)
	}
	called := false
	if err := l.Vacuum(func(*Record) { called = true }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("vacuum touched the active segment")
	}
}

func TestInterruptedVacuumRecovery(t *testing.T) {
	l, dir := openTestLog(t, Options{Sync: true})
	if err := appendRecs(l, []*Record{insertRec(1, "a", value.Int(1))}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Simulate a crash after the tmp copy was written and the original
	// zeroed: move the segment content to .tmp and zero the original.
	seg := filepath.Join(dir, "wal-00000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg+tmpSuffix, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, make([]byte, len(data)), 0o600); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n := 0
	l2.Replay(func(*Record) error { n++; return nil })
	if n != 1 {
		t.Fatalf("recovered replay saw %d records want 1", n)
	}
}

// Property: insert records round-trip through both codecs for arbitrary
// payloads.
func TestQuickRecordRoundtrip(t *testing.T) {
	ks, err := OpenKeyStore(filepath.Join(t.TempDir(), "keys.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer ks.Close()
	codecs := []Codec{PlainCodec{}, NewShredCodec(ks, time.Hour)}
	if err := quick.Check(func(tuple uint64, name string, deg int64, nano int64) bool {
		for _, codec := range codecs {
			r := insertRec(storage.TupleID(tuple), name, value.Int(deg))
			r.InsertNano = nano % (1 << 40) // keep buckets sane
			enc, err := EncodeRecords(nil, []*Record{r}, codec)
			if err != nil {
				return false
			}
			dec, err := DecodeRecords(enc, codec)
			if err != nil || len(dec) != 1 {
				return false
			}
			got := dec[0]
			if got.Tuple != r.Tuple || !value.Equal(got.DegVals[0], value.Int(deg)) {
				return false
			}
			if got.StableRow[1].Text() != name {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
