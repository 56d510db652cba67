package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"instantdb/internal/storage"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
)

func TestVacuumAcrossMultipleSegments(t *testing.T) {
	l, dir := openTestLog(t, Options{Sync: false, SegmentBytes: 512})
	defer l.Close()
	secret := "multiseg-secret-payload"
	for i := 0; i < 30; i++ {
		if err := appendRecs(l, []*Record{insertRec(storage.TupleID(i), "name", value.Text(secret))}); err != nil {
			t.Fatal(err)
		}
	}
	if l.SegmentCount() < 3 {
		t.Fatalf("want several segments, have %d", l.SegmentCount())
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
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		data, _ := os.ReadFile(filepath.Join(dir, e.Name()))
		if bytes.Contains(data, []byte(secret)) {
			t.Fatalf("secret survives vacuum in %s", e.Name())
		}
	}
	// Every record still replays.
	n := 0
	l.Replay(func(*Record) error { n++; return nil })
	if n != 30 {
		t.Fatalf("replayed %d want 30", n)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, _ := openTestLog(t, Options{Sync: false})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := appendRecs(l, []*Record{insertRec(1, "x", value.Int(1))}); err == nil {
		t.Fatal("append on closed log accepted")
	}
	// Double close is a no-op.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPayloadColumnBadFraming: a payload column with an unknown status
// byte, a status-3 entry inside a mixed bitmap, or ciphertext in a plain
// log is refused; plain payloads pass through a shred codec (archives
// sealed plain, vacuumed logs).
func TestPayloadColumnBadFraming(t *testing.T) {
	ks, err := OpenKeyStore(filepath.Join(t.TempDir(), "keys.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer ks.Close()
	shred := NewShredCodec(ks, time.Hour)
	deg := []*Record{
		{Type: RecDegrade, Table: 1, Tuple: 7, DegPos: 0, NewState: 1, NewStored: value.Text("hi")},
		{Type: RecDegrade, Table: 1, Tuple: 8, DegPos: 0, NewState: 1, NewStored: value.Text("ho"), NewLost: true},
	}
	plainEnc, err := EncodeRecords(nil, deg[:1], PlainCodec{})
	if err != nil {
		t.Fatal(err)
	}
	// The column's status byte follows the header: type, table, count,
	// tuple, insert time, bucket, position, state.
	const statusAt = 8
	if plainEnc[statusAt] != statusPlain {
		t.Fatalf("status byte %d at offset %d, want plain", plainEnc[statusAt], statusAt)
	}
	recs, err := DecodeRecords(plainEnc, shred)
	if err != nil || recs[0].NewLost || recs[0].NewStored.Text() != "hi" {
		t.Fatalf("plain passthrough under a shred codec: %+v %v", recs, err)
	}
	bad := append([]byte(nil), plainEnc...)
	bad[statusAt] = 0x7F
	if _, err := DecodeRecords(bad, shred); err == nil {
		t.Error("unknown column status accepted")
	}
	bad[statusAt] = statusEnc
	if _, err := DecodeRecords(bad, PlainCodec{}); err == nil {
		t.Error("encrypted payload accepted by plain codec")
	}
	mixed, err := EncodeRecords(nil, deg, PlainCodec{})
	if err != nil {
		t.Fatal(err)
	}
	at := statusAt + 4 // a mode byte and a step for each of the id and time columns
	if mixed[at] != statusMixed || mixed[at+1] != statusPlain|statusLost<<2 {
		t.Fatalf("mixed column header % x", mixed[at:at+2])
	}
	mixed[at+1] |= 3
	if _, err := DecodeRecords(mixed, PlainCodec{}); err == nil {
		t.Error("status 3 inside a mixed bitmap accepted")
	}
}

func TestShredNonPositiveBucket(t *testing.T) {
	ks, err := OpenKeyStore(filepath.Join(t.TempDir(), "keys.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer ks.Close()
	if _, err := ks.Shred(1, 0, 0, time.Now(), 0); err == nil {
		t.Fatal("zero bucket width accepted")
	}
}

func TestNegativeInsertNanoBuckets(t *testing.T) {
	// Pre-epoch timestamps must bucket consistently (floor division).
	ks, err := OpenKeyStore(filepath.Join(t.TempDir(), "keys.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer ks.Close()
	c := NewShredCodec(ks, time.Hour)
	plain := []byte("pre-epoch")
	sealed, err := sealOne(c, 1, 0, 0, -1, 7, plain)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := openOne(c, 1, 0, 0, -1, 7, sealed)
	if err != nil || !ok || !bytes.Equal(got, plain) {
		t.Fatalf("pre-epoch roundtrip: %q %v %v", got, ok, err)
	}
}

func TestLogDirAccessor(t *testing.T) {
	l, dir := openTestLog(t, Options{})
	defer l.Close()
	if l.Dir() != dir {
		t.Fatalf("Dir()=%q want %q", l.Dir(), dir)
	}
}

func TestUpdateStableRecordRoundtripThroughLog(t *testing.T) {
	l, _ := openTestLog(t, Options{Sync: false})
	defer l.Close()
	recs := []*Record{
		{Type: RecUpdateStable, Table: 2, Tuple: 5, Col: 3, Val: value.Text("renamed")},
		{Type: RecDegrade, Table: 2, Tuple: 5, InsertNano: vclock.Epoch.UnixNano(),
			DegPos: 1, NewState: storage.StateErased, NewStored: value.Null()},
	}
	if err := appendRecs(l, recs); err != nil {
		t.Fatal(err)
	}
	var got []*Record
	l.Replay(func(r *Record) error {
		cp := *r
		got = append(got, &cp)
		return nil
	})
	if len(got) != 2 {
		t.Fatalf("replayed %d", len(got))
	}
	if got[0].Col != 3 || got[0].Val.Text() != "renamed" {
		t.Fatalf("update record: %+v", got[0])
	}
	if got[1].NewState != storage.StateErased || !got[1].NewStored.IsNull() {
		t.Fatalf("erase record: %+v", got[1])
	}
}
