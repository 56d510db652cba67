package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"instantdb/internal/storage"
)

// sealAt seals a payload for (table 1, col 0, state, tuple) inserted at
// bucket*width, creating that bucket's epoch key.
func sealAt(t *testing.T, c *ShredCodec, state uint8, bucket int64, tuple storage.TupleID, plain string) []byte {
	t.Helper()
	nano := bucket * int64(c.BucketWidth)
	sealed, err := sealOne(c, 1, 0, state, nano, tuple, []byte(plain))
	if err != nil {
		t.Fatal(err)
	}
	return sealed
}

// TestKeyStoreCompaction: shredding leaves dead entries in the key
// file; compaction (explicit, and implicitly on reopen) shrinks the
// file, keeps every live key decrypting, keeps every shredded payload
// dead, and refuses to mint a fresh key for a retired bucket.
func TestKeyStoreCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.db")
	ks, err := OpenKeyStore(path)
	if err != nil {
		t.Fatal(err)
	}
	codec := NewShredCodec(ks, time.Minute)

	// Ten buckets of state-0 keys plus two state-1 keys that stay live.
	var sealed [][]byte
	for b := int64(0); b < 10; b++ {
		sealed = append(sealed, sealAt(t, codec, 0, b, storage.TupleID(b+1), "secret"))
	}
	live0 := sealAt(t, codec, 1, 0, 100, "survivor-a")
	live1 := sealAt(t, codec, 1, 9, 101, "survivor-b")
	sizeBefore := ks.SizeBytes()
	if sizeBefore != 12*keyEntrySize {
		t.Fatalf("key file is %d bytes before shred, want %d", sizeBefore, 12*keyEntrySize)
	}

	// Shred the first 6 state-0 buckets (bucket ends <= 6m).
	cutoff := time.Unix(0, 6*int64(time.Minute)).UTC()
	n, err := ks.Shred(1, 0, 0, cutoff, time.Minute)
	if err != nil || n != 6 {
		t.Fatalf("Shred = (%d, %v), want 6 keys destroyed", n, err)
	}
	if err := ks.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := ks.SizeBytes(); got >= sizeBefore {
		t.Fatalf("key file did not shrink: %d -> %d bytes", sizeBefore, got)
	}
	st, err := os.Stat(path)
	if err != nil || st.Size() != ks.SizeBytes() {
		t.Fatalf("on-disk size %d (err=%v) disagrees with SizeBytes %d", st.Size(), err, ks.SizeBytes())
	}
	if got := ks.LiveKeys(); got != 6 { // 4 state-0 + 2 state-1
		t.Fatalf("LiveKeys = %d after compaction, want 6", got)
	}

	check := func(stage string) {
		t.Helper()
		// Shredded buckets stay dead...
		for b := int64(0); b < 6; b++ {
			if _, ok, err := openOne(codec, 1, 0, 0, b*int64(time.Minute), storage.TupleID(b+1), sealed[b]); err != nil || ok {
				t.Fatalf("%s: bucket %d opened after shred (ok=%v err=%v)", stage, b, ok, err)
			}
		}
		// ...live ones keep decrypting.
		for b := int64(6); b < 10; b++ {
			plain, ok, err := openOne(codec, 1, 0, 0, b*int64(time.Minute), storage.TupleID(b+1), sealed[b])
			if err != nil || !ok || !bytes.Equal(plain, []byte("secret")) {
				t.Fatalf("%s: live bucket %d lost (ok=%v err=%v)", stage, b, ok, err)
			}
		}
		for i, s := range [][]byte{live0, live1} {
			want := []string{"survivor-a", "survivor-b"}[i]
			plain, ok, err := openOne(codec, 1, 0, 1, int64(9*i)*int64(time.Minute), storage.TupleID(100+i), s)
			if err != nil || !ok || string(plain) != want {
				t.Fatalf("%s: state-1 key %d lost (ok=%v err=%v)", stage, i, ok, err)
			}
		}
		// The frontier refuses to mint a fresh key for a retired bucket:
		// sealing at bucket 5 state 0 must fail even though its entry is
		// physically gone from the file.
		if _, err := sealOne(codec, 1, 0, 0, 5*int64(time.Minute), 999, []byte("late")); !errors.Is(err, ErrKeyShredded) {
			t.Fatalf("%s: seal under a retired bucket: %v, want ErrKeyShredded", stage, err)
		}
		// A bucket past the frontier still gets a key.
		if _, err := sealOne(codec, 1, 0, 0, 30*int64(time.Minute), 999, []byte("fresh")); err != nil {
			t.Fatalf("%s: seal past the frontier: %v", stage, err)
		}
	}
	check("after compact")

	// Everything survives a close/reopen (frontier markers persisted).
	if err := ks.Close(); err != nil {
		t.Fatal(err)
	}
	ks2, err := OpenKeyStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ks2.Close()
	codec = NewShredCodec(ks2, time.Minute)
	check("after reopen")
}

// TestKeyStoreCompactsOnOpen: a key file closed with shredded entries
// still in place is compacted by the next open.
func TestKeyStoreCompactsOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.db")
	ks, err := OpenKeyStore(path)
	if err != nil {
		t.Fatal(err)
	}
	codec := NewShredCodec(ks, time.Minute)
	var sealed []byte
	for b := int64(0); b < 4; b++ {
		s := sealAt(t, codec, 0, b, storage.TupleID(b+1), "secret")
		if b == 3 {
			sealed = s
		}
	}
	if n, err := ks.Shred(1, 0, 0, time.Unix(0, 3*int64(time.Minute)).UTC(), time.Minute); err != nil || n != 3 {
		t.Fatalf("Shred = (%d, %v)", n, err)
	}
	sizeShredded := ks.SizeBytes()
	if err := ks.Close(); err != nil {
		t.Fatal(err)
	}

	ks2, err := OpenKeyStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ks2.Close()
	if got := ks2.SizeBytes(); got >= sizeShredded {
		t.Fatalf("open did not compact: %d -> %d bytes", sizeShredded, got)
	}
	codec = NewShredCodec(ks2, time.Minute)
	if plain, ok, err := openOne(codec, 1, 0, 0, 3*int64(time.Minute), 4, sealed); err != nil || !ok || !bytes.Equal(plain, []byte("secret")) {
		t.Fatalf("live key lost across compact-on-open (ok=%v err=%v)", ok, err)
	}
}

// TestAppendRawReadBatchRaw: raw batch bytes read by TailRaw and
// group-appended to another log decode identically to the originals —
// the primitive incremental backups and restore are built on.
func TestAppendRawReadBatchRaw(t *testing.T) {
	dir := t.TempDir()
	src, err := Open(filepath.Join(dir, "src"), Options{Sync: false})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	recs := []*Record{
		{Type: RecInsert, Table: 1, Tuple: 7, InsertNano: 42, States: []uint8{0},
			StableRow: nil, DegVals: nil},
		{Type: RecDelete, Table: 1, Tuple: 9},
	}
	if err := appendRecs(src, recs); err != nil {
		t.Fatal(err)
	}
	var raws [][]byte
	if err := src.TailRaw(Pos{}, src.EndPos(), func(payload []byte, _ Pos) error {
		raws = append(raws, payload)
		return nil
	}); err != nil || len(raws) != 1 {
		t.Fatalf("TailRaw: %d batches, err=%v, want one", len(raws), err)
	}
	raw := raws[0]

	dst, err := Open(filepath.Join(dir, "dst"), Options{Sync: false})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if _, err := dst.GroupAppend(raw); err != nil {
		t.Fatal(err)
	}
	var got []*Record
	if err := dst.Replay(func(r *Record) error {
		rc := *r
		got = append(got, &rc)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Type != RecInsert || got[0].Tuple != 7 || got[1].Type != RecDelete || got[1].Tuple != 9 {
		t.Fatalf("replayed records diverge: %+v", got)
	}
}

// TestTailRawBulkAndBoundaries: TailRaw streams exactly [from, to),
// handles the empty-active-segment rotation corner, and refuses
// positions that are not batch boundaries instead of skipping over
// committed batches.
func TestTailRawBulkAndBoundaries(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(filepath.Join(dir, "wal"), Options{Sync: false})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if err := appendRecs(l, []*Record{{Type: RecDelete, Table: 1, Tuple: storage.TupleID(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	end := l.EndPos()
	var after []Pos
	if err := l.TailRaw(Pos{}, end, func(_ []byte, next Pos) error {
		after = append(after, next)
		return nil
	}); err != nil || len(after) != 5 {
		t.Fatalf("TailRaw over the whole log: %d batches, err=%v, want 5", len(after), err)
	}
	mid := after[1] // position after the second batch

	var got []Pos
	err = l.TailRaw(mid, end, func(payload []byte, next Pos) error {
		got = append(got, next)
		return nil
	})
	if err != nil || len(got) != 3 || got[len(got)-1] != end {
		t.Fatalf("TailRaw [%v,%v): batches=%d last=%v err=%v, want 3 ending at %v", mid, end, len(got), got, err, end)
	}

	// Rotation corner: a fresh empty active segment; coverage up to
	// {newSeg, 0} is complete and must NOT error.
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	end2 := l.EndPos()
	if end2.Off != 0 || end2.Seg != end.Seg+1 {
		t.Fatalf("unexpected post-rotation end %v", end2)
	}
	n := 0
	if err := l.TailRaw(mid, end2, func([]byte, Pos) error { n++; return nil }); err != nil || n != 3 {
		t.Fatalf("TailRaw across rotation: n=%d err=%v", n, err)
	}

	// A mid-batch from position — even in a sealed segment with an
	// empty active one — is refused, never silently skipped.
	bogus := Pos{Seg: mid.Seg, Off: mid.Off + 1}
	if err := l.TailRaw(bogus, end2, func([]byte, Pos) error { return nil }); !errors.Is(err, ErrPosGone) {
		t.Fatalf("TailRaw from a mid-batch position: %v, want ErrPosGone", err)
	}
	// A to past the log's actual end is refused.
	past := Pos{Seg: end2.Seg, Off: 9999}
	if err := l.TailRaw(mid, past, func([]byte, Pos) error { return nil }); !errors.Is(err, ErrPosGone) {
		t.Fatalf("TailRaw to a past-end position: %v, want ErrPosGone", err)
	}
}
