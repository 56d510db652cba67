package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"instantdb/internal/storage"
	"instantdb/internal/value"
)

// drainBatches tails the log from pos to its current end, decoding each
// batch with the log's codec, and returns every record read and the
// final position.
func drainBatches(t *testing.T, l *Log, pos Pos) ([]*Record, Pos) {
	t.Helper()
	var all []*Record
	end := l.EndPos()
	if err := l.TailRaw(pos, end, func(payload []byte, next Pos) error {
		recs, err := DecodeRecords(payload, l.Codec())
		all = append(all, recs...)
		pos = next
		return err
	}); err != nil {
		t.Fatalf("TailRaw(%v, %v): %v", pos, end, err)
	}
	return all, pos
}

// appendRecs encodes recs with the log's codec and appends them as one
// commit batch.
func appendRecs(l *Log, recs []*Record) error {
	payload, err := EncodeRecords(nil, recs, l.Codec())
	if err != nil {
		return err
	}
	_, err = l.GroupAppend(payload)
	return err
}

// TestReadBatchFollowsAppends: a tailer reads every appended batch in
// order, ends at EndPos, reads nothing once caught up, and is woken by
// an append through a notifier grabbed before its empty read.
func TestReadBatchFollowsAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	if err := appendRecs(l, []*Record{insertRec(1, "a", value.Int(1))}); err != nil {
		t.Fatal(err)
	}
	if err := appendRecs(l, []*Record{insertRec(2, "b", value.Int(2)), {Type: RecDelete, Table: 1, Tuple: 1}}); err != nil {
		t.Fatal(err)
	}

	recs, next := drainBatches(t, l, Pos{})
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].Tuple != 1 || recs[1].Tuple != 2 || recs[2].Type != RecDelete {
		t.Fatalf("wrong records: %+v", recs)
	}
	if next != l.EndPos() {
		t.Fatalf("caught-up position %v != EndPos %v", next, l.EndPos())
	}

	// Caught up: no batch, position unchanged.
	if got, same := drainBatches(t, l, next); got != nil || same != next {
		t.Fatalf("caught-up read: recs=%v pos=%v", got, same)
	}

	// An append wakes a notifier grabbed before the empty read.
	ch := l.AppendNotify()
	if err := appendRecs(l, []*Record{insertRec(3, "c", value.Int(3))}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("AppendNotify not signalled")
	}
	recs, _ = drainBatches(t, l, next)
	if len(recs) != 1 || recs[0].Tuple != 3 {
		t.Fatalf("follow-up read: %+v", recs)
	}
}

// TestReadBatchAcrossRotation: the tail crosses segment boundaries in
// order and resumes from any batch boundary it handed out.
func TestReadBatchAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every batch rotates.
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 5; i++ {
		if err := appendRecs(l, []*Record{insertRec(storage.TupleID(i), "x", value.Int(int64(i)))}); err != nil {
			t.Fatal(err)
		}
	}
	if l.SegmentCount() < 3 {
		t.Fatalf("expected rotations, have %d segments", l.SegmentCount())
	}
	var after []Pos
	var recs []*Record
	if err := l.TailRaw(Pos{}, l.EndPos(), func(payload []byte, next Pos) error {
		batch, err := DecodeRecords(payload, l.Codec())
		recs = append(recs, batch...)
		after = append(after, next)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records across segments, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Tuple != storage.TupleID(i+1) {
			t.Fatalf("record %d out of order: tuple %d", i, r.Tuple)
		}
	}
	// Resuming from a mid-log position skips exactly the consumed prefix.
	rest, _ := drainBatches(t, l, after[0])
	if len(rest) != 4 || rest[0].Tuple != 2 {
		t.Fatalf("resume read: %d records, first %+v", len(rest), rest[0])
	}
}

// TestReadBatchPosGoneAfterReset: positions in a checkpointed-away
// segment, and a fresh tail whose history was checkpointed, are gone.
func TestReadBatchPosGoneAfterReset(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := appendRecs(l, []*Record{insertRec(1, "a", value.Int(1))}); err != nil {
		t.Fatal(err)
	}
	mid := l.EndPos()
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	end := l.EndPos()
	none := func([]byte, Pos) error { return nil }
	if err := l.TailRaw(mid, end, none); !errors.Is(err, ErrPosGone) {
		t.Fatalf("resume into scrubbed segment: err=%v, want ErrPosGone", err)
	}
	// A fresh tailer must also refuse: history it never saw is gone.
	if err := l.TailRaw(Pos{}, end, none); !errors.Is(err, ErrPosGone) {
		t.Fatalf("fresh tail after checkpoint: err=%v, want ErrPosGone", err)
	}
}

func TestReplMarkRoundtrip(t *testing.T) {
	mark := &Record{Type: RecReplMark, ReplSeg: 7, ReplOff: 123456789}
	enc, err := EncodeRecords(nil, []*Record{insertRec(1, "a", value.Int(1)), mark}, PlainCodec{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeRecords(enc, PlainCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Type != RecReplMark ||
		recs[1].ReplSeg != 7 || recs[1].ReplOff != 123456789 {
		t.Fatalf("mark roundtrip: %+v", recs)
	}
	// And through the log itself.
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := appendRecs(l, []*Record{mark}); err != nil {
		t.Fatal(err)
	}
	var got []*Record
	if err := l.Replay(func(r *Record) error {
		cp := *r
		got = append(got, &cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ReplSeg != 7 || got[0].ReplOff != 123456789 {
		t.Fatalf("mark via log: %+v", got)
	}
}

// TestShredReplayAcrossRotation is the segment-rotation × key-shredding
// coverage gap: batches written past SegmentBytes land in later
// segments, an epoch key is destroyed, and a reopened log must replay
// every surviving payload in order, deliver the shredded ones as Lost,
// and stop clean — while the raw segment bytes never contain the
// shredded plaintext.
func TestShredReplayAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	ks, err := OpenKeyStore(filepath.Join(dir, "keys.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer ks.Close()
	codec := NewShredCodec(ks, time.Hour)

	base := time.Date(2008, 4, 7, 0, 0, 0, 0, time.UTC)
	mkRec := func(tuple storage.TupleID, at time.Time, v value.Value) *Record {
		r := insertRec(tuple, "who", v)
		r.InsertNano = at.UnixNano()
		return r
	}

	l, err := Open(filepath.Join(dir, "wal"), Options{SegmentBytes: 96, Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	// Two key epochs: tuples 1-2 in hour bucket 0, tuples 3-4 two hours
	// later. Small SegmentBytes forces rotation between batches, so the
	// buckets straddle segment files.
	secret := value.Text("very-secret-street-17")
	if err := appendRecs(l, []*Record{mkRec(1, base, secret)}); err != nil {
		t.Fatal(err)
	}
	if err := appendRecs(l, []*Record{mkRec(2, base.Add(time.Minute), value.Text("still-hour-zero"))}); err != nil {
		t.Fatal(err)
	}
	if err := appendRecs(l, []*Record{mkRec(3, base.Add(2*time.Hour), value.Text("later-bucket-a"))}); err != nil {
		t.Fatal(err)
	}
	if err := appendRecs(l, []*Record{mkRec(4, base.Add(2*time.Hour+time.Minute), value.Text("later-bucket-b"))}); err != nil {
		t.Fatal(err)
	}
	if l.SegmentCount() < 2 {
		t.Fatalf("rotation did not happen: %d segments", l.SegmentCount())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Destroy the hour-zero epoch key (table 1, col 0, state 0).
	n, err := ks.Shred(1, 0, 0, base.Add(time.Hour+time.Minute), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("shredded %d keys, want 1", n)
	}

	// Reopen and replay: shredded payloads Lost, later bucket intact,
	// replay terminates without error at the end of the last segment.
	l2, err := Open(filepath.Join(dir, "wal"), Options{SegmentBytes: 96, Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []*Record
	if err := l2.Replay(func(r *Record) error {
		cp := *r
		got = append(got, &cp)
		return nil
	}); err != nil {
		t.Fatalf("replay after shred across rotation: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("replayed %d records, want 4", len(got))
	}
	for i, wantLost := range []bool{true, true, false, false} {
		if got[i].DegLost[0] != wantLost {
			t.Fatalf("record %d: DegLost=%v, want %v", i, got[i].DegLost[0], wantLost)
		}
	}
	if !value.Equal(got[2].DegVals[0], value.Text("later-bucket-a")) {
		t.Fatalf("surviving payload corrupted: %+v", got[2].DegVals[0])
	}

	// The tailer sees the same view as replay.
	recs, _ := drainBatches(t, l2, Pos{})
	if len(recs) != 4 || !recs[0].DegLost[0] || recs[3].DegLost[0] {
		t.Fatalf("tailer after shred: %+v", recs)
	}

	// The plaintext never touched the segment files: sealed payloads are
	// ciphertext, so even before the shred a raw scan finds nothing.
	ents, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, "wal", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte("very-secret-street-17")) {
			t.Fatalf("segment %s leaks sealed plaintext", e.Name())
		}
	}
}
