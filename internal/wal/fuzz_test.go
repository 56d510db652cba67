package wal

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"instantdb/internal/storage"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
)

// FuzzDecodeRecords hardens the batch-payload decoder against arbitrary
// bytes: a crashed leader, a torn tail the CRC happened to miss, or a
// hostile replication peer must surface as an error, never a panic, an
// over-read, or an allocation sized by a count the input merely claims.
// Whatever decodes must re-encode to a fixed point: the decoder may not
// fabricate records the encoder cannot represent.
func FuzzDecodeRecords(f *testing.F) {
	codec := PlainCodec{}
	degrade := func(tuple storage.TupleID, v value.Value, lost bool) *Record {
		return &Record{Type: RecDegrade, Table: 1, Tuple: tuple, InsertNano: vclock.Epoch.UnixNano() + int64(tuple),
			DegPos: 0, NewState: 2, NewStored: v, NewLost: lost}
	}
	// A full degrader batch, kept small in bytes (the fuzzer minimizes
	// every interesting mutant byte by byte, which on a multi-kilobyte
	// input eats the whole smoke budget).
	bigRun := make([]*Record, 256)
	for i := range bigRun {
		bigRun[i] = degrade(storage.TupleID(1000+i), value.Bool(i%3 == 0), false)
	}
	aged := insertRec(8, "aged", value.Text("Amsterdam"))
	aged.States = []uint8{1}
	seedRecs := [][]*Record{
		// Runs of one, of every type.
		{insertRec(1, "alice", value.Int(42))},
		{{Type: RecDelete, Table: 3, Tuple: 9}},
		{{Type: RecUpdateStable, Table: 1, Tuple: 7, Col: 1, Val: value.Text("carol")}},
		{degrade(7, value.Int(17), false)},
		{{Type: RecReplMark, ReplSeg: 3, ReplOff: 4096}},
		// Mixed-type batches: runs open and close inside one payload.
		{insertRec(2, "bob", value.Null()), {Type: RecDelete, Table: 3, Tuple: 9}},
		{insertRec(5, "dave", value.Float(2.5)), insertRec(6, "erin", value.Time(vclock.Epoch)),
			{Type: RecDelete, Table: 1, Tuple: 5}, {Type: RecDelete, Table: 1, Tuple: 6},
			degrade(6, value.Int(1), false), aged, insertRec(9, "fay", value.Bool(true))},
		bigRun,
		// Status mixes: all lost, lost among plain (bitmap), plain only.
		{degrade(1, value.Null(), true), degrade(2, value.Null(), true)},
		{degrade(1, value.Int(1), false), degrade(2, value.Null(), true), degrade(3, value.Int(3), false),
			degrade(4, value.Int(4), false), degrade(5, value.Null(), true)},
		// Deltas at the edges: ids past 1<<63 and back, times negative and
		// non-monotone.
		{{Type: RecDelete, Table: 1, Tuple: math.MaxUint64}, {Type: RecDelete, Table: 1, Tuple: 0},
			{Type: RecDelete, Table: 1, Tuple: 1 << 63}},
		{&Record{Type: RecDegrade, Table: 1, Tuple: 1, InsertNano: math.MinInt64, NewStored: value.Int(1)},
			&Record{Type: RecDegrade, Table: 1, Tuple: 2, InsertNano: math.MaxInt64, NewStored: value.Int(2)},
			&Record{Type: RecDegrade, Table: 1, Tuple: 3, InsertNano: -1, NewStored: value.Int(3)}},
	}
	for _, recs := range seedRecs {
		enc, err := EncodeRecords(nil, recs, codec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		if len(enc) > 512 {
			continue
		}
		f.Add(enc[:len(enc)-3]) // truncated tail
		mutated := append([]byte(nil), enc...)
		mutated[len(mutated)/2] ^= 0x41
		f.Add(mutated)
	}
	// Counts that overflow: a run claiming 2^63 records, and an insert
	// run claiming more degradable columns than a table can have.
	huge := binary.AppendUvarint([]byte{byte(RecDelete), 1}, 1<<63)
	f.Add(append(huge, 1))
	f.Add([]byte{byte(RecInsert), 1, 1, 1, 0, 0, 0, 0xff, 0xff, 0x03})
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x41})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeRecords(data, codec)
		if err != nil {
			return
		}
		// Whatever decodes must encode again, and that encoding is a fixed
		// point: decoding it gives the same records, encoding those the
		// same bytes.
		enc, err := EncodeRecords(nil, recs, codec)
		if err != nil {
			t.Fatalf("decoded batch does not re-encode: %v", err)
		}
		again, err := DecodeRecords(enc, codec)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(again))
		}
		for i := range recs {
			if err := sameRecord(recs[i], again[i]); err != nil {
				t.Fatalf("round trip changed record %d: %v", i, err)
			}
		}
		if enc2, err := EncodeRecords(nil, again, codec); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("encode∘decode is not a fixed point (err %v)", err)
		}
	})
}
