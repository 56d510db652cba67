package wal

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"time"

	"instantdb/internal/storage"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
)

// FuzzDecodeRecords hardens the batch-payload decoder against arbitrary
// bytes: a crashed leader, a torn tail the CRC happened to miss, or a
// hostile replication peer must surface as an error, never a panic, an
// over-read, or an allocation sized by a count the input merely claims.
// A run holds at most maxRun records and maxRunCells stable values, and
// every length or width it claims is checked against the bytes left
// before anything is sized by it. Whatever decodes must re-encode to a
// fixed point: the decoder may not fabricate records the encoder cannot
// represent.
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
	// Column forms: ids and times on and off a progression; all-NULL,
	// INT/NULL, TEXT, TIME, FLOAT and BOOL stable columns; payload
	// lengths uniform and mixed, with lost payloads between them.
	for _, recs := range columnSeeds() {
		enc, err := EncodeRecords(nil, recs, codec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	// Non-canonical columns and claimed sizes the input cannot hold.
	for _, in := range refusedColumns {
		f.Add(in)
	}

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

// columnSeeds returns batches that exercise every column form a run can
// take.
func columnSeeds() [][]*Record {
	row := func(id storage.TupleID, nano int64, stable []value.Value, deg ...value.Value) *Record {
		return &Record{Type: RecInsert, Table: 1, Tuple: id, InsertNano: nano, StableRow: stable,
			DegVals: deg, DegLost: make([]bool, len(deg))}
	}
	at := vclock.Epoch.UnixNano()
	var steady, jumpy, kinds, payloads []*Record
	for i := int64(0); i < 6; i++ {
		// ids and times on a progression, a NULL column, a TEXT column.
		steady = append(steady, row(storage.TupleID(10+i), at+i*1000,
			[]value.Value{value.Int(10 + i), value.Null(), value.Text("ab"[:i%3/2+1])}, value.Int(7)))
		// ids, times and INTs off a progression, an INT/NULL column.
		v := value.Null()
		if i%2 == 0 {
			v = value.Int(i * i)
		}
		jumpy = append(jumpy, row(storage.TupleID(10+i*i), at+i*i*i, []value.Value{value.Int(i * i), v}, value.Int(i)))
		kinds = append(kinds, row(storage.TupleID(i), at, []value.Value{value.Time(vclock.Epoch.Add(time.Duration(i) * time.Second)),
			value.Float(float64(i) / 3), value.Bool(i%2 == 0)}))
		// Payload lengths uniform in one column and mixed in the other,
		// with lost payloads between them.
		p := row(storage.TupleID(i), at, nil, value.Int(1000+i), value.Text("xyz"[:i%3+1]))
		p.DegLost = []bool{i == 2, i%2 == 1}
		payloads = append(payloads, p)
	}
	return [][]*Record{steady, jumpy, kinds, payloads}
}

// refusedColumns holds runs the decoder refuses: columns written in a
// form the encoder never writes, and widths and lengths the input cannot
// hold.
var refusedColumns = [][]byte{
	// A delete run of ids 5, 6, 7 written as deltas +1, +1.
	{byte(RecDelete), 1, 3, seqDeltas, 5, 2, 2},
	// A delete run of two ids written as deltas: any two are a step.
	{byte(RecDelete), 1, 2, seqDeltas, 5, 2},
	// An insert run of two rows (ids 1, 2; times 0; bucket 0; no states
	// or payloads) whose one INT column is written value by value.
	{byte(RecInsert), 1, 2, seqStep, 1, 2, seqStep, 0, 0, 0, 0, 0, 1, colMixed, 1, 2, 1, 4},
	// The same run claiming a 2^40-column row.
	binary.AppendUvarint([]byte{byte(RecInsert), 1, 2, seqStep, 1, 2, seqStep, 0, 0, 0, 0, 0}, 1<<40),
	// The same run with a TEXT column claiming two 2^30-byte values.
	append(binary.AppendUvarint([]byte{byte(RecInsert), 1, 2, seqStep, 1, 2, seqStep, 0, 0, 0, 0, 0, 1, byte(value.KindText), seqStep}, 1<<30), 0),
	// Two TEXT values of 2^63 bytes each: lengths whose sum wraps to 0.
	append(binary.AppendUvarint([]byte{byte(RecInsert), 1, 2, seqStep, 1, 2, seqStep, 0, 0, 0, 0, 0, 1, byte(value.KindText), seqStep}, 1<<63), 0),
	// A one-row insert run claiming a 10 000-column row in a few bytes.
	binary.AppendUvarint([]byte{byte(RecInsert), 1, 1, 1, 0, 0, 0, 0}, 10000),
	// A delete run one record longer than a run may be.
	binary.AppendUvarint([]byte{byte(RecDelete), 1}, maxRun+1),
}

// TestRefusedColumns: every input of refusedColumns is refused and
// allocates next to nothing on the way, and its canonical counterpart —
// the INT column with one NULL in it — decodes. TotalAlloc counts every
// goroutine's allocations, so each input is decoded 64 times between the
// readings and the mean is held to the bound.
func TestRefusedColumns(t *testing.T) {
	const decodes = 64
	for i, in := range refusedColumns {
		var before, after runtime.MemStats
		var err error
		runtime.ReadMemStats(&before)
		for range decodes {
			_, err = DecodeRecords(in, PlainCodec{})
		}
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("input %d (% x) decoded", i, in)
		}
		if n := (after.TotalAlloc - before.TotalAlloc) / decodes; n > 64<<10 {
			t.Errorf("input %d allocated %d bytes before it was refused", i, n)
		}
	}
	mixed := []byte{byte(RecInsert), 1, 2, seqStep, 1, 2, seqStep, 0, 0, 0, 0, 0, 1, colMixed, 1, 2, 0}
	recs, err := DecodeRecords(mixed, PlainCodec{})
	if err != nil || len(recs) != 2 || recs[0].StableRow[0].Int() != 1 || !recs[1].StableRow[0].IsNull() {
		t.Fatalf("an INT/NULL column: %v %v", recs, err)
	}
	if enc, err := EncodeRecords(nil, recs, PlainCodec{}); err != nil || !bytes.Equal(enc, mixed) {
		t.Fatalf("the INT/NULL column re-encodes to % x (err %v), want % x", enc, err, mixed)
	}
}
