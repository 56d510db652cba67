package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"instantdb/internal/storage"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
)

// The run encoding under the suites the per-record encoding lived under:
// a seeded round-trip property, a torn tail that ends inside a run, a
// vacuum that marks part of a run lost, a pre-change log at Open — and
// the two promises the format makes about itself: a payload's ciphertext
// does not depend on the run it was sealed in, and a record costs what
// TestWALSizeBudget says.

func openShredCodec(t testing.TB, width time.Duration) *ShredCodec {
	t.Helper()
	ks, err := OpenKeyStore(filepath.Join(t.TempDir(), "keys.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ks.Close() })
	return NewShredCodec(ks, width)
}

func randValue(rng *rand.Rand) value.Value {
	switch rng.Intn(5) {
	case 0:
		return value.Null()
	case 1:
		return value.Int(rng.Int63() - rng.Int63())
	case 2:
		return value.Float(rng.NormFloat64())
	case 3:
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		return value.Text(string(b))
	default:
		return value.Bool(rng.Intn(2) == 0)
	}
}

// randBatch draws a commit batch: stretches of like records (so runs
// form) broken by changes of table, type, state vector, column, key
// bucket — with the awkward values the format must carry: negative and
// non-monotone insert times, tuple ids past 1<<63, payloads flagged lost.
func randBatch(rng *rand.Rand) []*Record {
	tuple := func() storage.TupleID {
		switch rng.Intn(3) {
		case 0:
			return storage.TupleID(1<<63 + rng.Uint64()>>1)
		case 1:
			return storage.TupleID(rng.Intn(1000))
		default:
			return storage.TupleID(rng.Uint64())
		}
	}
	nano := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return -rng.Int63n(int64(30 * 24 * time.Hour))
		case 1:
			return vclock.Epoch.UnixNano() + rng.Int63n(int64(3*time.Hour))
		case 2:
			return 0
		default:
			return rng.Int63()
		}
	}
	var recs []*Record
	for stretch := rng.Intn(8) + 1; stretch > 0; stretch-- {
		table := uint32(rng.Intn(3) + 1)
		typ := RecType(rng.Intn(5) + 1)
		cols := rng.Intn(4)
		states := make([]uint8, cols)
		if rng.Intn(3) == 0 {
			for i := range states {
				states[i] = uint8(rng.Intn(3))
			}
		}
		pos, state := uint8(rng.Intn(3)), uint8(rng.Intn(4))
		base := nano()
		for n := rng.Intn(12) + 1; n > 0; n-- {
			r := &Record{Type: typ, Table: table, Tuple: tuple()}
			switch typ {
			case RecInsert:
				r.InsertNano = base + rng.Int63n(int64(time.Minute)) - int64(30*time.Second)
				r.States = append([]uint8(nil), states...)
				r.StableRow = []value.Value{randValue(rng), randValue(rng)}[:rng.Intn(3)]
				r.DegVals = make([]value.Value, cols)
				r.DegLost = make([]bool, cols)
				for i := range r.DegVals {
					if r.DegLost[i] = rng.Intn(6) == 0; !r.DegLost[i] {
						r.DegVals[i] = randValue(rng)
					}
				}
			case RecUpdateStable:
				r.Col, r.Val = uint16(rng.Intn(1<<16)), randValue(rng)
			case RecDegrade:
				r.InsertNano = base + rng.Int63n(int64(time.Minute)) - int64(30*time.Second)
				r.DegPos, r.NewState = pos, state
				if r.NewLost = rng.Intn(6) == 0; !r.NewLost {
					r.NewStored = randValue(rng)
				}
			case RecReplMark:
				r.Table, r.Tuple = 0, 0
				r.ReplSeg, r.ReplOff = rng.Intn(1<<20), rng.Int63()
			}
			recs = append(recs, r)
		}
	}
	return recs
}

func sameRecord(a, b *Record) error {
	if a.Type != b.Type || a.Table != b.Table || a.Tuple != b.Tuple {
		return fmt.Errorf("identity %d/%d/%d vs %d/%d/%d", a.Type, a.Table, a.Tuple, b.Type, b.Table, b.Tuple)
	}
	eq := func(x, y value.Value) bool { return bytes.Equal(value.Encode(nil, x), value.Encode(nil, y)) }
	switch a.Type {
	case RecInsert:
		if a.InsertNano != b.InsertNano || !bytes.Equal(a.States, b.States) ||
			len(a.StableRow) != len(b.StableRow) || len(a.DegVals) != len(b.DegVals) {
			return fmt.Errorf("insert shape %+v vs %+v", a, b)
		}
		for i := range a.StableRow {
			if !eq(a.StableRow[i], b.StableRow[i]) {
				return fmt.Errorf("stable column %d: %v vs %v", i, a.StableRow[i], b.StableRow[i])
			}
		}
		for i := range a.DegVals {
			if a.DegLost[i] != b.DegLost[i] || !eq(a.DegVals[i], b.DegVals[i]) {
				return fmt.Errorf("degradable %d: %v lost=%v vs %v lost=%v", i, a.DegVals[i], a.DegLost[i], b.DegVals[i], b.DegLost[i])
			}
		}
	case RecUpdateStable:
		if a.Col != b.Col || !eq(a.Val, b.Val) {
			return fmt.Errorf("update %d=%v vs %d=%v", a.Col, a.Val, b.Col, b.Val)
		}
	case RecDegrade:
		if a.InsertNano != b.InsertNano || a.DegPos != b.DegPos || a.NewState != b.NewState ||
			a.NewLost != b.NewLost || !eq(a.NewStored, b.NewStored) {
			return fmt.Errorf("degrade %+v vs %+v", a, b)
		}
	case RecReplMark:
		if a.ReplSeg != b.ReplSeg || a.ReplOff != b.ReplOff {
			return fmt.Errorf("mark %d:%d vs %d:%d", a.ReplSeg, a.ReplOff, b.ReplSeg, b.ReplOff)
		}
	}
	return nil
}

// TestRunRoundtripProperty: whatever batch goes in comes out, record for
// record and in order, under both codecs; and the encoder is a fixed
// point of decode (re-encoding what was decoded gives the same bytes).
func TestRunRoundtripProperty(t *testing.T) {
	codecs := map[string]Codec{"plain": PlainCodec{}, "shred": openShredCodec(t, time.Hour)}
	for seed := int64(1); seed <= 300; seed++ {
		recs := randBatch(rand.New(rand.NewSource(seed)))
		for name, codec := range codecs {
			enc, err := EncodeRecords(nil, recs, codec)
			if err != nil {
				t.Fatalf("seed %d %s: encode: %v", seed, name, err)
			}
			got, err := DecodeRecords(enc, codec)
			if err != nil {
				t.Fatalf("seed %d %s: decode: %v", seed, name, err)
			}
			if len(got) != len(recs) {
				t.Fatalf("seed %d %s: %d records in, %d out", seed, name, len(recs), len(got))
			}
			for i := range recs {
				if err := sameRecord(recs[i], got[i]); err != nil {
					t.Fatalf("seed %d %s: record %d: %v", seed, name, i, err)
				}
			}
			again, err := EncodeRecords(nil, got, codec)
			if err != nil || !bytes.Equal(again, enc) {
				t.Fatalf("seed %d %s: re-encoding the decoded batch changed it (err %v)", seed, name, err)
			}
		}
	}
}

// payloadBytes returns the sealed bytes of every payload of the single
// degrade run enc holds, by tuple.
func payloadBytes(t *testing.T, enc []byte, n int) map[storage.TupleID][]byte {
	t.Helper()
	rd := &reader{p: enc}
	rd.byte()    // type
	rd.uvarint() // table
	if got := rd.uvarint(); got != uint64(n) {
		t.Fatalf("run of %d records, want %d", got, n)
	}
	var sc scratch
	var tuples []storage.TupleID
	for _, id := range rd.seq(&sc, n, seqUvarint) {
		tuples = append(tuples, storage.TupleID(id))
	}
	rd.seq(&sc, n, seqVarint) // insert times
	rd.varint()               // bucket
	rd.byte()                 // column position
	rd.byte()                 // new state
	if st := rd.byte(); st != statusEnc {
		t.Fatalf("column status %d, want all encrypted", st)
	}
	lens := rd.seq(&sc, n, seqUvarint)
	out := make(map[storage.TupleID][]byte, n)
	for i, tid := range tuples {
		out[tid] = rd.bytes(lens[i])
	}
	if rd.err != nil || len(rd.p) != 0 {
		t.Fatalf("walking the run: err %v, %d bytes left", rd.err, len(rd.p))
	}
	return out
}

// TestSealIsCompositionIndependent: the keystream is per (tuple, table,
// column, state), never per position in a run. The same degrade batch
// sealed whole, reversed, and split into runs of one gives every tuple
// the same ciphertext — so a retried commit or a replica re-sealing a
// shipped batch writes bytes it has written before, and no two payloads
// ever share a nonce.
func TestSealIsCompositionIndependent(t *testing.T) {
	codec := openShredCodec(t, time.Hour)
	const n = 256
	batch := make([]*Record, n)
	for i := range batch {
		batch[i] = &Record{Type: RecDegrade, Table: 1, Tuple: storage.TupleID(1000 + i),
			InsertNano: vclock.Epoch.UnixNano() + int64(i), DegPos: 0, NewState: 1,
			// Few distinct plaintexts, each ten encoded bytes: equal
			// ciphertexts would show a reused keystream, and are too long
			// to collide by chance.
			NewStored: value.Int(1<<56 + int64(i%7))}
	}
	whole, err := EncodeRecords(nil, batch, codec)
	if err != nil {
		t.Fatal(err)
	}
	want := payloadBytes(t, whole, n)
	seen := map[string]storage.TupleID{}
	for tid, ct := range want {
		if other, dup := seen[string(ct)]; dup {
			t.Fatalf("tuples %d and %d share a ciphertext: a keystream was reused", tid, other)
		}
		seen[string(ct)] = tid
	}

	reversed := make([]*Record, n)
	for i, r := range batch {
		reversed[n-1-i] = r
	}
	enc, err := EncodeRecords(nil, reversed, codec)
	if err != nil {
		t.Fatal(err)
	}
	for tid, ct := range payloadBytes(t, enc, n) {
		if !bytes.Equal(ct, want[tid]) {
			t.Fatalf("tuple %d: ciphertext differs when the run is reversed", tid)
		}
	}
	for _, r := range batch {
		one, err := EncodeRecords(nil, []*Record{r}, codec)
		if err != nil {
			t.Fatal(err)
		}
		if ct := payloadBytes(t, one, 1)[r.Tuple]; !bytes.Equal(ct, want[r.Tuple]) {
			t.Fatalf("tuple %d: ciphertext differs in a run of one", r.Tuple)
		}
	}
}

// TestTornTailInsideRun cuts a group flush at every kind of place a
// 64-record run has — header, id column, inside the 9-byte first insert
// time, inside the key column's 8-byte first INT, the name lengths'
// deltas, the names, the payloads, last byte — and requires the same of
// each: the acked batch before it replays, nothing of the torn run does,
// and the log takes appends again. Every INT sits above 2^50, so each is
// an 8-byte varint.
func TestTornTailInsideRun(t *testing.T) {
	run := make([]*Record, 64)
	for i := range run {
		run[i] = insertRec(storage.TupleID(100+i), fmt.Sprintf("row-%d", i), value.Int(1<<50+int64(i)))
		run[i].StableRow[0] = value.Int(1<<50 + int64(100+i))
	}
	payload, err := EncodeRecords(nil, run, PlainCodec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 3, 10, 26, 40, 200, len(payload) / 2, len(payload) - 10, len(payload) - 1} {
		t.Run(fmt.Sprintf("cut-%d-of-%d", cut, len(payload)), func(t *testing.T) {
			fi := &FaultInjector{}
			l, dir := openFaultLog(t, fi, Options{Sync: true})
			if _, err := l.GroupAppend(encodeBatch(t, 1)); err != nil {
				t.Fatal(err)
			}
			fi.CrashDuringSync(1, batchHeaderSize+cut)
			if _, err := l.GroupAppend(payload); !errors.Is(err, ErrInjected) {
				t.Fatalf("crashed append err = %v, want ErrInjected", err)
			}
			l.Close()
			if got := replayTuples(t, dir); len(got) != 1 || !got[1] {
				t.Fatalf("replay after a cut inside the run = %v, want exactly {1}", got)
			}
			l2, err := Open(dir, Options{Sync: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l2.GroupAppend(payload); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			l2.Close()
			if got := replayTuples(t, dir); len(got) != 65 {
				t.Fatalf("replay after recovery saw %d inserts, want 65", len(got))
			}
		})
	}
	// A run cut short inside an intact frame (the CRC would have to
	// collide) is an error, not a silent short replay.
	if _, err := DecodeRecords(payload[:len(payload)-1], PlainCodec{}); err == nil {
		t.Fatal("a run missing its last byte decoded")
	}
}

// TestVacuumMarksPartOfARunLost: vacuum decodes a 40-record run, marks
// every third payload lost, and writes the run back with a mixed status
// column — the marked secrets are off the disk, the others replay, and
// the lost flags survive a second vacuum that changes nothing.
func TestVacuumMarksPartOfARunLost(t *testing.T) {
	l, dir := openTestLog(t, Options{Sync: true})
	defer l.Close()
	const n = 40
	run := make([]*Record, n)
	for i := range run {
		run[i] = insertRec(storage.TupleID(i+1), "who", value.Text(fmt.Sprintf("secret-address-%02d", i)))
	}
	if err := appendRecs(l, run); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	expired := func(r *Record) bool { return r.Tuple%3 == 0 }
	if err := l.Vacuum(func(r *Record) {
		if expired(r) {
			r.DegVals[0], r.DegLost[0] = value.Null(), true
		}
	}); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, "wal-00000001.log"))
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		if err := l.Replay(func(r *Record) error {
			seen++
			secret := fmt.Sprintf("secret-address-%02d", r.Tuple-1)
			if expired(r) {
				if !r.DegLost[0] || !r.DegVals[0].IsNull() {
					t.Errorf("%s: tuple %d replays %v lost=%v, want lost", stage, r.Tuple, r.DegVals[0], r.DegLost[0])
				}
				if bytes.Contains(raw, []byte(secret)) {
					t.Errorf("%s: %s is still in the segment", stage, secret)
				}
			} else if r.DegLost[0] || r.DegVals[0].Text() != secret {
				t.Errorf("%s: tuple %d replays %v lost=%v, want %s", stage, r.Tuple, r.DegVals[0], r.DegLost[0], secret)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if seen != n {
			t.Fatalf("%s: replayed %d records, want %d", stage, seen, n)
		}
	}
	check("after vacuum")
	if err := l.Vacuum(func(*Record) {}); err != nil {
		t.Fatal(err)
	}
	check("after a second, idle vacuum")
}

// TestOpenRefusesFormat1Log: a segment of per-record batches must not be
// mistaken for a torn tail and truncated away.
func TestOpenRefusesFormat1Log(t *testing.T) {
	// One format 1 frame: the old magic over an old-style record (type,
	// table u32, tuple u64 — a delete).
	refusesSegment(t, batchMagicV1, append([]byte{byte(RecDelete)}, make([]byte, 12)...), "format 1")
}

// TestOpenRefusesFormat2Log: a segment of runs whose values carry
// fixed-width INTs is refused by name too — its frames are well formed,
// and its payloads would misread as varints.
func TestOpenRefusesFormat2Log(t *testing.T) {
	// One format 2 frame: an update run (type, table, count, tuple, then
	// column 1 and an INT of kind byte plus 8 bytes).
	payload := []byte{byte(RecUpdateStable), 1, 1, 7, 1, byte(value.KindInt), 0, 0, 0, 0, 0, 0, 0, 42}
	refusesSegment(t, batchMagicV2, payload, "format 2")
}

// TestOpenRefusesFormat3Log: a segment of runs whose stable rows are
// written row by row is refused by name — its frames are well formed,
// and its id deltas would misread as a seq's mode byte.
func TestOpenRefusesFormat3Log(t *testing.T) {
	// One format 3 frame: a delete run of ids 7 and 8 (type, table,
	// count, first id, delta +1).
	refusesSegment(t, batchMagicV3, []byte{byte(RecDelete), 1, 2, 7, 2}, "format 3")
}

// refusesSegment writes one frame of payload under magic as the only
// segment of a log, and requires Open to refuse it with ErrFormatVersion
// naming the format, leaving the segment as it was.
func refusesSegment(t *testing.T, magic uint32, payload []byte, format string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	if err := os.MkdirAll(dir, 0o700); err != nil {
		t.Fatal(err)
	}
	frame := binary.LittleEndian.AppendUint32(nil, magic)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	seg := filepath.Join(dir, "wal-00000001.log")
	if err := os.WriteFile(seg, frame, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrFormatVersion) || !strings.Contains(err.Error(), format) {
		t.Fatalf("Open over a %s segment: %v, want ErrFormatVersion naming it", format, err)
	}
	if after, err := os.ReadFile(seg); err != nil || !bytes.Equal(after, frame) {
		t.Fatalf("the refused segment was modified (err %v)", err)
	}
}

// walRows draws n rows of the benchmark's shape (bench/gen.go: an INT
// key, a name of 11 to 19 bytes, a location stored as a node id, an INT
// salary): ids and insert times from next, salaries below maxSalary.
func walRows(rng *rand.Rand, n int, maxSalary int64, next func() (storage.TupleID, int64)) []*Record {
	recs := make([]*Record, n)
	for i := range recs {
		id, nano := next()
		name := "p" + "anderssonxbouganimyz"[:10+rng.Intn(9)]
		recs[i] = &Record{Type: RecInsert, Table: 1, Tuple: id, InsertNano: nano,
			States:    []uint8{0, 0},
			StableRow: []value.Value{value.Int(int64(id)), value.Text(name), value.Null(), value.Null()},
			DegVals:   []value.Value{value.Int(498073600 + rng.Int63n(4096)), value.Int(100 + rng.Int63n(maxSalary))}}
	}
	return recs
}

// walWave returns one degradation wave over inserts: every location one
// level up.
func walWave(rng *rand.Rand, inserts []*Record) []*Record {
	wave := make([]*Record, len(inserts))
	for i, r := range inserts {
		wave[i] = &Record{Type: RecDegrade, Table: 1, Tuple: r.Tuple, InsertNano: r.InsertNano,
			DegPos: 0, NewState: 1, NewStored: value.Int(498070000 + rng.Int63n(64))}
	}
	return wave
}

// walBytes logs inserts in transactions of perTxn and then wave in
// batches of perBatch, the way the benchmark loads and degrades, and
// returns the log bytes each took.
func walBytes(t *testing.T, codec Codec, inserts, wave []*Record, perTxn, perBatch int) (insertBytes, waveBytes int64) {
	t.Helper()
	l, err := Open(filepath.Join(t.TempDir(), "wal"), Options{Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for at := 0; at < len(inserts); at += perTxn {
		if err := appendRecs(l, inserts[at:min(at+perTxn, len(inserts))]); err != nil {
			t.Fatal(err)
		}
	}
	insertBytes = l.SizeBytes()
	for at := 0; at < len(wave); at += perBatch {
		if err := appendRecs(l, wave[at:min(at+perBatch, len(wave))]); err != nil {
			t.Fatal(err)
		}
	}
	return insertBytes, l.SizeBytes() - insertBytes
}

// TestWALSizeBudget pins what a record costs in the log, on the
// benchmark's row shape loaded the way the benchmark loads it —
// 500-row insert transactions on a still clock, degradation batches of
// 256 — under the codec production uses. Budgets, with the cost under
// row-wise stable rows and per-record id, time and length deltas, under
// fixed-width INTs and under the per-record encoding beside them: an
// insert 27.5 B (36.8, 51, 94), a degradation 6.5 B (9.1, 12, 43), a
// one-row insert commit 69 B (69, 85, 106), and no allocation per
// sealed payload beyond one per hundred (was three, and a key schedule).
//
// The moving-clock case is the one a still clock hides: ids with gaps,
// inserts 1 to 2 ms apart and salaries of mixed lengths, so no id, time
// or salary-length column is a progression. Each of its runs may cost at
// most 2 B more than the row-wise encoding wrote for it.
func TestWALSizeBudget(t *testing.T) {
	codec := openShredCodec(t, time.Hour)
	rng := rand.New(rand.NewSource(14))
	const rows, perTxn, perBatch = 20000, 500, 256
	const insertBudget, degradeBudget, commitBudget = 27.5, 6.5, 69
	now := vclock.Epoch.UnixNano()
	id := 0
	inserts := walRows(rng, rows, 9000, func() (storage.TupleID, int64) {
		id++
		return storage.TupleID(id), now
	})
	wave := walWave(rng, inserts)
	insertBytes, waveBytes := walBytes(t, codec, inserts, wave, perTxn, perBatch)
	perInsert := float64(insertBytes) / rows
	t.Logf("insert record: %.1f B in %d-row transactions (budget %.1f)", perInsert, perTxn, insertBudget)
	if perInsert > insertBudget {
		t.Errorf("an insert record costs %.1f B, budget %.1f", perInsert, insertBudget)
	}
	perDegrade := float64(waveBytes) / rows
	t.Logf("degrade record: %.1f B in batches of %d (budget %.1f)", perDegrade, perBatch, degradeBudget)
	if perDegrade > degradeBudget {
		t.Errorf("a degrade record costs %.1f B, budget %.1f", perDegrade, degradeBudget)
	}

	one, err := EncodeRecords(nil, inserts[:1], codec)
	if err != nil {
		t.Fatal(err)
	}
	commit := batchHeaderSize + len(one)
	t.Logf("one-row insert commit: %d B (budget %d)", commit, commitBudget)
	if commit > commitBudget {
		t.Errorf("a one-row insert commit costs %d B, budget %d", commit, commitBudget)
	}

	// Allocations: a warm encode of one degrade batch into a reused
	// buffer, per sealed payload.
	buf := make([]byte, 0, 1<<14)
	allocs := testing.AllocsPerRun(50, func() {
		if buf, err = EncodeRecords(buf[:0], wave[:perBatch], codec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("sealing: %.4f allocations per payload (budget 0.01)", allocs/perBatch)
	if allocs/perBatch > 0.01 {
		t.Errorf("%.0f allocations to seal %d payloads, budget one per hundred", allocs, perBatch)
	}

	t.Run("moving-clock", func(t *testing.T) {
		// The row-wise encoding's bytes for exactly these records (seed
		// 15), and the runs they form.
		const rowWiseInserts, rowWiseWave = 816239, 241302
		insertRuns, waveRuns := (rows+perTxn-1)/perTxn, (rows+perBatch-1)/perBatch
		rng := rand.New(rand.NewSource(15))
		id, nano := 0, now
		inserts := walRows(rng, rows, 1_000_000, func() (storage.TupleID, int64) {
			id += 1 + rng.Intn(3)
			nano += int64(time.Millisecond) + rng.Int63n(int64(time.Millisecond))
			return storage.TupleID(id), nano
		})
		insertBytes, waveBytes := walBytes(t, codec, inserts, walWave(rng, inserts), perTxn, perBatch)
		t.Logf("insert record: %.1f B (row-wise %.1f B); degrade record: %.1f B (row-wise %.1f B)",
			float64(insertBytes)/rows, float64(rowWiseInserts)/rows, float64(waveBytes)/rows, float64(rowWiseWave)/rows)
		if limit := int64(rowWiseInserts + 2*insertRuns); insertBytes > limit {
			t.Errorf("inserts off a progression cost %d B, over the row-wise %d B plus 2 B per run", insertBytes, rowWiseInserts)
		}
		if limit := int64(rowWiseWave + 2*waveRuns); waveBytes > limit {
			t.Errorf("degradations off a progression cost %d B, over the row-wise %d B plus 2 B per run", waveBytes, rowWiseWave)
		}
	})
}

// TestReplayAllocSizeBudget: replaying a 500-row insert run of the
// benchmark's shape allocates the names' strings and a handful of arrays
// per run — every row, state vector and payload of the run shares one
// backing array per field. Budget 1.05 allocations per record (2.01
// when every stable row was an allocation of its own).
func TestReplayAllocSizeBudget(t *testing.T) {
	codec := openShredCodec(t, time.Hour)
	const rows, budget = 500, 1.05
	id, now := 0, vclock.Epoch.UnixNano()
	recs := walRows(rand.New(rand.NewSource(14)), rows, 9000, func() (storage.TupleID, int64) {
		id++
		return storage.TupleID(id), now
	})
	enc, err := EncodeRecords(nil, recs, codec)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	allocs := testing.AllocsPerRun(20, func() {
		seen = 0
		if err := decodeRuns(enc, codec, func(*Record) error { seen++; return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if seen != rows {
		t.Fatalf("replayed %d records, want %d", seen, rows)
	}
	t.Logf("replay: %.3f allocations per record (budget %.2f)", allocs/rows, budget)
	if allocs/rows > budget {
		t.Errorf("replay costs %.3f allocations per record, budget %.2f", allocs/rows, budget)
	}
}

// TestDecodedRecordsOwnTheirBytes: overwriting the decoded input leaves
// every decoded record as it was — no stable value, payload or state
// vector aliases the segment a replay read, under either codec.
func TestDecodedRecordsOwnTheirBytes(t *testing.T) {
	var recs []*Record
	for i := 0; i < 40; i++ {
		r := insertRec(storage.TupleID(10+i), fmt.Sprintf("name-%d", i), value.Text(fmt.Sprintf("place-%d", i%7)))
		r.StableRow = append(r.StableRow, value.Text(strings.Repeat("t", i)))
		if i%3 == 0 {
			r.StableRow[0] = value.Text("a key of another kind")
		}
		r.States, r.DegLost = []uint8{1}, []bool{false}
		recs = append(recs, r)
	}
	recs = append(recs, &Record{Type: RecUpdateStable, Table: 1, Tuple: 11, Col: 1, Val: value.Text("renamed")},
		&Record{Type: RecDegrade, Table: 1, Tuple: 12, DegPos: 0, NewState: 2, NewStored: value.Text("region")})
	for name, codec := range map[string]Codec{"plain": PlainCodec{}, "shred": openShredCodec(t, time.Hour)} {
		enc, err := EncodeRecords(nil, recs, codec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRecords(enc, codec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range enc {
			enc[i] = 0xA5
		}
		if len(got) != len(recs) {
			t.Fatalf("%s: %d records decoded, want %d", name, len(got), len(recs))
		}
		for i := range recs {
			if err := sameRecord(recs[i], got[i]); err != nil {
				t.Fatalf("%s: record %d changed with the input: %v", name, i, err)
			}
		}
	}
}
