package storage

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"instantdb/internal/value"
)

// checkFrame encodes the tuple of a patch case (data, see readPatchCase),
// with tuple id id and insert time nanos, in frame f, and checks the
// record against the frame rule: decodeRecord gives the tuple back,
// recordID and recordStatesAt agree with it, rebasing to frame g and back
// gives the same bytes, the rebased record decodes to the same tuple in
// g, a page of frame g stores exactly the rebased record, and
// patchRecord commutes with rebaseRecord.
func checkFrame(data []byte, id TupleID, nanos int64, f, g frame) error {
	pc, err := readPatchCase(data)
	if err != nil {
		return err
	}
	at := time.Unix(0, nanos)
	rec := encodeRecord(nil, f, id, at, pc.states, pc.row)
	same := func(rec []byte, in frame) error {
		t, err := decodeRecord(rec, in)
		if err != nil {
			return err
		}
		if t.ID != id || t.InsertedAt.UnixNano() != nanos || !slices.Equal(t.States, pc.states) ||
			!bytes.Equal(value.EncodeRow(nil, t.Row), value.EncodeRow(nil, pc.row)) {
			return fmt.Errorf("decoded in %+v: %+v, want id %d at %d, states %v, row %v", in, t, id, nanos, pc.states, pc.row)
		}
		off, n, err := recordStatesAt(rec)
		if err != nil {
			return err
		}
		if got, states := recordID(rec, in), rec[off:off+n]; got != id || !slices.Equal(states, pc.states) {
			return fmt.Errorf("in %+v: recordID %d and recordStatesAt %v, want %d and %v", in, got, states, id, pc.states)
		}
		return nil
	}
	if err := same(rec, f); err != nil {
		return err
	}
	inG, err := rebased([]byte("dst"), rec, f, g)
	if err != nil {
		return err
	}
	if string(inG[:3]) != "dst" {
		return fmt.Errorf("rebaseRecord overwrote dst: %q", inG[:3])
	}
	inG = inG[3:]
	if err := same(inG, g); err != nil {
		return err
	}
	back, err := rebased(nil, inG, g, f)
	if err != nil {
		return err
	}
	if !bytes.Equal(back, rec) {
		return fmt.Errorf("rebased %+v → %+v → back\n%x\nwant\n%x", f, g, back, rec)
	}
	p := make([]byte, PageSize)
	initPage(p, 1, g)
	if slot, ok := pageInsert(p, rec, f); ok {
		if got, _ := pageRead(p, slot); !bytes.Equal(got, inG) {
			return fmt.Errorf("a page of frame %+v stores\n%x\nwant\n%x", g, got, inG)
		}
	} else if len(inG) <= MaxRecordSize {
		return fmt.Errorf("a page of frame %+v refused a %d-byte record", g, len(inG))
	}

	col := pc.tbl.DegradableColumns()[pc.degPos]
	patched, err := patchRecord(nil, rec, pc.degPos, col, pc.newState, pc.newStored)
	if err != nil {
		return err
	}
	patchedThenRebased, err := rebased(nil, patched, f, g)
	if err != nil {
		return err
	}
	rebasedThenPatched, err := patchRecord(nil, inG, pc.degPos, col, pc.newState, pc.newStored)
	if err != nil {
		return err
	}
	if !bytes.Equal(patchedThenRebased, rebasedThenPatched) {
		return fmt.Errorf("patch then rebase\n%x\nrebase then patch\n%x", patchedThenRebased, rebasedThenPatched)
	}
	return nil
}

// rebased appends to dst rec, a record in frame from, rebased to frame
// to.
func rebased(dst, rec []byte, from, to frame) ([]byte, error) {
	head, body, err := rebaseRecord(dst, rec, from, to)
	return append(head, body...), err
}

// frameSeed is one set of checkFrame's id, time and frames.
type frameSeed struct {
	id             TupleID
	nanos          int64
	fID, gID       TupleID
	fNanos, gNanos int64
}

// frameSeeds cover deltas of zero, of one byte and two, negative ones,
// and ±2⁶³ in either field, in either frame.
func frameSeeds() []frameSeed {
	const now = int64(1_700_000_000_000_000_000)
	return []frameSeed{
		{5, now, 5, 1, now, now - 1},
		{1, now, 0, 0, 0, 0},
		{300, now + 1e6, 301, 100, now, now + 3e6},
		{1 << 63, math.MinInt64, 0, 0, 0, 0},
		{0, 0, 1 << 63, math.MaxUint64, math.MinInt64, math.MaxInt64},
		{math.MaxUint64, math.MaxInt64, 0, 1 << 63, math.MinInt64, -1},
		{7, -now, 8, 1 << 62, now, -now},
	}
}

// FuzzPageRecord runs checkFrame on tuples, frames and transitions the
// fuzzer chooses.
func FuzzPageRecord(f *testing.F) {
	for _, fs := range frameSeeds() {
		for _, seed := range patchSeeds() {
			f.Add(seed, uint64(fs.id), fs.nanos, uint64(fs.fID), fs.fNanos, uint64(fs.gID), fs.gNanos)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, id uint64, nanos int64, fID uint64, fNanos int64, gID uint64, gNanos int64) {
		if err := checkFrame(data, TupleID(id), nanos, frame{TupleID(fID), fNanos}, frame{TupleID(gID), gNanos}); err != nil {
			t.Fatal(err)
		}
	})
}
