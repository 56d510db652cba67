package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"instantdb/internal/catalog"
	"instantdb/internal/gentree"
	"instantdb/internal/lcp"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
)

// patchInput reads a fuzz input as a stream of bytes; past its end every
// read is 0, so every input is a case.
type patchInput struct{ b []byte }

func (p *patchInput) next() byte {
	if len(p.b) == 0 {
		return 0
	}
	c := p.b[0]
	p.b = p.b[1:]
	return c
}

// value draws a stored value from five bytes: kind, then four of
// payload. TEXT is a+128·(b%8) letters from seed c, so its length varint
// takes one byte or two, and a few of them fill a page.
func (p *patchInput) value() value.Value {
	k, a, b, c, d := p.next(), p.next(), p.next(), p.next(), p.next()
	switch k % 6 {
	case 0:
		return value.Null()
	case 1:
		return value.Int(int64(a)<<56 | int64(b)<<32 | int64(c)<<8 | int64(d))
	case 2:
		return value.Float(float64(int(a)<<8|int(b)) / 7)
	case 3:
		s := make([]byte, int(a)+128*int(b%8))
		for i := range s {
			s[i] = 'a' + (c+byte(i))%26
		}
		return value.Text(string(s))
	case 4:
		return value.Bool(a%2 == 1)
	default:
		return value.Time(time.Unix(int64(a)<<20|int64(b), 0))
	}
}

// state draws an LCP state, StateErased included.
func (p *patchInput) state() uint8 {
	if s := p.next(); s%5 != 4 {
		return s % 4
	}
	return StateErased
}

// patchTable creates a table of cols columns over the Figure 1 domain;
// the columns whose bit is set in mask are degradable, and the last one
// is when no bit of a column is.
func patchTable(cols int, mask byte, layout catalog.StorageLayout) (*catalog.Table, error) {
	c := catalog.New()
	loc := gentree.Figure1Locations()
	if err := c.AddDomain(loc); err != nil {
		return nil, err
	}
	pol := lcp.Figure2(loc)
	if err := c.AddPolicy(pol); err != nil {
		return nil, err
	}
	if mask&(1<<cols-1) == 0 {
		mask |= 1 << (cols - 1)
	}
	defs := make([]catalog.Column, cols)
	for i := range defs {
		defs[i] = catalog.Column{Name: fmt.Sprintf("c%d", i), Kind: value.KindText}
		if mask&(1<<i) != 0 {
			defs[i].Degradable, defs[i].Domain, defs[i].Policy = true, loc, pol
		}
	}
	return c.CreateTable("t", defs, -1, layout)
}

// patchCase is a table, one tuple of it and one transition of that tuple.
type patchCase struct {
	tbl       *catalog.Table
	row       []value.Value
	states    []uint8
	degPos    int
	newState  uint8
	newStored value.Value
}

// readPatchCase builds a case from bytes: the column count (1 to 6), the
// degradable mask, the layout (odd for LayoutInPlace), a value per
// column, a state per degradable column, the position to degrade, its
// new state and its new stored value.
func readPatchCase(data []byte) (patchCase, error) {
	p := &patchInput{data}
	cols, mask, layout := max(1, int(p.next()%7)), p.next(), catalog.StorageLayout(p.next()%2)
	tbl, err := patchTable(cols, mask, layout)
	if err != nil {
		return patchCase{}, err
	}
	pc := patchCase{tbl: tbl}
	for range cols {
		pc.row = append(pc.row, p.value())
	}
	for range tbl.DegradableColumns() {
		pc.states = append(pc.states, p.state())
	}
	pc.degPos = int(p.next()) % len(pc.states)
	pc.newState = p.state()
	pc.newStored = p.value()
	return pc, nil
}

// patchFrame is the frame checkPatch encodes its records in: neither the
// zero frame nor the tuple's own, so both deltas are non-zero.
var patchFrame = frame{id: 7, nanos: vclock.Epoch.Add(-time.Hour).UnixNano()}

// ownSize returns the length of tuple t's record in its own frame: what
// it takes as the first record of a fresh page.
func ownSize(t Tuple) int {
	return len(encodeRecord(nil, frame{t.ID, t.InsertedAt.UnixNano()}, t.ID, t.InsertedAt, t.States, t.Row))
}

// checkPatch runs one case. patchRecord must produce, byte for byte, the
// record decoding, modifying and re-encoding gives, in the frame the
// record is in. DegradeAttr on a store holding the tuple, on a page
// whose frame is the tuple's, must leave exactly that record (the
// original one when the state does not advance or the record would
// outgrow a page), and no byte of the old value in any page.
func checkPatch(data []byte) error {
	pc, err := readPatchCase(data)
	if err != nil {
		return err
	}
	col := pc.tbl.DegradableColumns()[pc.degPos]
	rec := encodeRecord(nil, patchFrame, 1, vclock.Epoch, pc.states, pc.row)
	t, err := decodeRecord(rec, patchFrame)
	if err != nil {
		return err
	}
	orig := cloneTuple(t)
	t.States[pc.degPos], t.Row[col] = pc.newState, pc.newStored
	want := encodeRecord(nil, patchFrame, t.ID, t.InsertedAt, t.States, t.Row)
	got, err := patchRecord([]byte("dst"), rec, pc.degPos, col, pc.newState, pc.newStored)
	if err != nil {
		return err
	}
	if string(got[:3]) != "dst" || !bytes.Equal(got[3:], want) {
		return fmt.Errorf("patched record\n%x\nre-encoded\n%x", got, want)
	}

	store := NewMemStore()
	ts := NewManager(store).Table(pc.tbl)
	id, err := ts.Insert(pc.row, pc.states, vclock.Epoch)
	if errors.Is(err, ErrRecordTooLarge) && ownSize(orig) > MaxRecordSize {
		return nil
	}
	if err != nil {
		return err
	}
	err = ts.DegradeAttr(id, pc.degPos, pc.newStored, pc.newState)
	switch {
	case !StateAdvances(pc.states[pc.degPos], pc.newState):
		want = rec
	case ownSize(t) > MaxRecordSize:
		if !errors.Is(err, ErrRecordTooLarge) {
			return fmt.Errorf("a %d-byte record: DegradeAttr err = %v", ownSize(t), err)
		}
		want, err = rec, nil
	}
	if err != nil {
		return err
	}
	tup, err := ts.Get(id)
	if err != nil {
		return err
	}
	if f := pageFrame(pageOf(store, ts, id)); f != (frame{id, vclock.Epoch.UnixNano()}) {
		return fmt.Errorf("the tuple's page has frame %+v, want its own", f)
	}
	stored := encodeRecord(nil, patchFrame, tup.ID, tup.InsertedAt, tup.States, tup.Row)
	if !bytes.Equal(stored, want) {
		return fmt.Errorf("stored after DegradeAttr\n%x\nwant\n%x", stored, want)
	}
	// Past the slot directory a page is zero wherever it holds no live
	// record, so an encoding without a zero byte that the one live record
	// lacks must be nowhere.
	needle := value.Encode(nil, pc.row[col])
	if bytes.IndexByte(needle, 0) == -1 && !bytes.Contains(stored, needle) && findInPages(store, needle) {
		return fmt.Errorf("old value %x survives in the pages", needle)
	}
	return nil
}

// pageOf returns the content of the page tuple id lives on.
func pageOf(s Store, ts *TableStore, id TupleID) []byte {
	p := make([]byte, PageSize)
	s.ReadPage(ts.dir.get(id).page, p)
	return p
}

// findInPages reports whether needle is in any page of the store past
// its slot directory.
func findInPages(s Store, needle []byte) bool {
	found := false
	s.ForEachPage(func(_ PageID, data []byte) error {
		from := int(binary.LittleEndian.Uint16(data[4:]))
		found = found || bytes.Contains(data[from:], needle)
		return nil
	})
	return found
}

// patchSeeds are the cases of TestPatchRecordMatchesReencode and the seed
// corpus of FuzzPatchRecord, in readPatchCase's bytes (values five bytes
// each): every value kind in and out, TEXT length varints of one byte and
// two, the degradable column first, middle and last, records that grow
// (INT to range TEXT) and shrink (TEXT to NULL, TEXT 200 to 50), a no-op,
// an erasure, and both layouts.
func patchSeeds() [][]byte {
	var seeds [][]byte
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	for _, layout := range []byte{0, 1} {
		for kin := range byte(6) {
			for kout := range byte(6) {
				seeds = append(seeds, cat([]byte{2, 0b10, layout},
					[]byte{3, 10, 0, 1, 0}, []byte{kin, 0x41, 0x42, 0x43, 0x44},
					[]byte{0}, []byte{0}, []byte{1}, []byte{kout, 0x45, 0x05, 0x47, 0x48}))
			}
		}
		seeds = append(seeds,
			// degradable first of three: TEXT 20 → TEXT 140
			cat([]byte{3, 0b001, layout}, []byte{3, 20, 0, 1, 0}, []byte{1, 1, 2, 3, 4}, []byte{3, 5, 0, 2, 0},
				[]byte{0}, []byte{0}, []byte{1}, []byte{3, 12, 1, 3, 0}),
			// degradable middle and last: INT → range TEXT on the last
			cat([]byte{3, 0b110, layout}, []byte{1, 9, 9, 9, 9}, []byte{1, 0x11, 0x22, 0x33, 0x44}, []byte{1, 0x55, 0x66, 0x77, 0x18},
				[]byte{0, 0}, []byte{1}, []byte{1}, []byte{3, 30, 0, 4, 0}),
			// degradable middle: TEXT 200 → TEXT 50
			cat([]byte{3, 0b010, layout}, []byte{1, 1, 1, 1, 1}, []byte{3, 72, 1, 3, 0}, []byte{2, 5, 5, 0, 0},
				[]byte{0}, []byte{0}, []byte{1}, []byte{3, 50, 0, 4, 0}),
			// TEXT 300 → NULL, erased
			cat([]byte{2, 0b10, layout}, []byte{4, 1, 0, 0, 0}, []byte{3, 44, 2, 7, 0},
				[]byte{0}, []byte{0}, []byte{4}, []byte{0, 0, 0, 0, 0}),
			// no-op: state 2 does not advance to 1
			cat([]byte{1, 0b1, layout}, []byte{3, 30, 0, 6, 0},
				[]byte{2}, []byte{0}, []byte{1}, []byte{3, 5, 0, 9, 0}),
			// six degradable columns, the last one erased
			cat([]byte{6, 0x3f, layout}, []byte{1, 1, 2, 3, 4}, []byte{3, 5, 0, 7, 0}, []byte{4, 1, 0, 0, 0},
				[]byte{5, 9, 2, 0, 0}, []byte{2, 8, 3, 0, 0}, []byte{3, 30, 1, 1, 0},
				[]byte{0, 1, 2, 3, 0, 1}, []byte{5}, []byte{4}, []byte{0, 0, 0, 0, 0}),
			// NULL → TEXT 1151 beside four TEXT 895s: the record outgrows the page
			cat([]byte{5, 0b1, layout}, []byte{0, 0, 0, 0, 0}, bytes.Repeat([]byte{3, 255, 5, 1, 0}, 4),
				[]byte{0}, []byte{0}, []byte{1}, []byte{3, 255, 7, 2, 0}),
		)
	}
	return seeds
}

// TestPatchRecordMatchesReencode runs checkPatch on the seed cases.
func TestPatchRecordMatchesReencode(t *testing.T) {
	for _, seed := range patchSeeds() {
		if err := checkPatch(seed); err != nil {
			t.Errorf("case %x: %v", seed, err)
		}
	}
}

// FuzzPatchRecord runs checkPatch on cases the fuzzer chooses.
func FuzzPatchRecord(f *testing.F) {
	for _, seed := range patchSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkPatch(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDegradeScrubsOldValue: on a page several tuples share, a
// transition that shrinks its record and one that grows it out of its
// slot both leave no byte of the old stored value in any page, in both
// layouts, and leave the other tuples as they were.
func TestDegradeScrubsOldValue(t *testing.T) {
	for _, layout := range []catalog.StorageLayout{catalog.LayoutMove, catalog.LayoutInPlace} {
		tbl, err := patchTable(2, 0b10, layout)
		if err != nil {
			t.Fatal(err)
		}
		store := NewMemStore()
		ts := NewManager(store).Table(tbl)
		secret := strings.Repeat("secret-address-", 12)
		salary := value.Int(0x0102030405060708)
		rows := [][]value.Value{{value.Int(9), salary}}
		for i := range 5 {
			rows = append(rows, []value.Value{value.Int(int64(i)), value.Text(fmt.Sprint(secret, i))})
		}
		var ids []TupleID
		for _, row := range rows {
			id, err := ts.Insert(row, []uint8{0}, vclock.Epoch)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if st := ts.Stats(); st.Pages != 1 {
			t.Fatalf("layout %v: sanity: the tuples take %d pages, want 1", layout, st.Pages)
		}
		ranged, city := value.Text(strings.Repeat("[1000000, 2000000) ", 8)), value.Text("Amsterdam")
		if err := ts.DegradeAttr(ids[0], 0, ranged, 1); err != nil {
			t.Fatal(err)
		}
		if err := ts.DegradeAttr(ids[3], 0, city, 1); err != nil {
			t.Fatal(err)
		}
		for _, needle := range [][]byte{[]byte(fmt.Sprint(secret, 2)), value.Encode(nil, salary)} {
			if findInPages(store, needle) {
				t.Errorf("layout %v: %q survives its transition", layout, needle)
			}
		}
		rows[0][1], rows[3][1] = ranged, city
		got, err := ts.GetMany(ids)
		if err != nil {
			t.Fatal(err)
		}
		for i, tup := range got {
			st := uint8(0)
			if i == 0 || i == 3 {
				st = 1
			}
			if tup.States[0] != st || !slices.EqualFunc(tup.Row, rows[i], value.Equal) {
				t.Errorf("layout %v: tuple %d reads %+v, want state %d and %v", layout, ids[i], tup, st, rows[i])
			}
		}
	}
}
