package storage

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"instantdb/internal/catalog"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
)

// runSide is one of the two stores runRunOps keeps in step.
type runSide struct {
	store Store
	mgr   *Manager
	ts    *TableStore
}

func newRunSide(tbl *catalog.Table) runSide {
	store := NewMemStore()
	mgr := NewManager(store)
	return runSide{store: store, mgr: mgr, ts: mgr.Table(tbl)}
}

// pagesOf returns a copy of every page of a store, in id order.
func pagesOf(s Store) ([]byte, error) {
	var out []byte
	err := s.ForEachPage(func(_ PageID, data []byte) error {
		out = append(out, data...)
		return nil
	})
	return out, err
}

// sameStores reports the first difference between two sides: their page
// bytes, free lists, directories and births, segments (page sets and
// open lists), page-to-segment maps, version chains and next ids.
func sameStores(a, b runSide) error {
	pa, err := pagesOf(a.store)
	if err != nil {
		return err
	}
	pb, err := pagesOf(b.store)
	if err != nil {
		return err
	}
	if len(pa) != len(pb) {
		return fmt.Errorf("%d pages, one at a time %d", len(pa)/PageSize, len(pb)/PageSize)
	}
	for off := 0; off < len(pa); off += PageSize {
		if !bytes.Equal(pa[off:off+PageSize], pb[off:off+PageSize]) {
			return fmt.Errorf("page %d differs", off/PageSize)
		}
	}
	switch {
	case !slices.Equal(a.mgr.free, b.mgr.free):
		return fmt.Errorf("free list %v, one at a time %v", a.mgr.free, b.mgr.free)
	case !reflect.DeepEqual(a.ts.dir, b.ts.dir):
		return fmt.Errorf("directories differ (%d and %d tuples)", a.ts.dir.n, b.ts.dir.n)
	case !maps.Equal(a.ts.births.at, b.ts.births.at):
		return fmt.Errorf("births differ (%d and %d young tuples)", len(a.ts.births.at), len(b.ts.births.at))
	case !reflect.DeepEqual(a.ts.segs, b.ts.segs):
		return fmt.Errorf("segments differ")
	case !maps.Equal(a.ts.pageSeg, b.ts.pageSeg):
		return fmt.Errorf("page-to-segment maps differ")
	case !reflect.DeepEqual(a.ts.hist, b.ts.hist) || a.ts.lastSupersede != b.ts.lastSupersede:
		return fmt.Errorf("version chains differ")
	case a.ts.nextID != b.ts.nextID:
		return fmt.Errorf("next id %d, one at a time %d", a.ts.nextID, b.ts.nextID)
	case len(a.ts.run) != 0:
		return fmt.Errorf("a finished run still holds %d pages", len(a.ts.run))
	}
	return nil
}

// runText is TEXT of the length size class c (two bits) selects — a few
// bytes, a few hundred, or about half a page — made of letters from seed.
func runText(c, seed byte) value.Value {
	n := [4]int{8, 40, 300, 1900}[c%4]
	s := make([]byte, n)
	for i := range s {
		s[i] = 'a' + (seed+byte(i))%26
	}
	return value.Text(string(s))
}

// runRunOps interprets ops as a history of insert, update, degrade and
// delete runs on a table of a stable and a degradable TEXT column,
// applies it to one store as runs (InsertRun, UpdateRun, DegradeRun,
// DeleteRun) and to another tuple by tuple (Insert, InsertWithID,
// UpdateStable, DegradeAttr, Delete), and compares the two after every
// step. Each step stamps its writes with an epoch of its own, so updates
// keep version chains. Past its end the stream reads as zeros.
//
// The first byte picks the layout (odd: LayoutInPlace). Then each step
// is an opcode byte, whose low two bits pick the operation, and its
// arguments:
//
//   - 0: an insert run of 1+n%96 tuples (n the next byte), one byte
//     each: bits 0–1 the id (0, 1: the next; 2: the next after a gap;
//     3: one inserted before, so the tuple is skipped), bits 2–3 the
//     state, bits 4–5 and 6–7 the size classes of the two columns;
//   - 1: an update run of up to 1+n%96 stable-column updates, two bytes
//     each: which tuple (counting back from the last inserted, deleted
//     ones too, which are left out of the run), then the new value's
//     size class (bits 0–1) and letters;
//   - 2: a degrade run of 1+n%96 transitions, two bytes each: which
//     tuple, then bits 0–2 the new state (1 plus their value, 8 standing
//     for StateErased) and bits 3–4 the new value's size class;
//   - 3: a delete run of n%8 tuples, one byte each picking the tuple.
func runRunOps(data []byte) error {
	in := &patchInput{data}
	tbl, err := patchTable(2, 0b10, catalog.StorageLayout(in.next()%2))
	if err != nil {
		return err
	}
	runs, single := newRunSide(tbl), newRunSide(tbl)
	var ids []TupleID // every id inserted, deleted ones included
	var last TupleID
	pick := func() TupleID {
		if len(ids) == 0 {
			return 1
		}
		return ids[len(ids)-1-int(in.next())%len(ids)]
	}
	for step := 0; len(in.b) > 0; step++ {
		op := in.next()
		runs.mgr.SetStampEpoch(uint64(step+1), 0)
		single.mgr.SetStampEpoch(uint64(step+1), 0)
		var errRuns, errSingle error
		switch op % 4 {
		case 0:
			tups := make([]Tuple, 1+int(in.next())%96)
			for i := range tups {
				spec := in.next()
				id := last + 1
				switch spec % 4 {
				case 2:
					id += TupleID(spec)
				case 3:
					id = pick()
				}
				last = max(last, id)
				ids = append(ids, id)
				tups[i] = Tuple{ID: id, InsertedAt: vclock.Epoch.Add(time.Duration(id)), States: []uint8{(spec >> 2) % 4},
					Row: []value.Value{runText(spec>>4, byte(id)), runText(spec>>6, byte(id>>3))}}
			}
			errRuns = runs.ts.InsertRun(tups)
			for i := 0; i < len(tups) && errSingle == nil; i++ {
				t := tups[i]
				if t.ID == single.ts.nextID+1 {
					var got TupleID
					if got, errSingle = single.ts.Insert(t.Row, t.States, t.InsertedAt); errSingle == nil && got != t.ID {
						errSingle = fmt.Errorf("Insert gave id %d, want %d", got, t.ID)
					}
				} else {
					errSingle = single.ts.InsertWithID(t.ID, t.Row, t.States, t.InsertedAt)
				}
			}
		case 1:
			var ups []StableUpdate
			for range 1 + int(in.next())%96 {
				id, spec := pick(), in.next()
				if runs.ts.dir.get(id) != nil {
					ups = append(ups, StableUpdate{ID: id, Col: 0, Val: runText(spec, spec>>2)})
				}
			}
			errRuns = runs.ts.UpdateRun(ups)
			for i := 0; i < len(ups) && errSingle == nil; i++ {
				errSingle = single.ts.UpdateStable(ups[i].ID, ups[i].Col, ups[i].Val)
			}
		case 2:
			to := make([]DegCell, 1+int(in.next())%96)
			for i := range to {
				to[i].ID = pick()
				spec := in.next()
				switch to[i].State = 1 + spec%8; to[i].State {
				case 8:
					to[i].State = StateErased
				default:
					to[i].Stored = runText(spec>>3, spec)
				}
			}
			errRuns = runs.ts.DegradeRun(0, to)
			for i := 0; i < len(to) && errSingle == nil; i++ {
				errSingle = single.ts.DegradeAttr(to[i].ID, 0, to[i].Stored, to[i].State)
			}
		case 3:
			del := make([]TupleID, in.next()%8)
			for i := range del {
				del[i] = pick()
			}
			errRuns = runs.ts.DeleteRun(del)
			for i := 0; i < len(del) && errSingle == nil; i++ {
				errSingle = single.ts.Delete(del[i])
			}
		}
		if err := cmp.Or(errRuns, errSingle, sameStores(runs, single)); err != nil {
			return fmt.Errorf("step %d (op %d): %w", step, op%4, err)
		}
	}
	return nil
}

// runSeeds are the seed corpus of FuzzRuns and cases of
// TestRunsMatchOneAtATime, in runRunOps's bytes, each in both layouts.
func runSeeds() [][]byte {
	var seeds [][]byte
	// degradeEach is a degrade run of each of the last n tuples, to state
	// 1 with a half-page value.
	degradeEach := func(n int) []byte {
		run := []byte{2, byte(n - 1)}
		for i := range n {
			run = append(run, byte(i), 0x18)
		}
		return run
	}
	for _, layout := range []byte{0, 1} {
		seeds = append(seeds,
			// 90 tuples of a page each in one run, which spills past the
			// 64 pages a run holds; then all 90 degraded in one run.
			slices.Concat([]byte{layout, 0, 89}, bytes.Repeat([]byte{0xf0}, 90), degradeEach(90)),
			// Three tuples of a page each whose degraded value no longer
			// fits: each move (to the next state's segment under
			// LayoutMove, out of its slot under LayoutInPlace) empties its
			// page, which is recycled and at once allocated again.
			slices.Concat([]byte{layout, 0, 2, 0xb0, 0xb0, 0xb0}, degradeEach(3)),
			// Small tuples sharing pages, a delete run leaving dead slots,
			// an insert run refilling them, an update run naming tuples
			// twice and growing some past their slots, and a degrade run
			// naming tuples twice whose transitions do not all advance:
			// state 1, state 1 again, state 2, erased, erased.
			slices.Concat([]byte{layout, 0, 39}, bytes.Repeat([]byte{0x10, 0x50, 0x02, 0x03}, 10),
				[]byte{3, 7, 1, 4, 9, 16, 25, 2, 3}, []byte{0, 8}, bytes.Repeat([]byte{0x20}, 9),
				[]byte{1, 5, 0, 0x03, 0, 0x01, 1, 0x02, 2, 0x03, 0, 0x00, 30, 0x03},
				[]byte{2, 4, 3, 0x08, 3, 0x00, 5, 0x01, 5, 0x0f, 8, 0x07}),
		)
	}
	return seeds
}

// TestRunsMatchOneAtATime runs runRunOps on the seed cases and on random
// operation streams, one stream per seed; a failure names the seed, and
// -run 'TestRunsMatchOneAtATime/seed=N' replays it.
func TestRunsMatchOneAtATime(t *testing.T) {
	for i, seed := range runSeeds() {
		if err := runRunOps(seed); err != nil {
			t.Errorf("seed case %d: %v", i, err)
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 600)
			rng.Read(ops)
			if err := runRunOps(ops); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzRuns is TestRunsMatchOneAtATime with the operation stream chosen by
// the fuzzer.
func FuzzRuns(f *testing.F) {
	for _, seed := range runSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := runRunOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}
