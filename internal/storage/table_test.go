package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"instantdb/internal/catalog"
	"instantdb/internal/gentree"
	"instantdb/internal/lcp"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
)

// personFixture builds a Person table over the Figure 1/2 domains.
func personFixture(t *testing.T, layout catalog.StorageLayout) (*catalog.Catalog, *catalog.Table, *gentree.Tree) {
	t.Helper()
	c := catalog.New()
	loc := gentree.Figure1Locations()
	if err := c.AddDomain(loc); err != nil {
		t.Fatal(err)
	}
	pol := lcp.Figure2(loc)
	if err := c.AddPolicy(pol); err != nil {
		t.Fatal(err)
	}
	tbl, err := c.CreateTable("person", []catalog.Column{
		{Name: "id", Kind: value.KindInt},
		{Name: "name", Kind: value.KindText},
		{Name: "location", Kind: value.KindText, Degradable: true, Domain: loc, Policy: pol},
	}, 0, layout)
	if err != nil {
		t.Fatal(err)
	}
	return c, tbl, loc
}

func insertPerson(t *testing.T, ts *TableStore, loc *gentree.Tree, id int64, name, addr string) TupleID {
	t.Helper()
	stored, err := loc.ResolveInsert(value.Text(addr))
	if err != nil {
		t.Fatal(err)
	}
	tid, err := ts.Insert(
		[]value.Value{value.Int(id), value.Text(name), stored},
		[]uint8{0}, vclock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	return tid
}

func TestInsertGetDelete(t *testing.T) {
	_, tbl, loc := personFixture(t, catalog.LayoutMove)
	m := NewManager(NewMemStore())
	ts := m.Table(tbl)
	tid := insertPerson(t, ts, loc, 1, "alice", "Dam 1")
	got, err := ts.Get(tid)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != tid || got.Row[1].Text() != "alice" || got.States[0] != 0 {
		t.Fatalf("got %+v", got)
	}
	if !got.InsertedAt.Equal(vclock.Epoch) {
		t.Fatalf("InsertedAt=%v", got.InsertedAt)
	}
	if ts.Count() != 1 {
		t.Fatalf("Count=%d", ts.Count())
	}
	if err := ts.Delete(tid); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Get(tid); err == nil {
		t.Fatal("deleted tuple still readable")
	}
	if err := ts.Delete(tid); err != nil {
		t.Fatal("delete must be idempotent")
	}
	if ts.Count() != 0 {
		t.Fatal("count after delete")
	}
}

func TestInsertValidation(t *testing.T) {
	_, tbl, _ := personFixture(t, catalog.LayoutMove)
	ts := NewManager(NewMemStore()).Table(tbl)
	if _, err := ts.Insert([]value.Value{value.Int(1)}, []uint8{0}, vclock.Epoch); err == nil {
		t.Error("short row should fail")
	}
	if _, err := ts.Insert([]value.Value{value.Int(1), value.Text("x"), value.Int(2)}, nil, vclock.Epoch); err == nil {
		t.Error("short state vector should fail")
	}
}

func TestInsertWithIDIdempotent(t *testing.T) {
	_, tbl, loc := personFixture(t, catalog.LayoutMove)
	ts := NewManager(NewMemStore()).Table(tbl)
	stored, _ := loc.ResolveInsert(value.Text("Dam 1"))
	row := []value.Value{value.Int(1), value.Text("a"), stored}
	if err := ts.InsertWithID(7, row, []uint8{0}, vclock.Epoch); err != nil {
		t.Fatal(err)
	}
	if err := ts.InsertWithID(7, row, []uint8{0}, vclock.Epoch); err != nil {
		t.Fatal("redo must be idempotent")
	}
	if ts.Count() != 1 {
		t.Fatalf("Count=%d want 1", ts.Count())
	}
	// Fresh inserts continue above the redone id.
	tid, err := ts.Insert(row, []uint8{0}, vclock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if tid <= 7 {
		t.Fatalf("next id %d must exceed redone id 7", tid)
	}
}

// rawContains reports whether any raw page byte run contains needle —
// the forensic primitive used to prove scrubbing.
func rawContains(t *testing.T, s Store, needle string) bool {
	t.Helper()
	found := false
	err := s.ForEachPage(func(_ PageID, data []byte) error {
		if bytes.Contains(data, []byte(needle)) {
			found = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

func TestDeleteScrubsRawBytes(t *testing.T) {
	_, tbl, loc := personFixture(t, catalog.LayoutMove)
	store := NewMemStore()
	ts := NewManager(store).Table(tbl)
	tid := insertPerson(t, ts, loc, 1, "secret-name-xyzzy", "Dam 1")
	if !rawContains(t, store, "secret-name-xyzzy") {
		t.Fatal("sanity: payload should be visible before delete")
	}
	if err := ts.Delete(tid); err != nil {
		t.Fatal(err)
	}
	if rawContains(t, store, "secret-name-xyzzy") {
		t.Fatal("payload bytes survive delete")
	}
}

func degradeOnce(t *testing.T, ts *TableStore, loc *gentree.Tree, tid TupleID, from, to int) {
	t.Helper()
	tup, err := ts.Get(tid)
	if err != nil {
		t.Fatal(err)
	}
	col := ts.Def().DegradableColumns()[0]
	next, err := loc.Degrade(tup.Row[col], from, to)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.DegradeAttr(tid, 0, next, uint8(to)); err != nil {
		t.Fatal(err)
	}
}

func TestDegradeMoveLayout(t *testing.T) {
	_, tbl, loc := personFixture(t, catalog.LayoutMove)
	store := NewMemStore()
	ts := NewManager(store).Table(tbl)
	tid := insertPerson(t, ts, loc, 1, "alice", "Dam 1")

	st0 := ts.Stats()
	if len(st0.Segments) != 1 {
		t.Fatalf("segments=%v", st0.Segments)
	}
	degradeOnce(t, ts, loc, tid, 0, 1)
	got, err := ts.Get(tid)
	if err != nil {
		t.Fatal(err)
	}
	if got.States[0] != 1 {
		t.Fatalf("state=%d want 1", got.States[0])
	}
	r, err := loc.Render(got.Row[2], 1)
	if err != nil || r.Text() != "Amsterdam" {
		t.Fatalf("rendered %v err=%v", r, err)
	}
	// The tuple moved to the state-1 segment; the state-0 segment page
	// was recycled (it held a single tuple).
	st1 := ts.Stats()
	if _, ok := st1.Segments[StateKeyOf([]uint8{0})]; ok {
		t.Fatalf("state-0 segment should be empty: %v", st1.Segments)
	}
	if _, ok := st1.Segments[StateKeyOf([]uint8{1})]; !ok {
		t.Fatalf("state-1 segment missing: %v", st1.Segments)
	}
}

func TestDegradeErasesOldNodeID(t *testing.T) {
	// The stored form is a node id, not the address string; verify the
	// level-0 record encoding disappears from raw pages after degrade.
	_, tbl, loc := personFixture(t, catalog.LayoutMove)
	store := NewMemStore()
	ts := NewManager(store).Table(tbl)
	tid := insertPerson(t, ts, loc, 1, "alice", "Dam 1")
	tup, _ := ts.Get(tid)
	leafRec := value.Encode(nil, tup.Row[2]) // encoded leaf node id
	found := false
	store.ForEachPage(func(_ PageID, data []byte) error {
		if bytes.Contains(data, leafRec) {
			found = true
		}
		return nil
	})
	if !found {
		t.Fatal("sanity: leaf encoding present before degrade")
	}
	degradeOnce(t, ts, loc, tid, 0, 1)
	found = false
	store.ForEachPage(func(_ PageID, data []byte) error {
		if bytes.Contains(data, leafRec) {
			found = true
		}
		return nil
	})
	if found {
		t.Fatal("leaf node encoding survives degradation")
	}
}

func TestDegradeInPlaceLayout(t *testing.T) {
	_, tbl, loc := personFixture(t, catalog.LayoutInPlace)
	store := NewMemStore()
	ts := NewManager(store).Table(tbl)
	tid := insertPerson(t, ts, loc, 1, "alice", "Dam 1")
	before := ts.Stats()
	degradeOnce(t, ts, loc, tid, 0, 1)
	after := ts.Stats()
	// In-place: same page count, single mixed segment.
	if before.Pages != after.Pages || len(after.Segments) != 1 {
		t.Fatalf("before=%+v after=%+v", before, after)
	}
	got, _ := ts.Get(tid)
	if got.States[0] != 1 {
		t.Fatalf("state=%d", got.States[0])
	}
}

func TestDegradeToErased(t *testing.T) {
	_, tbl, loc := personFixture(t, catalog.LayoutMove)
	ts := NewManager(NewMemStore()).Table(tbl)
	tid := insertPerson(t, ts, loc, 1, "alice", "Dam 1")
	if err := ts.DegradeAttr(tid, 0, value.Null(), StateErased); err != nil {
		t.Fatal(err)
	}
	got, _ := ts.Get(tid)
	if got.States[0] != StateErased || !got.Row[2].IsNull() {
		t.Fatalf("got %+v", got)
	}
	// Unknown id: no-op.
	if err := ts.DegradeAttr(9999, 0, value.Null(), 1); err != nil {
		t.Fatal("degrade of unknown id must be a no-op")
	}
	// Bad position errors.
	if err := ts.DegradeAttr(tid, 5, value.Null(), 1); err == nil {
		t.Fatal("bad degradable position should fail")
	}
}

func TestUpdateStable(t *testing.T) {
	_, tbl, loc := personFixture(t, catalog.LayoutMove)
	store := NewMemStore()
	ts := NewManager(store).Table(tbl)
	tid := insertPerson(t, ts, loc, 1, "shortname", "Dam 1")
	if err := ts.UpdateStable(tid, 1, value.Text("a considerably longer replacement name")); err != nil {
		t.Fatal(err)
	}
	got, _ := ts.Get(tid)
	if got.Row[1].Text() != "a considerably longer replacement name" {
		t.Fatalf("update lost: %v", got.Row[1])
	}
	if rawContains(t, store, "shortname") {
		t.Fatal("old stable value survives update")
	}
	// Shrink goes in place and scrubs the tail.
	if err := ts.UpdateStable(tid, 1, value.Text("bob")); err != nil {
		t.Fatal(err)
	}
	if rawContains(t, store, "longer replacement") {
		t.Fatal("old value survives in-place shrink")
	}
	// Degradable column refused.
	if err := ts.UpdateStable(tid, 2, value.Int(1)); err == nil {
		t.Fatal("degradable column update must be refused")
	}
	// Unknown id errors.
	if err := ts.UpdateStable(12345, 1, value.Text("x")); err == nil {
		t.Fatal("unknown id should fail")
	}
}

func TestScanAndScanState(t *testing.T) {
	for _, layout := range []catalog.StorageLayout{catalog.LayoutMove, catalog.LayoutInPlace} {
		t.Run(layout.String(), func(t *testing.T) {
			_, tbl, loc := personFixture(t, layout)
			ts := NewManager(NewMemStore()).Table(tbl)
			var tids []TupleID
			addrs := []string{"Dam 1", "Museumplein 6", "Coolsingel 40", "Drienerlolaan 5"}
			for i, a := range addrs {
				tids = append(tids, insertPerson(t, ts, loc, int64(i), fmt.Sprintf("p%d", i), a))
			}
			// Degrade half of them.
			degradeOnce(t, ts, loc, tids[0], 0, 1)
			degradeOnce(t, ts, loc, tids[1], 0, 1)

			all := 0
			if err := ts.Scan(func(Tuple) bool { all++; return true }); err != nil {
				t.Fatal(err)
			}
			if all != 4 {
				t.Fatalf("Scan saw %d", all)
			}
			s0, s1 := 0, 0
			if err := ts.ScanState([]uint8{0}, func(Tuple) bool { s0++; return true }); err != nil {
				t.Fatal(err)
			}
			if err := ts.ScanState([]uint8{1}, func(tp Tuple) bool {
				if tp.States[0] != 1 {
					t.Errorf("state filter leaked %v", tp.States)
				}
				s1++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if s0 != 2 || s1 != 2 {
				t.Fatalf("state scans: s0=%d s1=%d", s0, s1)
			}
			// Early stop.
			n := 0
			ts.Scan(func(Tuple) bool { n++; return false })
			if n != 1 {
				t.Fatalf("early stop saw %d", n)
			}
			// Scan of a state with no tuples.
			if err := ts.ScanState([]uint8{3}, func(Tuple) bool { t.Fatal("unexpected"); return true }); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestManyTuplesMultiPage(t *testing.T) {
	_, tbl, loc := personFixture(t, catalog.LayoutMove)
	m := NewManager(NewMemStore())
	ts := m.Table(tbl)
	const n = 500
	name := strings.Repeat("n", 40)
	for i := 0; i < n; i++ {
		insertPerson(t, ts, loc, int64(i), name, "Dam 1")
	}
	st := ts.Stats()
	if st.Tuples != n {
		t.Fatalf("tuples=%d", st.Tuples)
	}
	if st.Pages < 5 {
		t.Fatalf("expected multiple pages, got %d", st.Pages)
	}
	count := 0
	ts.Scan(func(Tuple) bool { count++; return true })
	if count != n {
		t.Fatalf("scan=%d", count)
	}
}

func TestPageRecyclingAfterMassDelete(t *testing.T) {
	_, tbl, loc := personFixture(t, catalog.LayoutMove)
	store := NewMemStore()
	m := NewManager(store)
	ts := m.Table(tbl)
	var tids []TupleID
	for i := 0; i < 300; i++ {
		tids = append(tids, insertPerson(t, ts, loc, int64(i), "pppppppppppppppppppp", "Dam 1"))
	}
	grown := store.NumPages()
	for _, tid := range tids {
		if err := ts.Delete(tid); err != nil {
			t.Fatal(err)
		}
	}
	if ts.Stats().Pages != 0 {
		t.Fatalf("pages not recycled: %+v", ts.Stats())
	}
	// New inserts reuse freed pages instead of growing the store.
	for i := 0; i < 300; i++ {
		insertPerson(t, ts, loc, int64(i), "qqqqqqqqqqqqqqqqqqqq", "Dam 1")
	}
	if store.NumPages() != grown {
		t.Fatalf("store grew from %d to %d pages despite free list", grown, store.NumPages())
	}
}

func TestDropTableScrubs(t *testing.T) {
	_, tbl, loc := personFixture(t, catalog.LayoutMove)
	store := NewMemStore()
	m := NewManager(store)
	ts := m.Table(tbl)
	insertPerson(t, ts, loc, 1, "dropme-sentinel", "Dam 1")
	if err := m.DropTable(tbl.ID); err != nil {
		t.Fatal(err)
	}
	if rawContains(t, store, "dropme-sentinel") {
		t.Fatal("dropped table bytes survive")
	}
}

func TestRebuildFromFile(t *testing.T) {
	cat, tbl, loc := personFixture(t, catalog.LayoutMove)
	path := filepath.Join(t.TempDir(), "pages.db")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(fs)
	ts := m.Table(tbl)
	var tids []TupleID
	for i := 0; i < 50; i++ {
		tids = append(tids, insertPerson(t, ts, loc, int64(i), fmt.Sprintf("p%03d", i), "Dam 1"))
	}
	degradeOnce(t, ts, loc, tids[0], 0, 1)
	if err := ts.Delete(tids[1]); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	fs2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	m2 := NewManager(fs2)
	if err := m2.Rebuild(cat); err != nil {
		t.Fatal(err)
	}
	ts2 := m2.Table(tbl)
	if ts2.Count() != 49 {
		t.Fatalf("rebuilt count=%d want 49", ts2.Count())
	}
	got, err := ts2.Get(tids[0])
	if err != nil || got.States[0] != 1 {
		t.Fatalf("degraded tuple lost: %+v %v", got, err)
	}
	if _, err := ts2.Get(tids[1]); err == nil {
		t.Fatal("deleted tuple resurrected")
	}
	// Fresh ids continue beyond the rebuilt maximum.
	newID, err := ts2.Insert(got.Row, []uint8{1}, vclock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if newID <= tids[len(tids)-1] {
		t.Fatalf("id %d not beyond %d", newID, tids[len(tids)-1])
	}
}

func TestRebuildFreesOrphanPages(t *testing.T) {
	cat, tbl, loc := personFixture(t, catalog.LayoutMove)
	store := NewMemStore()
	m := NewManager(store)
	ts := m.Table(tbl)
	insertPerson(t, ts, loc, 1, "orphan-sentinel", "Dam 1")
	// Rebuild against an empty catalog: the table is unknown, its pages
	// must be scrubbed and freed.
	if err := m.Rebuild(catalog.New()); err != nil {
		t.Fatal(err)
	}
	if rawContains(t, store, "orphan-sentinel") {
		t.Fatal("orphan page bytes survive rebuild")
	}
	_ = cat
	_ = tbl
	_ = loc
}

// TestRebuildRefusesForeignPage: only a page whose magic is 0 is free. A
// page written with an earlier format's magic, or one whose header is
// garbage, fails the rebuild by name — page id and magic — and is left
// as it was, instead of joining the free list to be overwritten.
func TestRebuildRefusesForeignPage(t *testing.T) {
	garbage := make([]byte, PageSize)
	for i := range garbage {
		garbage[i] = byte(i*131 + 7)
	}
	for _, c := range []struct {
		name  string
		magic uint16
		page  func(live []byte) []byte
	}{
		{"previous format", 0xDB09, func(live []byte) []byte {
			old := slices.Clone(live)
			binary.LittleEndian.PutUint16(old, 0xDB09)
			return old
		}},
		{"fixed-width INT format", 0xDB08, func(live []byte) []byte {
			old := slices.Clone(live)
			binary.LittleEndian.PutUint16(old, 0xDB08)
			return old
		}},
		{"garbage header", binary.LittleEndian.Uint16(garbage), func([]byte) []byte { return garbage }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cat, tbl, loc := personFixture(t, catalog.LayoutMove)
			store := NewMemStore()
			ts := NewManager(store).Table(tbl)
			insertPerson(t, ts, loc, 1, "kept-sentinel", "Dam 1")
			live := make([]byte, PageSize)
			if err := store.ReadPage(0, live); err != nil {
				t.Fatal(err)
			}
			pid, err := store.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			foreign := c.page(live)
			if err := store.WritePage(pid, foreign); err != nil {
				t.Fatal(err)
			}
			err = NewManager(store).Rebuild(cat)
			if !errors.Is(err, ErrPageFormat) || !strings.Contains(err.Error(), fmt.Sprintf("page %d has magic 0x%04x", pid, c.magic)) {
				t.Fatalf("Rebuild over a page of magic 0x%04x: %v, want ErrPageFormat naming page %d", c.magic, err, pid)
			}
			after := make([]byte, PageSize)
			if err := store.ReadPage(pid, after); err != nil || !bytes.Equal(after, foreign) {
				t.Fatalf("the refused page was modified (err %v)", err)
			}
		})
	}
}

// TestRebuildHealsTornMove tears a degradation move the way a crash
// between its two page writes can: the tuple's new, coarser copy reaches
// the page file, and its source page is written back as it was before
// the move, finer copy included. Rebuild must serve the coarser copy
// whichever page is later, list the tuple once, leave no page holding
// the finer value, and record the repair with the states it kept.
func TestRebuildHealsTornMove(t *testing.T) {
	fine, coarse := strings.Repeat("fine", 250), strings.Repeat("coarse", 250)
	for _, layout := range []catalog.StorageLayout{catalog.LayoutMove, catalog.LayoutInPlace} {
		for _, finerLater := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/finer-copy-later=%t", layout, finerLater), func(t *testing.T) {
				cat, tbl, _ := personFixture(t, layout)
				store := NewMemStore()
				ts := NewManager(store).Table(tbl)
				insert := func(id int64, name, loc string) TupleID {
					tid, err := ts.Insert([]value.Value{value.Int(id), value.Text(name), value.Text(loc)}, []uint8{0}, vclock.Epoch)
					if err != nil {
						t.Fatal(err)
					}
					return tid
				}
				// A page-filling tuple, deleted once x and y fill the next
				// page, leaves a free page below x's for the move to take.
				var a TupleID
				if finerLater {
					a = insert(1, strings.Repeat("a", 2000), strings.Repeat("a", 2000))
				}
				x := insert(2, "x", fine)
				y := insert(3, strings.Repeat("y", 2960), "y")
				if finerLater {
					if err := ts.Delete(a); err != nil {
						t.Fatal(err)
					}
				}
				src := ts.dir.get(x).page
				saved := make([]byte, PageSize)
				if err := store.ReadPage(src, saved); err != nil {
					t.Fatal(err)
				}
				// The degraded value outgrows x's slot, so x moves in
				// either layout.
				if err := ts.DegradeAttr(x, 0, value.Text(coarse), 1); err != nil {
					t.Fatal(err)
				}
				if dst := ts.dir.get(x).page; dst == src || (dst > src) == finerLater {
					t.Fatalf("sanity: x moved from page %d to page %d", src, dst)
				}
				if err := store.WritePage(src, saved); err != nil {
					t.Fatal(err)
				}

				m2 := NewManager(store)
				if err := m2.Rebuild(cat); err != nil {
					t.Fatal(err)
				}
				ts2 := m2.Table(tbl)
				got, err := ts2.Get(x)
				if err != nil {
					t.Fatal(err)
				}
				if got.States[0] != 1 || got.Row[2].Text() != coarse {
					t.Fatalf("rebuilt x in state %d, want the coarser copy (state 1)", got.States[0])
				}
				seen := map[TupleID]int{}
				if err := ts2.Scan(func(tp Tuple) bool { seen[tp.ID]++; return true }); err != nil {
					t.Fatal(err)
				}
				if len(seen) != 2 || seen[x] != 1 || seen[y] != 1 {
					t.Fatalf("scan after rebuild: %v, want x and y once each", seen)
				}
				if rawContains(t, store, fine) {
					t.Fatal("the finer copy's value survives rebuild in the page file")
				}
				if h := m2.HealedMoves(); len(h) != 1 || h[0].Table != tbl || h[0].Tuple != x || !slices.Equal(h[0].States, []uint8{1}) {
					t.Fatalf("rebuild recorded repairs %+v, want x kept in state 1", h)
				}
			})
		}
	}
}

// Property: a random sequence of inserts/deletes/degrades agrees with a
// map-based model, and the store never leaks deleted payloads.
func TestQuickTableModel(t *testing.T) {
	_, tbl, loc := personFixture(t, catalog.LayoutMove)
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(func(ops []uint16) bool {
		store := NewMemStore()
		ts := NewManager(store).Table(tbl)
		model := map[TupleID]uint8{} // id -> state
		var ids []TupleID
		addrs := []string{"Dam 1", "Museumplein 6", "Coolsingel 40"}
		for _, op := range ops {
			switch op % 3 {
			case 0: // insert
				stored, _ := loc.ResolveInsert(value.Text(addrs[int(op)%len(addrs)]))
				tid, err := ts.Insert([]value.Value{value.Int(int64(op)), value.Text("n"), stored},
					[]uint8{0}, vclock.Epoch.Add(time.Duration(op)))
				if err != nil {
					return false
				}
				model[tid] = 0
				ids = append(ids, tid)
			case 1: // delete random known id
				if len(ids) == 0 {
					continue
				}
				tid := ids[int(op)%len(ids)]
				if err := ts.Delete(tid); err != nil {
					return false
				}
				delete(model, tid)
			case 2: // degrade one step if possible
				if len(ids) == 0 {
					continue
				}
				tid := ids[int(op)%len(ids)]
				st, ok := model[tid]
				if !ok || st >= 3 {
					continue
				}
				tup, err := ts.Get(tid)
				if err != nil {
					return false
				}
				next, err := loc.Degrade(tup.Row[2], int(st), int(st)+1)
				if err != nil {
					return false
				}
				if err := ts.DegradeAttr(tid, 0, next, st+1); err != nil {
					return false
				}
				model[tid] = st + 1
			}
		}
		if ts.Count() != len(model) {
			return false
		}
		for tid, st := range model {
			got, err := ts.Get(tid)
			if err != nil || got.States[0] != st {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}
