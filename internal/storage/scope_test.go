package storage

import (
	"bytes"
	"strings"
	"testing"

	"instantdb/internal/catalog"
)

// rawPages returns a copy of every page of a store, in id order.
func rawPages(t *testing.T, s Store) []byte {
	t.Helper()
	var out []byte
	if err := s.ForEachPage(func(_ PageID, data []byte) error {
		out = append(out, data...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPageScopeMatchesDirectIO runs one history of inserts, degradation
// moves and deletes twice: once straight against the store, once inside
// page scopes. The scoped run reads the batch's own writes before they
// reach the store, issues a fraction of the page I/O, and leaves the
// store byte-identical to the direct run.
func TestPageScopeMatchesDirectIO(t *testing.T) {
	_, tbl, loc := personFixture(t, catalog.LayoutMove)
	direct, scoped := NewMemStore(), NewMemStore()
	dm, sm := NewManager(direct), NewManager(scoped)
	name := strings.Repeat("n", 40)
	history := func(m *Manager, batch func(func())) {
		ts := m.Table(tbl)
		var tids []TupleID
		for b := 0; b < 4; b++ {
			batch(func() {
				for i := 0; i < 150; i++ {
					tids = append(tids, insertPerson(t, ts, loc, int64(len(tids)), name, "Dam 1"))
				}
			})
		}
		batch(func() {
			for _, tid := range tids[:400] {
				degradeOnce(t, ts, loc, tid, 0, 1)
			}
		})
		batch(func() {
			for _, tid := range tids[100:500] {
				if err := ts.Delete(tid); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	history(dm, func(f func()) { f() })
	history(sm, func(f func()) {
		sm.BeginPageScope()
		f()
		// The batch's pages are still in the scope, and reads see them.
		if n := sm.Table(tbl).Count(); n > 0 {
			var seen int
			if err := sm.Table(tbl).SnapshotScan(0, func(Tuple) bool { seen++; return true }); err != nil {
				t.Fatal(err)
			}
			if seen != n {
				t.Fatalf("scan inside the scope saw %d of %d tuples", seen, n)
			}
		}
		if err := sm.EndPageScope(); err != nil {
			t.Fatal(err)
		}
		if len(sm.scope) != 0 {
			t.Fatalf("closed scope still holds %d pages", len(sm.scope))
		}
	})
	if !bytes.Equal(rawPages(t, direct), rawPages(t, scoped)) {
		t.Fatal("scoped history left different page bytes than the direct one")
	}
	dr, dw := dm.PageIO()
	sr, sw := sm.PageIO()
	t.Logf("page reads/writes: direct %d/%d, scoped %d/%d", dr, dw, sr, sw)
	if 10*(sr+sw) > dr+dw {
		t.Fatalf("scoped I/O %d is not a tenth of direct I/O %d", sr+sw, dr+dw)
	}
}

// TestPageScopeBounded fills a scope with more distinct pages than it
// may hold: it never holds more than scopePages, writes the dirty ones
// back to make room, and still ends byte-identical to direct I/O.
func TestPageScopeBounded(t *testing.T) {
	_, tbl, loc := personFixture(t, catalog.LayoutMove)
	direct, scoped := NewMemStore(), NewMemStore()
	dm, sm := NewManager(direct), NewManager(scoped)
	big := strings.Repeat("x", 3000) // one tuple per page
	for i := 0; i < 2*scopePages; i++ {
		insertPerson(t, dm.Table(tbl), loc, int64(i), big, "Dam 1")
	}
	sm.BeginPageScope()
	for i := 0; i < 2*scopePages; i++ {
		insertPerson(t, sm.Table(tbl), loc, int64(i), big, "Dam 1")
		if len(sm.scope) > scopePages {
			t.Fatalf("scope holds %d pages, bound %d", len(sm.scope), scopePages)
		}
	}
	if _, w := sm.PageIO(); w == 0 {
		t.Fatal("a scope past its bound wrote nothing back")
	}
	if err := sm.EndPageScope(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawPages(t, direct), rawPages(t, scoped)) {
		t.Fatal("bounded scope left different page bytes than direct I/O")
	}
}
