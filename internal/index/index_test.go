package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"instantdb/internal/gentree"
	"instantdb/internal/storage"
	"instantdb/internal/value"
)

func collectRange(t *BTree, lo, hi []byte) []storage.TupleID {
	var out []storage.TupleID
	t.Range(lo, hi, func(_ []byte, tids []storage.TupleID) bool {
		out = append(out, tids...)
		return true
	})
	return out
}

func TestBTreeBasics(t *testing.T) {
	bt := NewBTree()
	bt.Add([]byte("b"), 2)
	bt.Add([]byte("a"), 1)
	bt.Add([]byte("c"), 3)
	bt.Add([]byte("b"), 20)
	bt.Add([]byte("b"), 2) // duplicate: no-op
	if bt.Len() != 4 {
		t.Fatalf("Len=%d want 4", bt.Len())
	}
	var got []storage.TupleID
	bt.Exact([]byte("b"), func(tids []storage.TupleID) { got = append(got, tids...) })
	if len(got) != 2 || got[0] != 2 || got[1] != 20 {
		t.Fatalf("Exact(b)=%v", got)
	}
	all := collectRange(bt, nil, nil)
	if len(all) != 4 {
		t.Fatalf("full range=%v", all)
	}
	// Remove one id; key remains for the other.
	bt.Remove([]byte("b"), 2)
	got = nil
	bt.Exact([]byte("b"), func(tids []storage.TupleID) { got = append(got, tids...) })
	if len(got) != 1 || got[0] != 20 {
		t.Fatalf("after remove: %v", got)
	}
	// Removing the last id makes the key invisible.
	bt.Remove([]byte("b"), 20)
	called := false
	bt.Exact([]byte("b"), func([]storage.TupleID) { called = true })
	if called {
		t.Fatal("empty posting visible")
	}
	// Removing a missing key/id is a no-op.
	bt.Remove([]byte("zz"), 1)
	bt.Remove([]byte("a"), 99)
	if bt.Len() != 2 {
		t.Fatalf("Len=%d want 2", bt.Len())
	}
	bt.Clear()
	if bt.Len() != 0 || len(collectRange(bt, nil, nil)) != 0 {
		t.Fatal("Clear failed")
	}
}

func TestBTreeSplitsAndOrder(t *testing.T) {
	bt := NewBTree()
	const n = 5000
	perm := rand.New(rand.NewSource(42)).Perm(n)
	for _, i := range perm {
		bt.Add([]byte(fmt.Sprintf("key-%06d", i)), storage.TupleID(i+1))
	}
	if bt.Len() != n {
		t.Fatalf("Len=%d want %d", bt.Len(), n)
	}
	var keys [][]byte
	bt.Range(nil, nil, func(k []byte, _ []storage.TupleID) bool {
		keys = append(keys, append([]byte(nil), k...))
		return true
	})
	if len(keys) != n {
		t.Fatalf("range saw %d keys", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatalf("keys out of order at %d", i)
		}
	}
	// Bounded range.
	lo, hi := []byte("key-001000"), []byte("key-001100")
	got := collectRange(bt, lo, hi)
	if len(got) != 100 {
		t.Fatalf("bounded range=%d want 100", len(got))
	}
	// Early stop.
	count := 0
	bt.Range(nil, nil, func([]byte, []storage.TupleID) bool { count++; return count < 10 })
	if count != 10 {
		t.Fatalf("early stop count=%d", count)
	}
}

// Property: BTree agrees with a sorted-map model under random add/remove.
func TestQuickBTreeModel(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(func(ops []uint16) bool {
		bt := NewBTree()
		model := map[string]map[storage.TupleID]bool{}
		for _, op := range ops {
			key := fmt.Sprintf("k%02d", op%50)
			tid := storage.TupleID(op%7 + 1)
			if op%3 == 0 {
				bt.Remove([]byte(key), tid)
				if m := model[key]; m != nil {
					delete(m, tid)
				}
			} else {
				bt.Add([]byte(key), tid)
				if model[key] == nil {
					model[key] = map[storage.TupleID]bool{}
				}
				model[key][tid] = true
			}
		}
		want := 0
		for _, m := range model {
			want += len(m)
		}
		if bt.Len() != want {
			return false
		}
		for key, m := range model {
			var got []storage.TupleID
			bt.Exact([]byte(key), func(tids []storage.TupleID) { got = append(got, tids...) })
			if len(got) != len(m) {
				return false
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				return false
			}
			for _, tid := range got {
				if !m[tid] {
					return false
				}
			}
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixSuccessor(t *testing.T) {
	cases := []struct{ in, want []byte }{
		{[]byte{1, 2, 3}, []byte{1, 2, 4}},
		{[]byte{1, 0xFF}, []byte{2}},
		{[]byte{0xFF, 0xFF}, nil},
		{[]byte{}, nil},
	}
	for _, c := range cases {
		if got := PrefixSuccessor(c.in); !bytes.Equal(got, c.want) {
			t.Errorf("PrefixSuccessor(%v)=%v want %v", c.in, got, c.want)
		}
	}
}

func TestTreePathKeysPrefixProperty(t *testing.T) {
	tree := gentree.Figure1Locations()
	// Key of a leaf must have the key of each ancestor as prefix.
	stored, err := tree.ResolveInsert(value.Text("10 rue de Rivoli"))
	if err != nil {
		t.Fatal(err)
	}
	leafKey, err := TreePathKey(tree, stored, 0)
	if err != nil {
		t.Fatal(err)
	}
	cur := stored
	for lvl := 1; lvl < tree.Levels(); lvl++ {
		cur, err = tree.Degrade(cur, lvl-1, lvl)
		if err != nil {
			t.Fatal(err)
		}
		ancKey, err := TreePathKey(tree, cur, lvl)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(leafKey, ancKey) {
			t.Fatalf("level %d key %v is not a prefix of leaf key %v", lvl, ancKey, leafKey)
		}
	}
	// Level mismatch is rejected.
	if _, err := TreePathKey(tree, stored, 2); err == nil {
		t.Fatal("level mismatch accepted")
	}
	if _, err := TreePathKey(tree, value.Text("x"), 0); err == nil {
		t.Fatal("non-node stored form accepted")
	}
}

func TestBTreeSubtreeQueryOverMixedStates(t *testing.T) {
	tree := gentree.Figure1Locations()
	bt := NewBTree()
	// Tuple 1: accurate address in Paris; tuple 2: degraded to city
	// Paris; tuple 3: degraded to country France; tuple 4: Amsterdam.
	add := func(tid storage.TupleID, addr string, level int) {
		stored, err := tree.ResolveInsert(value.Text(addr))
		if err != nil {
			t.Fatal(err)
		}
		stored, err = tree.Degrade(stored, 0, level)
		if err != nil {
			t.Fatal(err)
		}
		key, err := TreePathKey(tree, stored, level)
		if err != nil {
			t.Fatal(err)
		}
		bt.Add(key, tid)
	}
	add(1, "10 rue de Rivoli", 0)
	add(2, "2 place de la Defense", 1)
	add(3, "5 place Bellecour", 3)
	add(4, "Dam 1", 0)

	// Predicate: location under France (country level).
	franceNodes, err := tree.Locate(value.Text("France"), 3)
	if err != nil {
		t.Fatal(err)
	}
	franceNode, _ := gentree.StoredToNode(franceNodes[0])
	lo, hi := TreePrefix(tree, franceNode)
	got := collectRange(bt, lo, hi)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("France subtree=%v want [1 2 3]", got)
	}
	// Predicate: city Paris — catches the accurate tuple and the
	// city-level tuple but not the country-level one.
	parisNodes, err := tree.Locate(value.Text("Paris"), 1)
	if err != nil {
		t.Fatal(err)
	}
	parisNode, _ := gentree.StoredToNode(parisNodes[0])
	lo, hi = TreePrefix(tree, parisNode)
	got = collectRange(bt, lo, hi)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Paris subtree=%v want [1 2]", got)
	}
}

func TestScalarLevelKeys(t *testing.T) {
	d := gentree.Figure2Salary()
	bt := NewBTree()
	// Salaries at mixed levels: 2471 exact, 2400 at range100, 2000 at
	// range1000, 9000 exact.
	add := func(tid storage.TupleID, exact int64, level int) {
		stored, err := d.Degrade(value.Int(exact), 0, level)
		if err != nil {
			t.Fatal(err)
		}
		key, err := ScalarLevelKey(d, stored, level)
		if err != nil {
			t.Fatal(err)
		}
		bt.Add(key, tid)
	}
	add(1, 2471, 0)
	add(2, 2431, 1)
	add(3, 2999, 2)
	add(4, 9000, 0)
	// Query at level 2 (RANGE1000), bucket [2000,3000): union of the
	// per-level scans for levels 0..2 over [2000,3000).
	var got []storage.TupleID
	for lvl := 0; lvl <= 2; lvl++ {
		lo, hi := ScalarLevelRange(lvl, value.Int(2000), value.Int(3000))
		got = append(got, collectRange(bt, lo, hi)...)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("range query=%v want [1 2 3]", got)
	}
	// Unbounded upper range at level 0.
	lo, hi := ScalarLevelRange(0, value.Int(5000), value.Null())
	got = collectRange(bt, lo, hi)
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("unbounded=%v want [4]", got)
	}
	// Suppressed level has no order key.
	if _, err := ScalarLevelKey(d, value.Int(0), 3); err == nil {
		t.Fatal("suppressed level must refuse order keys")
	}
}

func TestBitsetOps(t *testing.T) {
	var a, b Bitset
	a.Set(1)
	a.Set(70)
	a.Set(700)
	if !a.Has(70) || a.Has(2) {
		t.Fatal("Has wrong")
	}
	if a.Count() != 3 {
		t.Fatalf("Count=%d", a.Count())
	}
	a.Clear(70)
	if a.Has(70) || a.Count() != 2 {
		t.Fatal("Clear failed")
	}
	b.Set(1)
	b.Set(9)
	b.Or(&a)
	if b.Count() != 3 {
		t.Fatalf("Or count=%d", b.Count())
	}
	b.And(&a)
	if b.Count() != 2 || !b.Has(1) || !b.Has(700) {
		t.Fatal("And failed")
	}
	var got []storage.TupleID
	b.ForEach(func(tid storage.TupleID) bool { got = append(got, tid); return true })
	if len(got) != 2 || got[0] != 1 || got[1] != 700 {
		t.Fatalf("ForEach=%v", got)
	}
	// Early stop.
	n := 0
	b.ForEach(func(storage.TupleID) bool { n++; return false })
	if n != 1 {
		t.Fatal("ForEach early stop")
	}
}

func TestBitmapIndexDegradeAndQuery(t *testing.T) {
	tree := gentree.Figure1Locations()
	bm := NewBitmap(tree)
	leaf, _ := tree.ResolveInsert(value.Text("10 rue de Rivoli"))
	leafNode, _ := gentree.StoredToNode(leaf)
	cityNode, _ := tree.Ancestor(leafNode, 1)
	countryNode, _ := tree.Ancestor(leafNode, 3)

	bm.Add(leafNode, 1)
	bm.Add(cityNode, 2)
	q := bm.QuerySubtree(countryNode)
	if q.Count() != 2 || !q.Has(1) || !q.Has(2) {
		t.Fatalf("subtree count=%d", q.Count())
	}
	// Degradation: tuple 1 moves leaf→city.
	bm.Move(leafNode, cityNode, 1)
	if bm.QuerySubtree(leafNode).Count() != 0 {
		t.Fatal("leaf still populated after move")
	}
	q = bm.QuerySubtree(cityNode)
	if q.Count() != 2 {
		t.Fatalf("city subtree=%d", q.Count())
	}
	bm.Remove(cityNode, 1)
	if bm.QuerySubtree(countryNode).Count() != 1 {
		t.Fatal("remove failed")
	}
}

func TestGTIndexDegradeAndQuery(t *testing.T) {
	tree := gentree.Figure1Locations()
	g := NewGTIndex(tree)
	leaf, _ := tree.ResolveInsert(value.Text("Dam 1"))
	leafNode, _ := gentree.StoredToNode(leaf)
	cityNode, _ := tree.Ancestor(leafNode, 1)
	countryNode, _ := tree.Ancestor(leafNode, 3)

	g.Add(leafNode, 1)
	g.Add(leafNode, 2)
	g.Add(cityNode, 3)
	if g.Len() != 3 || g.NodeCount() != 2 {
		t.Fatalf("Len=%d Nodes=%d", g.Len(), g.NodeCount())
	}
	got := g.CollectSubtree(countryNode, nil)
	if len(got) != 3 {
		t.Fatalf("subtree=%v", got)
	}
	// One degradation step = one posting move.
	g.Move(leafNode, cityNode, 1)
	got = g.CollectSubtree(leafNode, nil)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("leaf after move=%v", got)
	}
	got = g.CollectSubtree(cityNode, nil)
	if len(got) != 3 {
		t.Fatalf("city subtree=%v", got)
	}
	g.Remove(cityNode, 3)
	g.Remove(cityNode, 99) // no-op
	if g.Len() != 2 {
		t.Fatalf("Len=%d", g.Len())
	}
	// Draining a node removes its posting entirely.
	g.Move(leafNode, cityNode, 2)
	if g.NodeCount() != 1 {
		t.Fatalf("NodeCount=%d want 1", g.NodeCount())
	}
}
