package index

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"instantdb/internal/storage"
	"instantdb/internal/value"
)

// validate walks the whole tree and checks its shape against the
// invariants the code relies on and its counters against a recount.
func (t *BTree) validate() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var c counts
	var last *leaf
	leafDepth := -1
	var walk func(nd node, lo, hi []byte, depth int) error
	checkKeys := func(k *packedKeys, lo, hi []byte) error {
		if k.n < 0 || k.n > fanout {
			return fmt.Errorf("node holds %d keys", k.n)
		}
		if k.n > 0 && int(k.ends[k.n-1]) != len(k.arena) {
			return fmt.Errorf("last key ends at %d, arena is %d long", k.ends[k.n-1], len(k.arena))
		}
		if len(k.arena) > arenaMax || cap(k.arena) > 64<<10 {
			return fmt.Errorf("arena of %d bytes in %d, over %d", len(k.arena), cap(k.arena), arenaMax)
		}
		for i := 0; i < k.n; i++ {
			if i > 0 && bytes.Compare(k.key(i-1), k.key(i)) >= 0 {
				return fmt.Errorf("keys %d and %d out of order", i-1, i)
			}
			if lo != nil && bytes.Compare(k.key(i), lo) < 0 || hi != nil && bytes.Compare(k.key(i), hi) >= 0 {
				return fmt.Errorf("key %q outside its parent's bounds [%q, %q)", k.key(i), lo, hi)
			}
		}
		for _, b := range k.arena[len(k.arena):cap(k.arena)] {
			if b != 0 {
				return errors.New("vacated arena bytes not zeroed")
			}
		}
		for _, e := range k.ends[k.n:] {
			if e != 0 {
				return errors.New("vacated offset not zeroed")
			}
		}
		c.arenaBytes += cap(k.arena)
		return nil
	}
	walk = func(nd node, lo, hi []byte, depth int) error {
		switch nd := nd.(type) {
		case *leaf:
			c.leaves++
			if leafDepth == -1 {
				leafDepth = depth
			}
			if depth != leafDepth {
				return fmt.Errorf("leaf at depth %d, others at %d", depth, leafDepth)
			}
			if nd.keys.n == 0 && nd != t.root {
				return errors.New("empty leaf still linked")
			}
			if err := checkKeys(&nd.keys, lo, hi); err != nil {
				return err
			}
			if nd.prev != last || last != nil && last.next != nd {
				return errors.New("leaf chain disagrees with the tree order")
			}
			last = nd
			c.nkeys += nd.keys.n
			// Postings tile the chunk table in key order.
			next := 0
			for i, v := range nd.vals {
				if i >= nd.keys.n {
					if v != 0 {
						return errors.New("vacated value slot not zeroed")
					}
					continue
				}
				if v&spilled == 0 {
					c.n++
					continue
				}
				p := nd.postingOf(i)
				lo, hi := p.lo, p.hi
				if lo != next || hi <= lo || hi > len(nd.posts) {
					return fmt.Errorf("key %d's posting spans chunks [%d, %d) of %d, the key before ends at %d", i, lo, hi, len(nd.posts), next)
				}
				next = hi
				ids, bytes, err := checkChunks(nd.posts[lo:hi])
				if err != nil {
					return fmt.Errorf("key %d: %w", i, err)
				}
				if _, ok := nd.slot(ids[0]); len(ids) == 1 && ok {
					return fmt.Errorf("posting of one id %d within reach of base %d should be inline", ids[0], nd.base)
				}
				c.n += len(ids)
				c.postBytes += bytes
			}
			if next != len(nd.posts) || nd.posts != nil && len(nd.posts) == 0 {
				return fmt.Errorf("postings take %d of %d chunks held", next, len(nd.posts))
			}
			if err := checkVacatedChunks(nd.posts); err != nil {
				return err
			}
			c.postBytes += cap(nd.posts) * chunkBytes
		case *inner:
			c.inners++
			if nd == t.root && nd.keys.n == 0 {
				return errors.New("inner root with a single child")
			}
			if err := checkKeys(&nd.keys, lo, hi); err != nil {
				return err
			}
			for i, kid := range nd.kids {
				if (kid != nil) != (i <= nd.keys.n) {
					return fmt.Errorf("child slot %d of %d keys", i, nd.keys.n)
				}
				if kid == nil {
					continue
				}
				klo, khi := lo, hi
				if i > 0 {
					klo = nd.keys.key(i - 1)
				}
				if i < nd.keys.n {
					khi = nd.keys.key(i)
				}
				if err := walk(kid, klo, khi, depth+1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(t.root, nil, nil, 0); err != nil {
		return err
	}
	if last != nil && last.next != nil {
		return errors.New("leaf chain runs past the last leaf")
	}
	if t.counts != c {
		return fmt.Errorf("counters %+v, recount %+v", t.counts, c)
	}
	return nil
}

// treeModel is the reference: key → its ids, ascending.
type treeModel map[string][]storage.TupleID

func (m treeModel) add(key []byte, tid storage.TupleID) {
	ids := m[string(key)]
	if i, found := slices.BinarySearch(ids, tid); !found {
		m[string(key)] = slices.Insert(ids, i, tid)
	}
}

func (m treeModel) remove(key []byte, tid storage.TupleID) {
	ids := m[string(key)]
	if i, found := slices.BinarySearch(ids, tid); found {
		if ids = slices.Delete(ids, i, i+1); len(ids) == 0 {
			delete(m, string(key))
		} else {
			m[string(key)] = ids
		}
	}
}

// dump renders the model's entries with lo <= key < hi the way dumpRange
// renders the tree's.
func (m treeModel) dump(lo, hi []byte) []string {
	var keys []string
	for k := range m {
		if bytes.Compare([]byte(k), lo) >= 0 && (hi == nil || bytes.Compare([]byte(k), hi) < 0) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, render([]byte(k), m[k]))
	}
	return out
}

// render prints a key and its ids, 8 bytes each, for the dumps to
// compare.
func render(k []byte, ids []storage.TupleID) string {
	b := append(hex.AppendEncode(nil, k), '=')
	for _, id := range ids {
		b = binary.BigEndian.AppendUint64(b, uint64(id))
	}
	return string(b)
}

func dumpRange(bt *BTree, lo, hi []byte) []string {
	var out []string
	bt.Range(lo, hi, func(k []byte, tids []storage.TupleID) bool {
		out = append(out, render(k, tids))
		return true
	})
	return out
}

func dumpExact(bt *BTree, key []byte) string {
	s := "absent"
	bt.Exact(key, func(tids []storage.TupleID) { s = render(nil, tids) })
	return s
}

// sorted returns a copy of key's ids.
func (m treeModel) sorted(key []byte) []storage.TupleID { return slices.Clone(m[string(key)]) }

func (m treeModel) exact(key []byte) string {
	if ids := m.sorted(key); len(ids) > 0 {
		return render(nil, ids)
	}
	return "absent"
}

// checkAgainst compares every answer the tree can give with the model's.
func checkAgainst(t testing.TB, bt *BTree, m treeModel) {
	t.Helper()
	if err := bt.validate(); err != nil {
		t.Fatal(err)
	}
	entries := 0
	for k, ids := range m {
		entries += len(ids)
		if got, want := dumpExact(bt, []byte(k)), m.exact([]byte(k)); got != want {
			t.Fatalf("Exact(%x) = %s, model %s", k, got, want)
		}
	}
	if st := bt.Stats(); st.Entries != entries || st.Keys != len(m) || bt.Len() != entries {
		t.Fatalf("Stats %+v, Len %d; model has %d entries under %d keys", st, bt.Len(), entries, len(m))
	}
	if got, want := dumpRange(bt, nil, nil), m.dump(nil, nil); !slices.Equal(got, want) {
		t.Fatalf("full Range has %d keys, model %d", len(got), len(want))
	}
}

// opKey derives a key from two bytes of an op stream: mostly short keys
// sharing prefixes, with the empty key and 4 KiB keys among them.
func opKey(a uint16) []byte {
	switch {
	case a == 0:
		return []byte{}
	case a%67 == 1:
		return append(bytes.Repeat([]byte{byte(a >> 8)}, 4096), byte(a))
	}
	k := binary.BigEndian.AppendUint16([]byte{'k'}, a)
	return append(k, bytes.Repeat([]byte{byte(a)}, int(a%5))...)
}

func opTID(b byte) storage.TupleID {
	switch {
	case b >= 252:
		return 1<<63 | storage.TupleID(b)
	case b == 251:
		return 1 << 60
	}
	return storage.TupleID(b%6 + 1)
}

// runOps interprets data as a stream of four-byte ops against a tree
// and the model. The first byte narrows the key space, so that some
// streams pile ids onto few keys and others spread over many leaves.
// Besides single adds and removes, a run appends 64–319 ids past a key's
// largest, some of them 2⁴⁰ apart, and an expiry removes a key's 64–319
// oldest ids: keys with hundreds of ids in several chunks, drained from
// the head. A far add puts an id 2³¹ or more below a key's smallest (past
// zero, near 2⁶⁴): no value slot of a leaf based near the key's ids
// reaches it.
func runOps(t testing.TB, bt *BTree, m treeModel, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	mask := []uint16{0x1F, 0x3FF, 0xFFFF}[data[0]%3]
	for data = data[1:]; len(data) >= 4; data = data[4:] {
		op, a, tid := data[0], binary.BigEndian.Uint16(data[1:3])&mask, opTID(data[3])
		key := opKey(a)
		switch {
		case op < 100:
			bt.Add(key, tid)
			m.add(key, tid)
		case op < 108: // a run at the tail, some of it 2⁴⁰ apart
			next := storage.TupleID(100)
			if ids := m.sorted(key); len(ids) > 0 {
				next = max(next, ids[len(ids)-1]+1)
			}
			for i := 0; i < 64+int(data[3]); i++ {
				if i%97 == 96 {
					next += 1 << 40
				}
				bt.Add(key, next)
				m.add(key, next)
				next += storage.TupleID(1 + i%3)
			}
		case op < 120: // expiry order: the oldest ids leave first
			ids := m.sorted(key)
			for _, id := range ids[:min(len(ids), 64+int(data[3]))] {
				bt.Remove(key, id)
				m.remove(key, id)
			}
		case op < 124: // far below the key's ids
			id := storage.TupleID(100)
			if ids := m.sorted(key); len(ids) > 0 {
				id = ids[0]
			}
			id -= 1<<31 + storage.TupleID(data[3])<<24
			bt.Add(key, id)
			m.add(key, id)
		case op < 230:
			bt.Remove(key, tid)
			m.remove(key, tid)
		case op < 240:
			if got, want := dumpExact(bt, key), m.exact(key); got != want {
				t.Fatalf("Exact(%x) = %s, model %s", key, got, want)
			}
		case op < 254:
			// Everything under a prefix of the key.
			lo := key[:min(len(key), 2)]
			hi := PrefixSuccessor(lo)
			if got, want := dumpRange(bt, lo, hi), m.dump(lo, hi); !slices.Equal(got, want) {
				t.Fatalf("Range(%x, %x) = %v, model %v", lo, hi, got, want)
			}
		case data[3] < 4:
			bt.Clear()
			clear(m)
		}
	}
}

func TestBTreeAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1+4*20000)
		rng.Read(data)
		data[0] = byte(seed)
		bt, m := NewBTree(), treeModel{}
		runOps(t, bt, m, data)
		checkAgainst(t, bt, m)
		// Whatever is left must go, down to one empty leaf.
		for k, ids := range m {
			for _, id := range ids {
				bt.Remove([]byte(k), id)
			}
		}
		checkAgainst(t, bt, treeModel{})
		if st := bt.Stats(); st != NewBTree().Stats() {
			t.Fatalf("seed %d: emptied tree still holds %+v", seed, st)
		}
	}
}

func FuzzBTreeOps(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 2, 200, 0, 0, 1, 200, 0, 0, 2})
	f.Add([]byte{2, 0, 0, 1, 252, 0, 0, 1, 3, 130, 0, 1, 252, 250, 0, 1, 0})
	f.Add([]byte{0, 0, 0, 2, 1, 255, 0, 0, 0, 0, 0, 2, 2, 235, 0, 2, 0}) // add, Clear, add, Exact
	seq := []byte{1}
	for i := 0; i < 200; i++ { // ascending inserts, then removal from the old end
		seq = append(seq, 0, byte(i>>8), byte(i), 0)
	}
	for i := 0; i < 200; i++ {
		seq = append(seq, 200, byte(i>>8), byte(i), 0)
	}
	f.Add(seq)
	// Two runs onto one key, then its oldest ids leave across chunk ends.
	f.Add([]byte{0, 100, 0, 1, 250, 100, 0, 1, 200, 110, 0, 1, 130, 235, 0, 1, 0, 115, 0, 1, 255})
	// Ids far below a key's, one on its own key and two under one key,
	// one of which leaves again; then a far id above.
	f.Add([]byte{0, 0, 0, 1, 5, 120, 0, 2, 0, 0, 0, 3, 7, 121, 0, 3, 9, 235, 0, 3, 0, 200, 0, 3, 7, 0, 0, 4, 252, 235, 0, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		bt, m := NewBTree(), treeModel{}
		runOps(t, bt, m, data)
		checkAgainst(t, bt, m)
	})
}

// TestBTreeMultiTidCollapse follows one key from one id to many and
// back: the value slot holds a single id inline at both ends.
func TestBTreeMultiTidCollapse(t *testing.T) {
	bt, m := NewBTree(), treeModel{}
	key := []byte("k")
	for _, id := range []storage.TupleID{5, 3, 9, 5, 1 << 60, 1<<63 | 1} {
		bt.Add(key, id)
		m.add(key, id)
		checkAgainst(t, bt, m)
	}
	for _, id := range []storage.TupleID{3, 1 << 60, 9, 7, 5} {
		bt.Remove(key, id)
		m.remove(key, id)
		checkAgainst(t, bt, m)
	}
	// One id 2⁶³ from the leaf's base left: it cannot live in the slot.
	if bt.Stats().Bytes == NewBTree().Stats().Bytes {
		t.Fatal("a far id must stay spilled")
	}
	bt.Add(key, 4)
	bt.Remove(key, 1<<63|1)
	if got := bt.Stats().Bytes - bt.Stats().ArenaBytes; got != leafBytes {
		t.Fatalf("single plain id not inline: %d bytes beside the arena, want %d", got, leafBytes)
	}
}

// TestBTreeFarIDs drives ids at and past the reach of a leaf's value
// slots, a signed 31-bit offset from the leaf's base (its first id), on
// bases that put the reach across zero and across 2⁶³.
func TestBTreeFarIDs(t *testing.T) {
	for _, base := range []storage.TupleID{1 << 40, 5, 1<<63 - 3, 1 << 63} {
		bt, m := NewBTree(), treeModel{}
		add := func(k string, id storage.TupleID) { bt.Add([]byte(k), id); m.add([]byte(k), id) }
		remove := func(k string, id storage.TupleID) { bt.Remove([]byte(k), id); m.remove([]byte(k), id) }
		inline := func(k string) bool {
			lf := bt.root.(*leaf)
			i, found := lf.keys.search([]byte(k))
			if !found {
				t.Fatalf("base %#x: key %q not found", base, k)
			}
			return lf.vals[i]&spilled == 0
		}
		add("a", base)
		for _, c := range []struct {
			key    string
			id     storage.TupleID
			inline bool
		}{
			{"b", base - 1, true},
			{"c", base - slotRange, true},
			{"d", base - slotRange - 1, false},
			{"e", base + slotRange - 1, true},
			{"f", base + slotRange, false},
			{"g", base + 1<<63, false},
		} {
			add(c.key, c.id)
			if inline(c.key) != c.inline {
				t.Fatalf("base %#x: id %#x inline %v, want %v", base, c.id, !c.inline, c.inline)
			}
		}
		checkAgainst(t, bt, m)
		// A posting that collapses to one far id stays a posting; one that
		// collapses to an id within reach returns to the slot.
		add("h", base+1)
		add("h", base+1<<31)
		remove("h", base+1)
		if inline("h") {
			t.Fatalf("base %#x: a lone far id moved into the slot", base)
		}
		checkAgainst(t, bt, m)
		add("h", base+2)
		remove("h", base+1<<31)
		if !inline("h") {
			t.Fatalf("base %#x: a lone near id stays spilled", base)
		}
		checkAgainst(t, bt, m)
	}

	// Ids that alternate between two groups 2³¹ apart spill one key in
	// two to a posting of one id: a chunk in the leaf's table and the
	// chunk's byte array, not more.
	const n = 10000
	near, mixed := NewBTree(), NewBTree()
	for i := 0; i < n; i++ {
		near.Add(pkKey(i), storage.TupleID(i+1))
		mixed.Add(pkKey(i), storage.TupleID(i+1)+storage.TupleID(i%2)<<31)
	}
	if err := mixed.validate(); err != nil {
		t.Fatal(err)
	}
	perFar := float64(mixed.Stats().Bytes-near.Stats().Bytes) / (n / 2)
	if want := chunkBytes*5/4 + minEnc; perFar > float64(want) {
		t.Fatalf("a far id costs %.1f B more than a near one, want a chunk, a quarter of one the table grows by and its array: %d", perFar, want)
	}
}

// TestBTreeLongKeys fills trees with 4 KiB keys, of which 15 take a
// node's 64 KiB of key bytes, in ascending and in random order, then
// removes every other key.
func TestBTreeLongKeys(t *testing.T) {
	const n = 1000
	key := func(i int) []byte { return binary.BigEndian.AppendUint32(bytes.Repeat([]byte{'x'}, 4092), uint32(i)) }
	for _, order := range []string{"ascending", "random"} {
		perm := rand.New(rand.NewSource(1)).Perm(n)
		if order == "ascending" {
			slices.Sort(perm)
		}
		bt, m := NewBTree(), treeModel{}
		for _, i := range perm {
			bt.Add(key(i), storage.TupleID(i+1))
			m.add(key(i), storage.TupleID(i+1))
		}
		checkAgainst(t, bt, m)
		st := bt.Stats()
		t.Logf("%s: %d keys in %d leaves under %d inner nodes", order, st.Keys, st.Leaves, st.Inners)
		if st.Inners == 0 {
			t.Fatalf("%s: 4 MB of keys in one leaf", order)
		}
		for _, i := range perm[:n/2] {
			bt.Remove(key(i), storage.TupleID(i+1))
			m.remove(key(i), storage.TupleID(i+1))
		}
		checkAgainst(t, bt, m)
	}
}

// B+tree budgets: heap bytes per (key, id) entry of 100 000 entries under
// INT keys in their stable-column form, added one by one. Measured 11.6 B
// ascending, 16.6 random and 26.3 with about 3 ids per key; with 8-byte
// value slots and 4-byte key offsets the same trees took 18.1, 26.0 and
// 30.6.
const (
	btreeBudgetAscending = 12.2
	btreeBudgetRandom    = 17.4
	btreeBudgetShared    = 27.6
)

// TestBTreeSizeBudget holds the heap a grown tree keeps per entry to the
// committed budgets and Stats to that heap within 3 %, and each node type
// to the size class Stats counts it at: a field more would tip it into
// the next class.
func TestBTreeSizeBudget(t *testing.T) {
	if s := unsafe.Sizeof(leaf{}); s > leafBytes {
		t.Errorf("a leaf is %d bytes, over its %d-byte size class", s, leafBytes)
	}
	// An object with pointers over 512 bytes carries an 8-byte header.
	if s := unsafe.Sizeof(inner{}) + 8; s > innerBytes {
		t.Errorf("an inner node is %d bytes with its header, over its %d-byte size class", s, innerBytes)
	}
	const n = 100_000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	key := func(i int) []byte { return StableKey(value.Int(int64(i))) }
	for _, tc := range []struct {
		name   string
		budget float64
		add    func(bt *BTree, i int)
	}{
		{"ascending unique keys", btreeBudgetAscending, func(bt *BTree, i int) { bt.Add(key(i), storage.TupleID(i+1)) }},
		{"random unique keys", btreeBudgetRandom, func(bt *BTree, i int) { bt.Add(key(perm[i]), storage.TupleID(perm[i]+1)) }},
		{"about 3 ids per key", btreeBudgetShared, func(bt *BTree, i int) { bt.Add(key(perm[i]/3), storage.TupleID(perm[i]+1)) }},
	} {
		// The smallest of a few readings is the tree's (see
		// TestPostingSizeBudget).
		used, st := int64(math.MaxInt64), Stats{}
		for range 3 {
			before := heapInUse()
			bt := NewBTree()
			for i := 0; i < n; i++ {
				tc.add(bt, i)
			}
			used = min(used, heapInUse()-before)
			st = bt.Stats()
			runtime.KeepAlive(bt)
		}
		per, gauge := float64(used)/n, float64(st.Bytes)/n
		t.Logf("%s: %.2f B per entry (budget %.1f), Stats %.2f, %d leaves, %d inner nodes",
			tc.name, per, tc.budget, gauge, st.Leaves, st.Inners)
		if st.Entries != n {
			t.Fatalf("%s: %d entries, want %d", tc.name, st.Entries, n)
		}
		if per > tc.budget {
			t.Errorf("%s: the tree keeps %.2f B per entry, budget %.1f", tc.name, per, tc.budget)
		}
		if math.Abs(gauge-per) > 0.03*per {
			t.Errorf("%s: Stats counts %.2f B per entry, the heap holds %.2f", tc.name, gauge, per)
		}
	}
}

// TestBTreeChurnBounded slides a window over ascending keys: what the
// tree holds follows the window, not the history.
func TestBTreeChurnBounded(t *testing.T) {
	const window, churn = 1000, 50000
	key := func(i int) []byte { return binary.BigEndian.AppendUint64([]byte{1}, uint64(i)) }
	fresh, bt := NewBTree(), NewBTree()
	for i := 0; i < window; i++ {
		fresh.Add(key(i), storage.TupleID(i+1))
		bt.Add(key(i), storage.TupleID(i+1))
	}
	for i := window; i < window+churn; i++ {
		bt.Add(key(i), storage.TupleID(i+1))
		bt.Remove(key(i-window), storage.TupleID(i-window+1))
	}
	if err := bt.validate(); err != nil {
		t.Fatal(err)
	}
	want, got := fresh.Stats(), bt.Stats()
	if got.Entries != window || got.Keys != window {
		t.Fatalf("window holds %d entries under %d keys, want %d", got.Entries, got.Keys, window)
	}
	if got.Leaves > 2*want.Leaves || got.Inners > 2*want.Inners || got.ArenaBytes > 2*want.ArenaBytes || got.Bytes > 2*want.Bytes {
		t.Fatalf("after %d inserts and removals the tree holds %+v; a fresh tree of the same %d entries holds %+v",
			churn, got, window, want)
	}
	n := 0
	bt.Range(nil, nil, func([]byte, []storage.TupleID) bool { n++; return true })
	if n != window {
		t.Fatalf("Range visits %d keys, want %d", n, window)
	}
}

// randomRun draws n pairs over nkeys keys, in CompareEntries order: ids
// up to 4n, a third of them anywhere in 64 bits when far, and keys from
// opKey, all made 4 KiB long when long.
func randomRun(rng *rand.Rand, n, nkeys int, far, long bool) []Entry {
	run := make([]Entry, n)
	for i := range run {
		e := &run[i]
		e.Key, e.TID = opKey(uint16(rng.Intn(nkeys))), storage.TupleID(rng.Intn(4*n)+1)
		if far && rng.Intn(3) == 0 {
			e.TID = storage.TupleID(rng.Uint64())
		}
		if long && len(e.Key) < 4096 {
			e.Key = append(bytes.Repeat([]byte{'L'}, 4096-len(e.Key)), e.Key...)
		}
	}
	slices.SortFunc(run, CompareEntries)
	return run
}

func TestBuildBTreeEqualsAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []struct {
		n, nkeys  int
		far, long bool
	}{{0, 1, false, false}, {1, 1, false, false}, {64, 64, false, false}, {65, 1000, false, false}, {5000, 40, false, false},
		{9000, 60000, false, false}, {30000, 65536, false, false}, {9000, 3000, true, false}, {2000, 1500, false, true}} {
		run := randomRun(rng, shape.n, shape.nkeys, shape.far, shape.long)
		if len(run) > 2 {
			run = append(run, run[len(run)/2]) // a repeated pair counts once
			slices.SortFunc(run, CompareEntries)
		}
		built, err := BuildBTree(run)
		if err != nil {
			t.Fatal(err)
		}
		added, m := NewBTree(), treeModel{}
		for _, e := range run {
			added.Add(e.Key, e.TID)
			m.add(e.Key, e.TID)
		}
		checkAgainst(t, built, m)
		if got, want := dumpRange(built, nil, nil), dumpRange(added, nil, nil); !slices.Equal(got, want) {
			t.Fatalf("%+v: built and added trees differ over the full range", shape)
		}
		for i := 0; i < 50 && len(run) > 0; i++ {
			lo, hi := run[rng.Intn(len(run))].Key, run[rng.Intn(len(run))].Key
			if got, want := dumpRange(built, lo, hi), dumpRange(added, lo, hi); !slices.Equal(got, want) {
				t.Fatalf("%+v: Range(%x, %x) differs", shape, lo, hi)
			}
			probe := opKey(uint16(rng.Intn(65536)))
			if got, want := dumpExact(built, probe), dumpExact(added, probe); got != want {
				t.Fatalf("%+v: Exact(%x) = %s, added tree %s", shape, probe, got, want)
			}
		}
		// Every leaf but the last is full: of keys, or of key bytes.
		for lf := firstLeaf(built); lf.next != nil; lf = lf.next {
			if !lf.keys.full(lf.next.keys.key(0), fanout) {
				t.Fatalf("%+v: a leaf of %d keys in %d bytes has room for the next", shape, lf.keys.n, len(lf.keys.arena))
			}
		}
		if st := built.Stats(); st.Bytes > added.Stats().Bytes {
			t.Fatalf("%+v: built tree holds %d bytes, added tree %d", shape, st.Bytes, added.Stats().Bytes)
		}
		// A built tree takes further changes like any other.
		data := make([]byte, 1+4*3000)
		rng.Read(data)
		runOps(t, built, m, data)
		checkAgainst(t, built, m)
	}
}

func firstLeaf(bt *BTree) *leaf {
	n := bt.root
	for {
		in, ok := n.(*inner)
		if !ok {
			return n.(*leaf)
		}
		n = in.kids[0]
	}
}

func TestBuildBTreeRejectsUnsorted(t *testing.T) {
	k := func(s string, id storage.TupleID) Entry { return Entry{Key: []byte(s), TID: id} }
	for _, run := range [][]Entry{
		{k("b", 1), k("a", 1)},
		{k("a", 2), k("a", 1)},
		{k("a", 1), k("c", 1), k("b", 1)},
	} {
		if _, err := BuildBTree(run); !errors.Is(err, ErrUnsortedRun) {
			t.Fatalf("run %v: err = %v, want ErrUnsortedRun", run, err)
		}
	}
}

// pkKey is a 9-byte key: a tag byte, then i in 8 big-endian bytes.
func pkKey(i int) []byte { return binary.BigEndian.AppendUint64([]byte{2}, uint64(i)) }

func TestBTreeExactInlineNoAllocs(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 10000; i++ {
		bt.Add(pkKey(i), storage.TupleID(i+1))
	}
	key, sum := pkKey(4321), storage.TupleID(0)
	fn := func(tids []storage.TupleID) { sum += tids[0] }
	if n := testing.AllocsPerRun(100, func() { bt.Exact(key, fn) }); n != 0 {
		t.Fatalf("Exact on an inline key allocates %v times", n)
	}
	if sum == 0 {
		t.Fatal("key not found")
	}
}

var benchSink storage.TupleID

func BenchmarkBTreeAdd(b *testing.B) {
	for _, order := range []string{"ascending", "random"} {
		b.Run(order, func(b *testing.B) {
			keys := make([][]byte, b.N)
			for i := range keys {
				keys[i] = pkKey(i)
			}
			if order == "random" {
				rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			}
			bt := NewBTree()
			b.ReportAllocs()
			b.ResetTimer()
			for i, k := range keys {
				bt.Add(k, storage.TupleID(i+1))
			}
			b.StopTimer()
			b.ReportMetric(float64(bt.Stats().Bytes)/float64(b.N), "B/entry")
		})
	}
}

func benchTree(n int) *BTree {
	bt := NewBTree()
	for i := 0; i < n; i++ {
		bt.Add(pkKey(i), storage.TupleID(i+1))
	}
	return bt
}

func BenchmarkBTreeExact(b *testing.B) {
	const n = 100000
	bt := benchTree(n)
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = pkKey(rng.Intn(n))
	}
	fn := func(tids []storage.TupleID) { benchSink += tids[0] }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Exact(keys[i%len(keys)], fn)
	}
}

func BenchmarkBTreeRange(b *testing.B) {
	const n, span = 100000, 100
	bt := benchTree(n)
	rng := rand.New(rand.NewSource(1))
	fn := func(_ []byte, tids []storage.TupleID) bool { benchSink += tids[0]; return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Intn(n - span)
		bt.Range(pkKey(lo), pkKey(lo+span), fn)
	}
}

func BenchmarkBuildBTree(b *testing.B) {
	const n = 100000
	run := make([]Entry, n)
	for i := range run {
		run[i] = Entry{Key: pkKey(i), TID: storage.TupleID(i + 1)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt, err := BuildBTree(run)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += storage.TupleID(bt.Len())
	}
}
