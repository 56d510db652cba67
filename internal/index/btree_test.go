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
	// checkPacked holds an arena to its offsets and to the zeroing of
	// what it vacated.
	checkPacked := func(k *packed) error {
		if k.n < 0 || k.n > fanout {
			return fmt.Errorf("node holds %d strings", k.n)
		}
		if k.n > 0 && int(k.ends[k.n-1]) != len(k.arena) {
			return fmt.Errorf("last string ends at %d, arena is %d long", k.ends[k.n-1], len(k.arena))
		}
		if len(k.arena) > arenaMax || cap(k.arena) > 64<<10 {
			return fmt.Errorf("arena of %d bytes in %d, over %d", len(k.arena), cap(k.arena), arenaMax)
		}
		for i := 1; i < k.n; i++ {
			if k.ends[i] < k.ends[i-1] {
				return fmt.Errorf("strings %d and %d end at %d and %d", i-1, i, k.ends[i-1], k.ends[i])
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
		return nil
	}
	checkKeys := func(k *packed, lo, hi []byte) error {
		if err := checkPacked(k); err != nil {
			return err
		}
		for i := 0; i < k.n; i++ {
			if i > 0 && bytes.Compare(k.at(i-1), k.at(i)) >= 0 {
				return fmt.Errorf("keys %d and %d out of order", i-1, i)
			}
			if lo != nil && bytes.Compare(k.at(i), lo) < 0 || hi != nil && bytes.Compare(k.at(i), hi) >= 0 {
				return fmt.Errorf("key %q outside its parent's bounds [%q, %q)", k.at(i), lo, hi)
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
			if err := checkPacked(&nd.ids); err != nil {
				return fmt.Errorf("id arena: %w", err)
			}
			if nd.ids.n != nd.keys.n || nd.spills>>nd.keys.n != 0 {
				return fmt.Errorf("%d keys, %d postings, spill bits %#x", nd.keys.n, nd.ids.n, nd.spills)
			}
			c.postBytes += cap(nd.ids.arena)
			// Spilled postings tile the chunk table in key order.
			next := 0
			for i := range nd.keys.n {
				if !nd.spilled(i) {
					enc := nd.ids.at(i)
					ids := nd.appendTIDs(nil, i)
					if again, ok := appendInline(nil, nd.base, ids); !ok || !bytes.Equal(again, enc) {
						return fmt.Errorf("key %d: inline posting %x does not re-encode as itself (%x, fits %v)", i, enc, again, ok)
					}
					if len(slices.Compact(slices.Clone(ids))) != len(ids) || !slices.IsSorted(ids) {
						return fmt.Errorf("key %d: inline ids %v not ascending", i, ids)
					}
					c.n += len(ids)
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
				if _, fits := appendInline(nil, nd.base, ids); len(ids) <= chunkIDs/2 && fits {
					return fmt.Errorf("key %d: a posting of %d ids that fit inline stays spilled", i, len(ids))
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
					klo = nd.keys.at(i - 1)
				}
				if i < nd.keys.n {
					khi = nd.keys.at(i)
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
// the head. A far add puts three ids 2⁴⁰ and 2⁶³−1 apart under a key,
// below its smallest (across zero, near 2⁶⁴): the longest varints an
// inline posting holds. A threshold op fills a key past chunkIDs ids,
// where it must spill, and drains it from the middle to under
// chunkIDs/2, where it must be back inline; an empty op removes all of a
// key's ids, middle first, wherever its posting lies in the id arena.
func runOps(t testing.TB, bt *BTree, m treeModel, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	add := func(key []byte, id storage.TupleID) { bt.Add(key, id); m.add(key, id) }
	remove := func(key []byte, id storage.TupleID) { bt.Remove(key, id); m.remove(key, id) }
	spilled := func(key []byte) bool {
		lf, i, _ := bt.seekLeaf(key)
		return lf.spilled(i)
	}
	mask := []uint16{0x1F, 0x3FF, 0xFFFF}[data[0]%3]
	for data = data[1:]; len(data) >= 4; data = data[4:] {
		op, a, tid := data[0], binary.BigEndian.Uint16(data[1:3])&mask, opTID(data[3])
		key := opKey(a)
		switch {
		case op < 96:
			add(key, tid)
		case op < 104: // a run at the tail, some of it 2⁴⁰ apart
			next := storage.TupleID(100)
			if ids := m.sorted(key); len(ids) > 0 {
				next = max(next, ids[len(ids)-1]+1)
			}
			for i := 0; i < 64+int(data[3]); i++ {
				if i%97 == 96 {
					next += 1 << 40
				}
				add(key, next)
				next += storage.TupleID(1 + i%3)
			}
		case op < 114: // expiry order: the oldest ids leave first
			ids := m.sorted(key)
			for _, id := range ids[:min(len(ids), 64+int(data[3]))] {
				remove(key, id)
			}
		case op < 118: // far below the key's ids, and far apart
			id := storage.TupleID(100)
			if ids := m.sorted(key); len(ids) > 0 {
				id = ids[0]
			}
			id -= 1<<31 + storage.TupleID(data[3])<<24
			for _, d := range []storage.TupleID{0, 1 << 40, 1<<40 + 1<<63 - 1} {
				add(key, id+d)
			}
		case op < 122: // past the spill threshold and back under the return
			next := storage.TupleID(100)
			if ids := m.sorted(key); len(ids) > 0 {
				next = max(next, ids[len(ids)-1]+1)
			}
			for len(m[string(key)]) <= chunkIDs {
				add(key, next)
				next += storage.TupleID(1 + int(data[3])%3)
			}
			if !spilled(key) {
				t.Fatalf("key %x holds %d ids inline", key, len(m[string(key)]))
			}
			for ids := m.sorted(key); len(ids) >= chunkIDs/2; ids = m.sorted(key) {
				remove(key, ids[len(ids)/2])
			}
			if spilled(key) {
				t.Fatalf("key %x keeps %d ids spilled", key, len(m[string(key)]))
			}
		case op < 126: // every id of a key, middle first
			for ids := m.sorted(key); len(ids) > 0; ids = m.sorted(key) {
				remove(key, ids[len(ids)/2])
			}
		case op < 230:
			remove(key, tid)
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
	f.Add([]byte{0, 100, 0, 1, 250, 100, 0, 1, 200, 110, 0, 1, 130, 235, 0, 1, 0, 112, 0, 1, 255})
	// Ids far below a key's, three on its own key and three beside one
	// id, one of which leaves again; then a far id above.
	f.Add([]byte{0, 0, 0, 1, 5, 116, 0, 2, 0, 0, 0, 3, 7, 117, 0, 3, 9, 235, 0, 3, 0, 200, 0, 3, 7, 0, 0, 4, 252, 235, 0, 4, 0})
	// Keys 1 to 3 in one leaf; the middle one past the spill threshold
	// and back, then emptied from the middle of the id arena.
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 2, 2, 0, 0, 3, 3, 120, 0, 2, 1, 235, 0, 2, 0, 124, 0, 2, 0, 235, 0, 1, 0, 235, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		bt, m := NewBTree(), treeModel{}
		runOps(t, bt, m, data)
		checkAgainst(t, bt, m)
	})
}

// TestBTreeMultiTidCollapse follows one key from one id to many and
// back: its ids stay in the leaf's id arena up to chunkIDs, spill to
// chunks past it, and return to the arena at chunkIDs/2, leaving no chunk
// and no chunk table behind.
func TestBTreeMultiTidCollapse(t *testing.T) {
	bt, m := NewBTree(), treeModel{}
	key := []byte("k")
	spilled := func() bool { return bt.root.(*leaf).spilled(0) }
	for _, id := range []storage.TupleID{5, 3, 9, 5, 1 << 60, 1<<63 | 1} {
		bt.Add(key, id)
		m.add(key, id)
		checkAgainst(t, bt, m)
	}
	if spilled() {
		t.Fatal("five ids, far apart, spilled")
	}
	for id := storage.TupleID(10); len(m[string(key)]) < chunkIDs; id++ {
		bt.Add(key, id)
		m.add(key, id)
	}
	checkAgainst(t, bt, m)
	if spilled() {
		t.Fatalf("%d ids spilled", chunkIDs)
	}
	bt.Add(key, 4)
	m.add(key, 4)
	checkAgainst(t, bt, m)
	if !spilled() {
		t.Fatalf("%d ids still inline", chunkIDs+1)
	}
	for _, id := range m.sorted(key) {
		if len(m[string(key)]) == chunkIDs/2 {
			break
		}
		if spilled := spilled(); spilled != (len(m[string(key)]) > chunkIDs/2) {
			t.Fatalf("%d ids spilled %v", len(m[string(key)]), spilled)
		}
		bt.Remove(key, id)
		m.remove(key, id)
	}
	checkAgainst(t, bt, m)
	lf := bt.root.(*leaf)
	if spilled() || lf.posts != nil {
		t.Fatalf("%d ids still spilled, %d chunks held", chunkIDs/2, len(lf.posts))
	}
	if got, want := bt.Stats().Bytes, leafBytes+cap(lf.keys.arena)+cap(lf.ids.arena); got != want {
		t.Fatalf("inline key holds %d bytes, want the leaf and its two arenas: %d", got, want)
	}
}

// TestBTreeFarIDs drives ids at every distance from a leaf's base, on
// bases that put the distances across zero and across 2⁶³: each is
// inline, one varint of its zigzagged distance from base, or as a gap a
// uvarint of its distance from the id before.
func TestBTreeFarIDs(t *testing.T) {
	for _, base := range []storage.TupleID{1 << 40, 5, 1<<63 - 3, 1 << 63} {
		bt, m := NewBTree(), treeModel{}
		add := func(k string, id storage.TupleID) { bt.Add([]byte(k), id); m.add([]byte(k), id) }
		posting := func(k string) []byte {
			lf := bt.root.(*leaf)
			i, found := lf.keys.search([]byte(k))
			if !found || lf.spilled(i) {
				t.Fatalf("base %#x: key %q found %v, spilled", base, k, found)
			}
			return lf.ids.at(i)
		}
		add("a", base)
		for j, d := range []int64{-1, 63, -64, 64, 1 << 30, -1 << 30, 1 << 31, 1 << 40, math.MaxInt64, math.MinInt64} {
			k := fmt.Sprint("b", j)
			add(k, base+storage.TupleID(d))
			if got, want := len(posting(k)), len(binary.AppendVarint(nil, d)); got != want {
				t.Fatalf("base %#x: id %d from base takes %d bytes, want %d", base, d, got, want)
			}
		}
		// One key, ids 2⁴⁰ and 2⁶³−1 apart.
		for _, id := range []storage.TupleID{1, 1 + 1<<40, 1<<40 + 1<<63} {
			add("c", id)
		}
		if got, want := len(posting("c")), len(binary.AppendVarint(nil, int64(1-base)))+6+9; got != want {
			t.Fatalf("base %#x: first id and gaps of 2⁴⁰ and 2⁶³−1 take %d bytes, want %d", base, got, want)
		}
		checkAgainst(t, bt, m)
	}

	// Gaps of 2⁵⁷ take 9 bytes each: the key spills when its gap bytes
	// pass inlineGaps, short of chunkIDs ids, and returns at chunkIDs/2.
	bt, m := NewBTree(), treeModel{}
	for i := range chunkIDs {
		bt.Add([]byte("k"), storage.TupleID(i)<<57)
		m.add([]byte("k"), storage.TupleID(i)<<57)
		if got, want := bt.root.(*leaf).spilled(0), 9*i > inlineGaps; got != want {
			t.Fatalf("%d ids 2⁵⁷ apart spilled %v", i+1, got)
		}
	}
	checkAgainst(t, bt, m)
	for i := chunkIDs - 1; i >= chunkIDs/2; i-- {
		bt.Remove([]byte("k"), storage.TupleID(i)<<57)
		m.remove([]byte("k"), storage.TupleID(i)<<57)
	}
	checkAgainst(t, bt, m)
	if bt.root.(*leaf).spilled(0) {
		t.Fatalf("%d ids 2⁵⁷ apart still spilled", chunkIDs/2)
	}

	// Ids that alternate between two groups 2³¹ apart cost the bytes their
	// longer varints take, not a chunk.
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
	if want := 2 * (len(binary.AppendVarint(nil, 1<<31)) - 1); perFar > float64(want) {
		t.Fatalf("a far id costs %.1f B more than a near one, want its longer varint and the arena slack it brings: %d", perFar, want)
	}
	t.Logf("a far id costs %.1f B more than a near one", perFar)
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
// INT keys in their stable-column form, added one by one, measurement +
// 5 %. Measured 11.06 B ascending, 15.89 random, 5.93 with about 3 ids
// per key and 3.87 for mixed levels, with every key's ids in its leaf up
// to 128; with 4-byte value slots and a chunk for every key of two ids
// or more the same trees took 11.6, 16.6, 26.3 and 7.4, with 8-byte
// value slots and 4-byte key offsets 18.1, 26.0 and 30.6 (mixed levels
// not measured).
const (
	btreeBudgetAscending = 11.6
	btreeBudgetRandom    = 16.7
	btreeBudgetShared    = 6.2
	btreeBudgetMixed     = 4.1
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
	// mixed[i] is row i's key in an index on a degraded salary column:
	// half the rows exact, drawn from the benchmark's salary distribution
	// (keys of 1 to 16 ids, most of them), half in their 1000-wide bucket.
	mixed, rng := make([][]byte, n), rand.New(rand.NewSource(2))
	for i := range mixed {
		sal, level := int64(rng.ExpFloat64()*2800), byte(0)
		if i%2 == 1 {
			sal, level = sal/1000*1000, 1
		}
		mixed[i] = append([]byte{level}, key(int(sal))...)
	}
	for _, tc := range []struct {
		name   string
		budget float64
		add    func(bt *BTree, i int)
	}{
		{"ascending unique keys", btreeBudgetAscending, func(bt *BTree, i int) { bt.Add(key(i), storage.TupleID(i+1)) }},
		{"random unique keys", btreeBudgetRandom, func(bt *BTree, i int) { bt.Add(key(perm[i]), storage.TupleID(perm[i]+1)) }},
		{"about 3 ids per key", btreeBudgetShared, func(bt *BTree, i int) { bt.Add(key(perm[i]/3), storage.TupleID(perm[i]+1)) }},
		{"mixed levels", btreeBudgetMixed, func(bt *BTree, i int) { bt.Add(mixed[perm[i]], storage.TupleID(perm[i]+1)) }},
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
		sizes     []int // ids per key, key after key, instead of a random run
	}{{0, 1, false, false, nil}, {1, 1, false, false, nil}, {64, 64, false, false, nil}, {65, 1000, false, false, nil},
		{5000, 40, false, false, nil}, {9000, 60000, false, false, nil}, {30000, 65536, false, false, nil},
		{9000, 3000, true, false, nil}, {2000, 1500, false, true, nil},
		// Either side of the spill threshold.
		{0, 0, false, false, []int{1, 2, chunkIDs, chunkIDs + 1, 2, 1, chunkIDs + 1, chunkIDs}}} {
		run := randomRun(rng, shape.n, shape.nkeys, shape.far, shape.long)
		for k, n := range shape.sizes {
			for j := range n {
				run = append(run, Entry{Key: opKey(uint16(k + 1)), TID: storage.TupleID(1 + 3*j + k%2)})
			}
		}
		slices.SortFunc(run, CompareEntries)
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
		for k, n := range shape.sizes {
			for _, bt := range []*BTree{built, added} {
				if lf, i, _ := bt.seekLeaf(opKey(uint16(k + 1))); lf.spilled(i) != (n > chunkIDs) {
					t.Fatalf("a key of %d ids spilled %v", n, lf.spilled(i))
				}
			}
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
			if !lf.keys.full(lf.next.keys.at(0), fanout) {
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
	for _, order := range []string{"ascending", "random", "shared"} {
		b.Run(order, func(b *testing.B) {
			keys := make([][]byte, b.N)
			for i := range keys {
				keys[i] = pkKey(i)
			}
			// A fresh tree every rows adds (all of them but for shared).
			rows := b.N
			switch order {
			case "random":
				rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			case "shared":
				// Ids in insert order under 360 keys drawn Zipf-skewed,
				// 4 000 to a tree, like an index on addresses: most keys
				// hold a handful of ids, a few pass 128.
				z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 8, 359)
				for i := range keys {
					keys[i] = pkKey(int(z.Uint64()))
				}
				rows = 4000
			}
			bt := NewBTree()
			b.ReportAllocs()
			b.ResetTimer()
			for i, k := range keys {
				if i%rows == 0 && i > 0 {
					bt = NewBTree()
				}
				bt.Add(k, storage.TupleID(i%rows+1))
			}
			b.StopTimer()
			b.ReportMetric(float64(bt.Stats().Bytes)/float64(bt.Len()), "B/entry")
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
