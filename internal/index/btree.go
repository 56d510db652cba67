// Package index implements InstantDB's three secondary index families
// and their degradation maintenance (experiment B-IDX):
//
//   - BTree: an in-memory B+tree over order-preserving byte keys with
//     TupleID postings. Composite key builders encode stable values,
//     tree-domain generalization paths (making a subtree query a prefix
//     range scan), and (level, order-key) pairs for scalar domains.
//   - Bitmap: one bitset per generalization-tree node — the OLAP-style
//     index; a degradation step clears the child bit and sets the parent.
//   - GTIndex: posting lists attached to generalization-tree nodes; a
//     degradation step moves an id between two postings, and a predicate
//     at any accuracy level is one subtree collection.
//
// A posting — the ids of a B+tree key with more than one (or with one out
// of its leaf's reach), or of a GT node — is one type for both: chunks of up to 128 ascending ids, the first in
// the clear and the rest as uvarint gaps (posting.go).
//
// Indexes are memory-resident, rebuilt from the heap at open: the
// persistent artifacts audited for non-recoverability are the page store
// and the log. Removal erases eagerly all the same: a BTree key whose last
// tuple id leaves is deleted and its bytes zeroed, a leaf that empties is
// unlinked, a posting chunk shrinks in place with its vacated bytes
// zeroed and is zeroed and dropped with its last id. What the BTree does
// not do is merge underfull leaves: a leaf keeps its footprint until its
// last key is gone (BTree.Stats reports what is held).
//
// A node is sized to an allocator size class: key offsets are 2 bytes, so
// a node's keys take at most 64 KiB, and a leaf's value slots are 4: an
// id within 2³⁰ of the leaf's base id, or where a spilled posting starts.
// A leaf is 464 bytes in the 480-byte class, an inner node 1 184 in the
// 1 280-byte class.
package index

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"instantdb/internal/storage"
)

// fanout is the number of keys a leaf and of children an inner node hold.
const fanout = 64

// arenaPresizeMax is the largest key arena a node allocates ahead of
// need; nodes of longer keys grow theirs geometrically.
const arenaPresizeMax = 4096

// arenaMax is the most key bytes a node holds, the largest end a 2-byte
// offset records. A node splits before its arena would pass it.
const arenaMax = math.MaxUint16

// maxKeyLen is the longest key a tree takes. A split leaves each half at
// most half the arena plus one key, so either half has room for one more
// key of this length. An index key is bounded by its row, which a page
// bounds to 4 KiB.
const maxKeyLen = arenaMax / 4

// alloc returns an empty slice with room for at least n elements: the
// whole size class the allocator rounds the array up to, so that cap is
// the heap it holds.
func alloc[E any](n int) []E { return slices.Grow([]E(nil), n) }

// packedKeys is a node's sorted keys, stored back to back in one arena:
// key i is arena[ends[i-1]:ends[i]].
type packedKeys struct {
	n     int
	ends  [fanout]uint16
	arena []byte
}

func (k *packedKeys) start(i int) int {
	if i == 0 {
		return 0
	}
	return int(k.ends[i-1])
}

func (k *packedKeys) key(i int) []byte { return k.arena[k.start(i):k.ends[i]] }

// search returns the index of the first key >= key and whether it equals
// key.
func (k *packedKeys) search(key []byte) (int, bool) {
	lo, hi := 0, k.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		switch c := bytes.Compare(k.key(m), key); {
		case c < 0:
			lo = m + 1
		case c > 0:
			hi = m
		default:
			return m, true
		}
	}
	return lo, false
}

// arenaCap sizes an arena that must hold need bytes in nkeys keys: room
// for a full node of keys of that mean length, so a node filled in key
// order allocates once and ends exactly full. Long keys get a quarter of
// headroom instead, up to the most a node holds.
func arenaCap(need, nkeys int) int {
	if est := (need + nkeys - 1) / nkeys * fanout; est <= arenaPresizeMax {
		return max(est, need)
	}
	return min(need+need/4, arenaMax)
}

// full reports whether a node that holds at most limit keys must split
// before it takes key.
func (k *packedKeys) full(key []byte, limit int) bool {
	return k.n == limit || len(k.arena)+len(key) > arenaMax
}

// half returns where a split cuts the keys: at the first key that starts
// in the second half of the arena, and so that either side keeps one key
// at least. Neither side keeps more than half the bytes plus one key.
func (k *packedKeys) half() int {
	i, _ := slices.BinarySearch(k.ends[:k.n-1], uint16(len(k.arena)/2))
	return min(i+1, k.n-1)
}

// insert places key at index i and returns the arena capacity gained.
func (k *packedKeys) insert(i int, key []byte) int {
	grown := 0
	if need := len(k.arena) + len(key); need > cap(k.arena) {
		a := append(alloc[byte](arenaCap(need, k.n+1)), k.arena...)
		clear(k.arena)
		grown = cap(a) - cap(k.arena)
		k.arena = a
	}
	start, old := k.start(i), len(k.arena)
	k.arena = k.arena[:old+len(key)]
	copy(k.arena[start+len(key):], k.arena[start:old])
	copy(k.arena[start:], key)
	copy(k.ends[i+1:k.n+1], k.ends[i:k.n])
	k.ends[i] = uint16(start + len(key))
	for j := i + 1; j <= k.n; j++ {
		k.ends[j] += uint16(len(key))
	}
	k.n++
	return grown
}

// push appends key, which sorts after every key held, into an arena the
// bulk build has sized for it.
func (k *packedKeys) push(key []byte) {
	k.arena = append(k.arena, key...)
	k.ends[k.n] = uint16(len(k.arena))
	k.n++
}

// remove deletes key i, zeroing the bytes it vacates.
func (k *packedKeys) remove(i int) {
	start, end := k.start(i), int(k.ends[i])
	old := len(k.arena)
	k.arena = k.arena[:start+copy(k.arena[start:], k.arena[end:])]
	clear(k.arena[len(k.arena):old])
	copy(k.ends[i:k.n-1], k.ends[i+1:k.n])
	k.n--
	k.ends[k.n] = 0
	for j := i; j < k.n; j++ {
		k.ends[j] -= uint16(end - start)
	}
}

// moveTail moves keys [from, n) to the empty dst and truncates k to
// [0, upto), zeroing everything it gives up (upto < from drops keys in
// between: an inner split lifts its middle key out). It returns the
// capacity of dst's new arena.
func (k *packedKeys) moveTail(dst *packedKeys, upto, from int) int {
	start := k.start(from)
	tail := k.arena[start:]
	dst.n = k.n - from
	dst.arena = append(alloc[byte](arenaCap(len(tail), max(dst.n, 1))), tail...)
	for j := 0; j < dst.n; j++ {
		dst.ends[j] = k.ends[from+j] - uint16(start)
	}
	cut := k.start(upto)
	clear(k.arena[cut:])
	k.arena = k.arena[:cut]
	clear(k.ends[upto:k.n])
	k.n = upto
	return cap(dst.arena)
}

// spilled marks a leaf value slot that holds, instead of the key's one
// tuple id, the index in the leaf's posts of its posting's first chunk.
// The posting ends where the next spilled key's begins, or at the end of
// posts.
const spilled = 1 << 31

// slotRange bounds how far from its leaf's base an inline id lies: a slot
// holds the id as a signed 31-bit offset.
const slotRange = 1 << 30

// leaf holds up to fanout keys and one 4-byte value slot per key. A key
// with a single tuple id — every key of a unique index — keeps it in the
// slot, as an offset from base; further ids, or one too far from base,
// move the key's set to a posting of its own.
type leaf struct {
	keys packedKeys
	vals [fanout]uint32
	// base is the id inline offsets count from: the first id the leaf
	// took while it held no key, or, for the right half of a split, the
	// left half's base.
	base storage.TupleID
	// posts holds the chunks of every spilled posting of the leaf, one
	// run of chunks per key, in key order; nil when no key spilled.
	posts      []chunk
	prev, next *leaf
}

// slot returns the inline value slot of id, if id lies close enough to
// the leaf's base.
func (lf *leaf) slot(id storage.TupleID) (uint32, bool) {
	d := int64(id - lf.base)
	return uint32(d) &^ spilled, -slotRange <= d && d < slotRange
}

// id returns the id an inline value slot holds.
func (lf *leaf) id(v uint32) storage.TupleID {
	return lf.base + storage.TupleID(int32(v<<1)>>1)
}

// after returns the index of the first chunk of the postings of the keys
// after key i.
func (lf *leaf) after(i int) int {
	for j := i + 1; j < lf.keys.n; j++ {
		if v := lf.vals[j]; v&spilled != 0 {
			return int(v &^ spilled)
		}
	}
	return len(lf.posts)
}

// postingOf returns the posting of spilled key i.
func (lf *leaf) postingOf(i int) posting {
	return posting{tab: &lf.posts, lo: int(lf.vals[i] &^ spilled), hi: lf.after(i)}
}

// appendTIDs appends the ids under key i to dst.
func (lf *leaf) appendTIDs(dst []storage.TupleID, i int) []storage.TupleID {
	if v := lf.vals[i]; v&spilled == 0 {
		return append(dst, lf.id(v))
	}
	p := lf.postingOf(i)
	return p.appendTo(dst)
}

// shiftSpans moves the postings of the spilled keys after key i by d
// chunks.
func (lf *leaf) shiftSpans(i, d int) {
	if d == 0 {
		return
	}
	for j := i + 1; j < lf.keys.n; j++ {
		if lf.vals[j]&spilled != 0 {
			lf.vals[j] += uint32(d)
		}
	}
}

// spill gives key i a posting of its own holding ids, behind the chunks
// of the keys before it, and returns the capacity gained.
func (lf *leaf) spill(i int, ids ...storage.TupleID) int {
	at := lf.after(i)
	var c chunk
	d := c.pack(ids, minEnc)
	d += insertChunk(&lf.posts, at, c)
	lf.vals[i] = spilled | uint32(at)
	lf.shiftSpans(i, 1)
	return d
}

type inner struct {
	// keys.key(i) is a lower bound of every key under kids[i+1] and
	// greater than every key under kids[i]; kids[:keys.n+1] are in use.
	keys packedKeys
	kids [fanout]node
}

// childFor returns the index of the child whose range contains key.
func (in *inner) childFor(key []byte) int {
	i, found := in.keys.search(key)
	if found {
		i++
	}
	return i
}

type node interface{ isNode() }

func (*leaf) isNode()  {}
func (*inner) isNode() {}

// leafBytes and innerBytes are the heap a leaf and an inner node take:
// the allocator size classes their structs fill (TestBTreeSizeBudget
// holds the structs to them).
const (
	leafBytes  = 480
	innerBytes = 1280
)

// BTree is an in-memory B+tree mapping byte keys to TupleID postings.
// Safe for concurrent use.
type BTree struct {
	mu   sync.RWMutex
	root node
	counts
}

// counts is a tree's occupancy, kept current by every mutation so that
// Stats never walks the tree: live (key, tid) pairs, distinct keys,
// nodes, and the capacity in bytes of key arenas and of spilled postings
// (chunk tables and chunk byte arrays).
type counts struct {
	n, nkeys, leaves, inners int
	arenaBytes, postBytes    int
}

// NewBTree returns an empty tree.
func NewBTree() *BTree { return &BTree{root: &leaf{}, counts: counts{leaves: 1}} }

// Len returns the number of live (key, tuple) entries.
func (t *BTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n
}

// Stats is a tree's occupancy.
type Stats struct {
	Entries int // live (key, tuple id) pairs
	Keys    int // distinct keys held, each with at least one tuple id
	Leaves  int
	Inners  int
	// ArenaBytes is the capacity of every node's key arena.
	ArenaBytes int
	// Bytes is the heap the tree holds: nodes (offsets, value slots,
	// child pointers) at their size class, key arenas and spilled
	// postings at the capacity their allocations were rounded up to.
	Bytes int
}

// Stats returns the tree's occupancy from its counters.
func (t *BTree) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return Stats{
		Entries: t.n, Keys: t.nkeys, Leaves: t.leaves, Inners: t.inners,
		ArenaBytes: t.arenaBytes,
		Bytes:      t.leaves*leafBytes + t.inners*innerBytes + t.arenaBytes + t.postBytes,
	}
}

// Add inserts tid under key, which must be shorter than 16 KiB.
func (t *BTree) Add(key []byte, tid storage.TupleID) {
	if len(key) > maxKeyLen {
		panic(errKeyLen(key))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	right, sep, added := t.insert(t.root, key, tid)
	if added {
		t.n++
	}
	if right != nil {
		root := &inner{}
		root.kids[0], root.kids[1] = t.root, right
		t.arenaBytes += root.keys.insert(0, sep)
		t.root = root
		t.inners++
	}
}

// insert descends, returning a new right sibling and its separator key
// when the child split. The separator may alias a node's arena: the
// caller copies it into its own before touching that node.
func (t *BTree) insert(n node, key []byte, tid storage.TupleID) (node, []byte, bool) {
	switch nd := n.(type) {
	case *leaf:
		right, added := t.insertLeaf(nd, key, tid)
		if right == nil {
			return nil, nil, added
		}
		return right, right.keys.key(0), added
	case *inner:
		ci := nd.childFor(key)
		child, sep, added := t.insert(nd.kids[ci], key, tid)
		if child == nil {
			return nil, nil, added
		}
		if !nd.keys.full(sep, fanout-1) {
			t.putChild(nd, ci, sep, child)
			return nil, nil, added
		}
		// Full: the middle key moves up, the upper half to a new sibling.
		mid := nd.keys.half()
		up := bytes.Clone(nd.keys.key(mid))
		right := &inner{}
		t.inners++
		t.arenaBytes += nd.keys.moveTail(&right.keys, mid, mid+1)
		copy(right.kids[:], nd.kids[mid+1:])
		clear(nd.kids[mid+1:])
		if ci <= mid {
			t.putChild(nd, ci, sep, child)
		} else {
			t.putChild(right, ci-mid-1, sep, child)
		}
		return right, up, added
	}
	return nil, nil, false
}

// putChild registers child, the new right sibling of kids[ci].
func (t *BTree) putChild(in *inner, ci int, sep []byte, child node) {
	copy(in.kids[ci+2:in.keys.n+2], in.kids[ci+1:in.keys.n+1])
	in.kids[ci+1] = child
	t.arenaBytes += in.keys.insert(ci, sep)
}

// insertLeaf adds (key, tid) to lf, splitting it first when it is full,
// and returns the new right sibling if it did.
func (t *BTree) insertLeaf(lf *leaf, key []byte, tid storage.TupleID) (*leaf, bool) {
	i, found := lf.keys.search(key)
	if found {
		return nil, t.addTID(lf, i, tid)
	}
	var right *leaf
	target := lf
	if lf.keys.full(key, fanout) {
		right = &leaf{base: lf.base, prev: lf, next: lf.next}
		t.leaves++
		if lf.next != nil {
			lf.next.prev = right
		}
		lf.next = right
		if i == lf.keys.n && right.next == nil {
			// Past the last key of the last leaf — ascending keys, the
			// common case for a primary key: the full leaf stays full.
			target, i = right, 0
		} else {
			mid := lf.keys.half()
			t.splitLeaf(lf, right, mid)
			if i > mid {
				target, i = right, i-mid
			}
		}
	}
	t.arenaBytes += target.keys.insert(i, key)
	copy(target.vals[i+1:target.keys.n], target.vals[i:target.keys.n-1])
	if target.keys.n == 1 { // an empty leaf: no slot counts from base
		target.base = tid
	}
	if v, ok := target.slot(tid); ok {
		target.vals[i] = v
	} else {
		t.postBytes += target.spill(i, tid)
	}
	t.nkeys++
	return right, true
}

// splitLeaf moves keys [mid, n) of lf, with their values, to the empty
// right. Postings are in key order, so the moved keys' chunks are the
// tail of lf's posts.
func (t *BTree) splitLeaf(lf, right *leaf, mid int) {
	n := lf.keys.n
	t.arenaBytes += lf.keys.moveTail(&right.keys, mid, mid)
	copy(right.vals[:], lf.vals[mid:n])
	clear(lf.vals[mid:n])
	cut := -1
	for j, v := range right.vals[:n-mid] {
		if v&spilled == 0 {
			continue
		}
		if cut < 0 {
			cut = int(v &^ spilled)
		}
		right.vals[j] = v - uint32(cut)
	}
	if cut < 0 {
		return
	}
	before := cap(lf.posts)
	right.posts = append(alloc[chunk](len(lf.posts)-cut), lf.posts[cut:]...)
	clear(lf.posts[cut:])
	if lf.posts = lf.posts[:cut]; cut == 0 {
		lf.posts = nil
	}
	t.postBytes += (cap(right.posts) + cap(lf.posts) - before) * chunkBytes
}

// addTID adds tid to the ids of key i and reports whether it was new.
func (t *BTree) addTID(lf *leaf, i int, tid storage.TupleID) bool {
	v := lf.vals[i]
	if v&spilled == 0 {
		id := lf.id(v)
		if id == tid {
			return false
		}
		t.postBytes += lf.spill(i, min(id, tid), max(id, tid))
		return true
	}
	p := lf.postingOf(i)
	was := p.hi
	added, d := p.add(tid)
	t.postBytes += d
	lf.shiftSpans(i, p.hi-was)
	return added
}

// removeTID removes tid from the ids of key i. A posting left with one
// id that fits the value slot collapses back into it; gone tells that
// none is left.
func (t *BTree) removeTID(lf *leaf, i int, tid storage.TupleID) (removed, gone bool) {
	v := lf.vals[i]
	if v&spilled == 0 {
		gone = lf.id(v) == tid
		return gone, gone
	}
	p := lf.postingOf(i)
	was := p.hi
	removed, d := p.remove(tid)
	t.postBytes += d
	gone = p.lo == p.hi
	if p.hi-p.lo == 1 && lf.posts[p.lo].len() == 1 {
		if v, ok := lf.slot(lf.posts[p.lo].first); ok {
			p.hi--
			t.postBytes += deleteChunk(&lf.posts, p.lo)
			lf.vals[i] = v
		}
	}
	lf.shiftSpans(i, p.hi-was)
	return removed, gone
}

// Remove deletes tid from key's ids. A key left without ids is deleted
// and its bytes zeroed; a leaf left without keys is unlinked and freed.
func (t *BTree) Remove(key []byte, tid storage.TupleID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.remove(t.root, key, tid)
	// An inner root left with one child hands the root to it.
	for {
		in, ok := t.root.(*inner)
		if !ok || in.keys.n > 0 {
			break
		}
		t.root = in.kids[0]
		t.dropInner(in)
	}
}

// remove descends to key and reports whether n ended up empty — the
// caller then drops it (the root leaf alone may stay empty).
func (t *BTree) remove(n node, key []byte, tid storage.TupleID) (empty bool) {
	switch nd := n.(type) {
	case *leaf:
		i, found := nd.keys.search(key)
		if !found {
			return false
		}
		removed, gone := t.removeTID(nd, i, tid)
		if removed {
			t.n--
		}
		if !gone {
			return false
		}
		nd.keys.remove(i)
		copy(nd.vals[i:nd.keys.n], nd.vals[i+1:nd.keys.n+1])
		nd.vals[nd.keys.n] = 0
		t.nkeys--
		if nd.keys.n > 0 {
			return false
		}
		t.arenaBytes -= cap(nd.keys.arena)
		nd.keys.arena = nil
		if nd != t.root {
			if nd.prev != nil {
				nd.prev.next = nd.next
			}
			if nd.next != nil {
				nd.next.prev = nd.prev
			}
			t.leaves--
		}
		return true
	case *inner:
		ci := nd.childFor(key)
		if !t.remove(nd.kids[ci], key, tid) {
			return false
		}
		if nd.keys.n == 0 {
			// Its only child is gone. (Never the root: an inner root has
			// two children at least.)
			t.dropInner(nd)
			return true
		}
		// Drop the child and the separator to its left (to its right for
		// the first child): the neighbours' bounds still hold.
		copy(nd.kids[ci:nd.keys.n], nd.kids[ci+1:nd.keys.n+1])
		nd.kids[nd.keys.n] = nil
		nd.keys.remove(max(ci-1, 0))
	}
	return false
}

func (t *BTree) dropInner(in *inner) {
	t.inners--
	t.arenaBytes -= cap(in.keys.arena)
}

// seekLeaf returns the leaf that would hold key and the in-leaf index of
// the first entry >= key.
func (t *BTree) seekLeaf(key []byte) (*leaf, int, bool) {
	n := t.root
	for {
		switch nd := n.(type) {
		case *inner:
			n = nd.kids[nd.childFor(key)]
		case *leaf:
			i, found := nd.keys.search(key)
			return nd, i, found
		}
	}
}

// tidBufs lends Exact and Range the buffer they decode postings into: a
// call holds one until it returns, so calls in a row allocate none.
var tidBufs = sync.Pool{New: func() any { return new([]storage.TupleID) }}

// Exact calls fn with the ids stored under key, ascending, if any,
// decoded into a buffer the call holds. The slice must not be retained
// or modified.
func (t *BTree) Exact(key []byte, fn func(tids []storage.TupleID)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if lf, i, found := t.seekLeaf(key); found {
		buf := tidBufs.Get().(*[]storage.TupleID)
		*buf = lf.appendTIDs((*buf)[:0], i)
		fn(*buf)
		tidBufs.Put(buf)
	}
}

// AppendExact appends the ids stored under key, ascending, to dst.
func (t *BTree) AppendExact(dst []storage.TupleID, key []byte) []storage.TupleID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if lf, i, found := t.seekLeaf(key); found {
		dst = lf.appendTIDs(dst, i)
	}
	return dst
}

// Range iterates entries with lo <= key < hi (hi nil = unbounded),
// calling fn per key with its ids, ascending; fn returning false stops.
// Keys and id slices must not be retained or modified: postings are
// decoded into one buffer the call holds and reuses from key to key.
func (t *BTree) Range(lo, hi []byte, fn func(key []byte, tids []storage.TupleID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	buf := tidBufs.Get().(*[]storage.TupleID)
	t.scan(lo, hi, func(lf *leaf, i int) bool {
		*buf = lf.appendTIDs((*buf)[:0], i)
		return fn(lf.keys.key(i), *buf)
	})
	tidBufs.Put(buf)
}

// AppendRange appends the ids of every key with lo <= key < hi (hi nil =
// unbounded) to dst, key by key.
func (t *BTree) AppendRange(dst []storage.TupleID, lo, hi []byte) []storage.TupleID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.scan(lo, hi, func(lf *leaf, i int) bool {
		dst = lf.appendTIDs(dst, i)
		return true
	})
	return dst
}

// scan calls fn for every key with lo <= key < hi in key order, until fn
// returns false. The caller holds t.mu.
func (t *BTree) scan(lo, hi []byte, fn func(lf *leaf, i int) bool) {
	lf, i, _ := t.seekLeaf(lo)
	for ; lf != nil; lf, i = lf.next, 0 {
		for ; i < lf.keys.n; i++ {
			if hi != nil && bytes.Compare(lf.keys.key(i), hi) >= 0 {
				return
			}
			if !fn(lf, i) {
				return
			}
		}
	}
}

// Clear drops the whole tree content.
func (t *BTree) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.root, t.counts = &leaf{}, counts{leaves: 1}
}

// Entry is one (key, tuple id) pair of a run handed to BuildBTree.
type Entry struct {
	Key []byte
	TID storage.TupleID
}

// CompareEntries orders entries by key, then tuple id — the order
// BuildBTree expects.
func CompareEntries(a, b Entry) int {
	if c := bytes.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.TID, b.TID)
}

func errKeyLen(key []byte) error {
	return fmt.Errorf("index: a %d-byte key, over the B+tree's %d", len(key), maxKeyLen)
}

// ErrUnsortedRun is returned by BuildBTree for a run out of order.
var ErrUnsortedRun = errors.New("index: bulk-build run is not sorted")

// BuildBTree builds a tree from a run sorted by CompareEntries (repeated
// pairs count once), bottom-up: every leaf but the last is full and every
// arena and posting exactly sized. It answers every Exact and Range as a
// tree grown by Add over the same pairs would.
func BuildBTree(run []Entry) (*BTree, error) {
	if !slices.IsSortedFunc(run, CompareEntries) {
		return nil, ErrUnsortedRun
	}
	for _, e := range run {
		if len(e.Key) > maxKeyLen {
			return nil, errKeyLen(e.Key)
		}
	}
	t := &BTree{}
	// level is the row of nodes under construction with each node's
	// smallest key — the separator its parent files it under.
	type built struct {
		n   node
		min []byte
	}
	var level []built
	var last *leaf
	var ids []storage.TupleID // one key's ids, deduplicated
	for i := 0; i < len(run); {
		lf := &leaf{prev: last}
		// First pass: the leaf's extent in the run, its key bytes, its
		// base (the first lone id) and the chunks its postings take.
		end, size, nchunks, based := i, 0, 0, false
		for nk := 0; end < len(run) && nk < fanout && size+len(run[end].Key) <= arenaMax; nk++ {
			k, n := run[end].Key, 0
			size += len(k)
			for start := end; end < len(run) && bytes.Equal(run[end].Key, k); end++ {
				if end == start || run[end].TID != run[end-1].TID {
					n++
				}
			}
			if n == 1 && !based {
				lf.base, based = run[end-1].TID, true
			}
			if _, ok := lf.slot(run[end-1].TID); n > 1 || !ok {
				nchunks += (n + chunkIDs - 1) / chunkIDs
			}
		}
		lf.keys.arena = alloc[byte](size)
		if nchunks > 0 {
			lf.posts = alloc[chunk](nchunks)
		}
		for i < end {
			j := i + 1
			for j < end && bytes.Equal(run[j].Key, run[i].Key) {
				j++
			}
			k := lf.keys.n
			lf.keys.push(run[i].Key)
			if v, ok := lf.slot(run[i].TID); ok && run[i].TID == run[j-1].TID {
				lf.vals[k] = v
				t.n++
			} else {
				ids = ids[:0]
				for _, e := range run[i:j] {
					if len(ids) == 0 || ids[len(ids)-1] != e.TID {
						ids = append(ids, e.TID)
					}
				}
				t.n += len(ids)
				lo := len(lf.posts)
				for rest := ids; len(rest) > 0; rest = rest[min(chunkIDs, len(rest)):] {
					var c chunk
					t.postBytes += c.pack(rest[:min(chunkIDs, len(rest))], 0)
					lf.posts = append(lf.posts, c)
				}
				lf.vals[k] = spilled | uint32(lo)
			}
			i = j
		}
		t.nkeys += lf.keys.n
		t.arenaBytes += cap(lf.keys.arena)
		t.postBytes += cap(lf.posts) * chunkBytes
		t.leaves++
		if last != nil {
			last.next = lf
		}
		last = lf
		level = append(level, built{lf, lf.keys.key(0)})
	}
	if len(level) == 0 {
		return NewBTree(), nil
	}
	for len(level) > 1 {
		var up []built
		for len(level) > 0 {
			// A node takes children while their separators fit it.
			g, size := 1, 0
			for ; g < min(fanout, len(level)) && size+len(level[g].min) <= arenaMax; g++ {
				size += len(level[g].min)
			}
			group := level[:g]
			level = level[g:]
			in := &inner{}
			in.keys.arena = alloc[byte](size)
			for j, b := range group {
				in.kids[j] = b.n
				if j > 0 {
					in.keys.push(b.min)
				}
			}
			t.arenaBytes += cap(in.keys.arena)
			t.inners++
			up = append(up, built{in, group[0].min})
		}
		level = up
	}
	t.root = level[0].n
	return t, nil
}

// PrefixSuccessor returns the smallest byte string greater than every
// string having p as a prefix, or nil when p is all 0xFF (unbounded).
func PrefixSuccessor(p []byte) []byte {
	out := append([]byte(nil), p...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}
