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
// A B+tree key's tuple ids live in its leaf: the leaf packs every key's
// ids back to back in an id arena beside its key arena, the first id as
// a zigzag varint from the leaf's base id and each later one as a uvarint
// gap. A key that passes 128 ids moves them to a posting of its own — the
// one type the GT index uses too: chunks of up to 128 ascending ids, the
// first in the clear and the rest as uvarint gaps (posting.go) — and
// moves back inline when it drops to 64.
//
// Indexes are memory-resident, rebuilt from the heap at open: the
// persistent artifacts audited for non-recoverability are the page store
// and the log. Removal erases eagerly all the same: a BTree key whose last
// tuple id leaves is deleted and its key and id bytes zeroed, an inline
// posting that loses an id is re-packed with its vacated bytes zeroed, a
// leaf that empties is unlinked, a posting chunk shrinks in place with
// its vacated bytes zeroed and is zeroed and dropped with its last id.
// What the BTree does not do is merge underfull leaves: a leaf keeps its
// footprint until its last key is gone (BTree.Stats reports what is
// held).
//
// A node is sized to an allocator size class: arena offsets are 2 bytes,
// so a node's keys take at most 64 KiB, and so do a leaf's inline ids
// (an inline posting is held to a 64th of that). A leaf is 376 bytes in
// the 384-byte class, an inner node 1 184 in the 1 280-byte class.
package index

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
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

// packed is byte strings stored back to back in one arena: string i is
// arena[ends[i-1]:ends[i]]. A node's keys are one, in key order; a leaf's
// postings, one per key, are another.
type packed struct {
	n     int
	ends  [fanout]uint16
	arena []byte
}

func (k *packed) start(i int) int {
	if i == 0 {
		return 0
	}
	return int(k.ends[i-1])
}

func (k *packed) at(i int) []byte { return k.arena[k.start(i):k.ends[i]] }

// search returns the index of the first key >= key and whether it equals
// key.
func (k *packed) search(key []byte) (int, bool) {
	lo, hi := 0, k.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		switch c := bytes.Compare(k.at(m), key); {
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

// arenaCap sizes an arena that must hold need bytes in nkeys strings: room
// for a full node of strings of that mean length, so a node filled in key
// order allocates once and ends exactly full. Long strings get a quarter
// of headroom instead, up to the most a node holds.
func arenaCap(need, nkeys int) int {
	if est := (need + nkeys - 1) / nkeys * fanout; est <= arenaPresizeMax {
		return max(est, need)
	}
	return min(need+need/4, arenaMax)
}

// full reports whether a node that holds at most limit keys must split
// before it takes key.
func (k *packed) full(key []byte, limit int) bool {
	return k.n == limit || len(k.arena)+len(key) > arenaMax
}

// half returns where a split cuts the keys: at the first key that starts
// in the second half of the arena, and so that either side keeps one key
// at least. Neither side keeps more than half the bytes plus one key.
func (k *packed) half() int {
	i, _ := slices.BinarySearch(k.ends[:k.n-1], uint16(len(k.arena)/2))
	return min(i+1, k.n-1)
}

// insert places b at index i and returns the arena capacity gained.
func (k *packed) insert(i int, b []byte) int {
	start := k.start(i)
	copy(k.ends[i+1:k.n+1], k.ends[i:k.n])
	k.ends[i] = uint16(start)
	k.n++
	return k.set(i, b)
}

// set replaces string i with b, zeroing the bytes a shorter one vacates,
// and returns the arena capacity gained.
func (k *packed) set(i int, b []byte) int { return k.splice(i, 0, int(k.ends[i])-k.start(i), b) }

// splice replaces bytes [lo, hi) of string i with b, zeroing the bytes a
// shorter replacement vacates, and returns the arena capacity gained.
func (k *packed) splice(i, lo, hi int, b []byte) int {
	at := k.start(i)
	start, end, old := at+lo, at+hi, len(k.arena)
	d, grown := len(b)-(end-start), 0
	if need := old + d; need > cap(k.arena) {
		a := append(alloc[byte](arenaCap(need, k.n)), k.arena...)
		clear(k.arena)
		grown = cap(a) - cap(k.arena)
		k.arena = a
	}
	k.arena = k.arena[:max(old, old+d)]
	copy(k.arena[end+d:], k.arena[end:old])
	copy(k.arena[start:], b)
	clear(k.arena[old+d:])
	k.arena = k.arena[:old+d]
	ends := k.ends[i:k.n]
	for j := range ends {
		ends[j] += uint16(d)
	}
	return grown
}

// push appends b, which sorts after every string held, into an arena the
// bulk build has sized for it.
func (k *packed) push(b []byte) {
	k.arena = append(k.arena, b...)
	k.ends[k.n] = uint16(len(k.arena))
	k.n++
}

// remove deletes string i, zeroing the bytes it vacates.
func (k *packed) remove(i int) {
	k.set(i, nil)
	copy(k.ends[i:k.n-1], k.ends[i+1:k.n])
	k.n--
	k.ends[k.n] = 0
}

// moveTail moves strings [from, n) to the empty dst and truncates k to
// [0, upto), zeroing everything it gives up (upto < from drops strings in
// between: an inner split lifts its middle key out). It returns the
// capacity of dst's new arena.
func (k *packed) moveTail(dst *packed, upto, from int) int {
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

// inlineGaps bounds the gap bytes of an inline posting: with its first
// id, at any base, one takes at most a 64th of what 2-byte offsets reach,
// so a leaf's id arena never outgrows them.
const inlineGaps = arenaMax/fanout - binary.MaxVarintLen64

// appendInline appends ids (sorted, unique, at least one) in their inline
// form to dst: the first as a zigzag varint from base, each later one as
// a uvarint gap from its predecessor. It reports false, appending
// nothing, for more than chunkIDs ids or more than inlineGaps gap bytes.
func appendInline(dst []byte, base storage.TupleID, ids []storage.TupleID) ([]byte, bool) {
	if len(ids) > chunkIDs {
		return dst, false
	}
	n := 0
	for k := 1; k < len(ids); k++ {
		n += uvarintLen(uint64(ids[k] - ids[k-1]))
	}
	if n > inlineGaps {
		return dst, false
	}
	dst = binary.AppendVarint(dst, int64(ids[0]-base))
	for k := 1; k < len(ids); k++ {
		dst = binary.AppendUvarint(dst, uint64(ids[k]-ids[k-1]))
	}
	return dst, true
}

// leaf holds up to fanout keys and, in ids, a posting per key: inline,
// the key's tuple ids packed as appendInline writes them against base —
// every key of a unique index, and every key with up to chunkIDs ids —
// or, for a key whose bit is set in spills, the uvarint count of the
// chunks in posts that hold its ids instead. A key spills past chunkIDs
// ids and returns inline at chunkIDs/2.
type leaf struct {
	keys, ids packed
	spills    uint64
	// base is the id inline postings count their first id from: the
	// first id the leaf took while it held no key, or, after a split, the
	// first id of a middle key.
	base storage.TupleID
	// posts holds the chunks of every spilled posting of the leaf, one
	// run of chunks per key, in key order; nil when no key spilled.
	posts      []chunk
	prev, next *leaf
}

func (lf *leaf) spilled(i int) bool { return lf.spills>>i&1 != 0 }

// chunksBefore returns the index in posts of the first chunk of the
// postings of keys i and after.
func (lf *leaf) chunksBefore(i int) int {
	n := 0
	for m := lf.spills & (1<<i - 1); m != 0; m &= m - 1 {
		c, _ := binary.Uvarint(lf.ids.at(bits.TrailingZeros64(m)))
		n += int(c)
	}
	return n
}

// postingOf returns the posting of spilled key i.
func (lf *leaf) postingOf(i int) posting {
	lo := lf.chunksBefore(i)
	c, _ := binary.Uvarint(lf.ids.at(i))
	return posting{tab: &lf.posts, lo: lo, hi: lo + int(c)}
}

// appendTIDs appends the ids under key i to dst.
func (lf *leaf) appendTIDs(dst []storage.TupleID, i int) []storage.TupleID {
	if !lf.spilled(i) {
		enc := lf.ids.at(i)
		v, k := binary.Varint(enc)
		first := lf.base + storage.TupleID(v)
		return appendGaps(append(dst, first), first, enc[k:])
	}
	p := lf.postingOf(i)
	return p.appendTo(dst)
}

// setCount records that spilled key i's posting takes n chunks and
// returns the capacity gained.
func (lf *leaf) setCount(i, n int) int {
	var buf [binary.MaxVarintLen64]byte
	return lf.ids.set(i, binary.AppendUvarint(buf[:0], uint64(n)))
}

// inline stores ids as key i's inline posting, dropping the chunks of a
// spilled key, if they fit one. It returns the capacity gained and
// whether they did.
func (lf *leaf) inline(i int, ids []storage.TupleID) (int, bool) {
	var buf [inlineGaps + binary.MaxVarintLen64]byte
	enc, ok := appendInline(buf[:0], lf.base, ids)
	if !ok {
		return 0, false
	}
	d := 0
	if lf.spilled(i) {
		p := lf.postingOf(i)
		for ; p.hi > p.lo; p.hi-- {
			d += deleteChunk(p.tab, p.lo)
		}
		lf.spills &^= 1 << i
	}
	return d + lf.ids.set(i, enc), true
}

// spill moves the ids of inline key i, given as ids, to chunks of their
// own and returns the capacity gained.
func (lf *leaf) spill(i int, ids []storage.TupleID) int {
	at, n, d := lf.chunksBefore(i), 0, 0
	for rest := ids; len(rest) > 0; rest = rest[min(chunkIDs, len(rest)):] {
		var c chunk
		d += c.pack(rest[:min(chunkIDs, len(rest))], minEnc)
		d += insertChunk(&lf.posts, at+n, c)
		n++
	}
	lf.spills |= 1 << i
	return d + lf.setCount(i, n)
}

// rebase moves base to the first id of a middle inline key, re-encoding
// every inline posting into a new arena, and returns the capacity gained.
// A split calls it on both halves, so that a leaf whose keys' ids lie
// close together keeps its first ids short.
func (lf *leaf) rebase() int {
	n := lf.keys.n
	to := lf.base
	for j := range n {
		if i := (n/2 + j) % n; !lf.spilled(i) {
			v, _ := binary.Varint(lf.ids.at(i))
			to += storage.TupleID(v)
			break
		}
	}
	if to == lf.base {
		return 0
	}
	old := lf.ids
	a := alloc[byte](arenaCap(len(old.arena), n))
	for i := range n {
		enc := old.at(i)
		if !lf.spilled(i) {
			v, k := binary.Varint(enc)
			a = binary.AppendVarint(a, int64(lf.base+storage.TupleID(v)-to))
			enc = enc[k:]
		}
		a = append(a, enc...)
		lf.ids.ends[i] = uint16(len(a))
	}
	clear(old.arena)
	lf.ids.arena, lf.base = a, to
	return cap(a) - cap(old.arena)
}

type inner struct {
	// keys.at(i) is a lower bound of every key under kids[i+1] and
	// greater than every key under kids[i]; kids[:keys.n+1] are in use.
	keys packed
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
	leafBytes  = 384
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
// nodes, the capacity in bytes of key arenas, and that of postings: id
// arenas, chunk tables and chunk byte arrays.
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
	// Bytes is the heap the tree holds: nodes (offsets, child pointers)
	// at their size class, key and id arenas and spilled postings at the
	// capacity their allocations were rounded up to.
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
		return right, right.keys.at(0), added
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
		up := bytes.Clone(nd.keys.at(mid))
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
	low := uint64(1)<<i - 1
	target.spills = target.spills&low | target.spills&^low<<1
	if target.keys.n == 1 { // an empty leaf: no posting counts from base
		target.base = tid
	}
	var buf [binary.MaxVarintLen64]byte
	t.postBytes += target.ids.insert(i, binary.AppendVarint(buf[:0], int64(tid-target.base)))
	t.nkeys++
	return right, true
}

// splitLeaf moves keys [mid, n) of lf, with their postings, to the empty
// right and rebases both. Spilled postings are in key order, so the moved
// keys' chunks are the tail of lf's posts.
func (t *BTree) splitLeaf(lf, right *leaf, mid int) {
	cut := lf.chunksBefore(mid)
	t.arenaBytes += lf.keys.moveTail(&right.keys, mid, mid)
	t.postBytes += lf.ids.moveTail(&right.ids, mid, mid)
	right.spills, lf.spills = lf.spills>>mid, lf.spills&(1<<mid-1)
	if cut < len(lf.posts) {
		before := cap(lf.posts)
		right.posts = append(alloc[chunk](len(lf.posts)-cut), lf.posts[cut:]...)
		clear(lf.posts[cut:])
		if lf.posts = lf.posts[:cut]; cut == 0 {
			lf.posts = nil
		}
		t.postBytes += (cap(right.posts) + cap(lf.posts) - before) * chunkBytes
	}
	t.postBytes += lf.rebase() + right.rebase()
}

// addTID adds tid to the ids of key i and reports whether it was new.
func (t *BTree) addTID(lf *leaf, i int, tid storage.TupleID) bool {
	if lf.spilled(i) {
		p := lf.postingOf(i)
		was := p.hi
		added, d := p.add(tid)
		t.postBytes += d
		if p.hi != was {
			t.postBytes += lf.setCount(i, p.hi-p.lo)
		}
		return added
	}
	// Ids mostly arrive in insert order: one more gap at the end, past
	// the sum of the gaps held.
	enc := lf.ids.at(i)
	v, k := binary.Varint(enc)
	g, n := sumGaps(enc[k:])
	if last := lf.base + storage.TupleID(v) + storage.TupleID(g); tid > last {
		var b [binary.MaxVarintLen64]byte
		gap := binary.AppendUvarint(b[:0], uint64(tid-last))
		if n+1 < chunkIDs && len(enc)-k+len(gap) <= inlineGaps {
			t.postBytes += lf.ids.splice(i, len(enc), len(enc), gap)
			return true
		}
	}
	return t.repack(lf, i, tid, true)
}

// removeTID removes tid from the ids of key i; gone tells that none is
// left. A spilled posting left with chunkIDs/2 ids returns inline.
func (t *BTree) removeTID(lf *leaf, i int, tid storage.TupleID) (removed, gone bool) {
	if !lf.spilled(i) {
		// Ids mostly leave in insert order: the first goes, and the
		// first gap becomes the first id.
		enc := lf.ids.at(i)
		v, k := binary.Varint(enc)
		first := lf.base + storage.TupleID(v)
		switch {
		case tid < first:
			return false, false
		case len(enc) == k:
			return tid == first, tid == first
		case tid == first:
			g, w := binary.Uvarint(enc[k:])
			var b [binary.MaxVarintLen64]byte
			next := binary.AppendVarint(b[:0], int64(first+storage.TupleID(g)-lf.base))
			t.postBytes += lf.ids.splice(i, 0, k+w, next)
			return true, false
		}
		return t.repack(lf, i, tid, false), false
	}
	p := lf.postingOf(i)
	was := p.hi
	removed, d := p.remove(tid)
	t.postBytes += d
	if !removed || p.lo == p.hi {
		return removed, p.lo == p.hi
	}
	if p.hi != was {
		t.postBytes += lf.setCount(i, p.hi-p.lo)
	}
	if p.hi-p.lo <= chunkIDs/2 && p.len() <= chunkIDs/2 {
		var buf [chunkIDs / 2]storage.TupleID
		d, _ := lf.inline(i, p.appendTo(buf[:0]))
		t.postBytes += d
	}
	return true, false
}

// repack adds tid to (add) or removes it from the inline ids of key i —
// on a remove, more ids than tid alone — by decoding them, editing and
// packing them again, inline if they fit, else spilled, and reports
// whether they changed.
func (t *BTree) repack(lf *leaf, i int, tid storage.TupleID, add bool) bool {
	var buf [chunkIDs + 1]storage.TupleID
	ids := lf.appendTIDs(buf[:0], i)
	j, found := slices.BinarySearch(ids, tid)
	if found == add {
		return false
	}
	if add {
		ids = slices.Insert(ids, j, tid)
	} else {
		ids = slices.Delete(ids, j, j+1)
	}
	d, ok := lf.inline(i, ids)
	if !ok {
		// Fewer ids take fewer gap bytes, so only an add spills.
		d = lf.spill(i, ids)
	}
	t.postBytes += d
	return true
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
		nd.ids.remove(i)
		low := uint64(1)<<i - 1
		nd.spills = nd.spills&low | nd.spills>>1&^low
		t.nkeys--
		if nd.keys.n > 0 {
			return false
		}
		t.arenaBytes -= cap(nd.keys.arena)
		t.postBytes -= cap(nd.ids.arena)
		nd.keys.arena, nd.ids.arena = nil, nil
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
		return fn(lf.keys.at(i), *buf)
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
			if hi != nil && bytes.Compare(lf.keys.at(i), hi) >= 0 {
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
	// Scratch for one leaf: a key's ids, deduplicated, and the leaf's id
	// arena and chunks before they are copied to exactly sized arrays.
	var ids []storage.TupleID
	var enc []byte
	var posts []chunk
	for i := 0; i < len(run); {
		lf := &leaf{prev: last}
		// First pass: the leaf's extent in the run, its key bytes and
		// where each key's pairs start.
		var starts [fanout]int
		end, size, nk := i, 0, 0
		for ; end < len(run) && nk < fanout && size+len(run[end].Key) <= arenaMax; nk++ {
			k := run[end].Key
			size += len(k)
			starts[nk] = end
			for end < len(run) && bytes.Equal(run[end].Key, k) {
				end++
			}
		}
		lf.keys.arena = alloc[byte](size)
		lf.base = run[starts[nk/2]].TID
		enc = enc[:0]
		for k := range nk {
			j := end
			if k+1 < nk {
				j = starts[k+1]
			}
			lf.keys.push(run[i].Key)
			ids = ids[:0]
			for _, e := range run[i:j] {
				if len(ids) == 0 || ids[len(ids)-1] != e.TID {
					ids = append(ids, e.TID)
				}
			}
			t.n += len(ids)
			var ok bool
			if enc, ok = appendInline(enc, lf.base, ids); !ok {
				n := 0
				for rest := ids; len(rest) > 0; rest = rest[min(chunkIDs, len(rest)):] {
					var c chunk
					t.postBytes += c.pack(rest[:min(chunkIDs, len(rest))], 0)
					posts = append(posts, c)
					n++
				}
				enc = binary.AppendUvarint(enc, uint64(n))
				lf.spills |= 1 << k
			}
			lf.ids.ends[k] = uint16(len(enc))
			i = j
		}
		lf.ids.n = nk
		lf.ids.arena = append(alloc[byte](len(enc)), enc...)
		if len(posts) > 0 {
			lf.posts = append(alloc[chunk](len(posts)), posts...)
			clear(posts)
			posts = posts[:0]
		}
		t.postBytes += cap(lf.ids.arena)
		t.nkeys += lf.keys.n
		t.arenaBytes += cap(lf.keys.arena)
		t.postBytes += cap(lf.posts) * chunkBytes
		t.leaves++
		if last != nil {
			last.next = lf
		}
		last = lf
		level = append(level, built{lf, lf.keys.at(0)})
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
