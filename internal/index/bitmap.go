package index

import (
	"math/bits"
	"sync"

	"instantdb/internal/gentree"
	"instantdb/internal/storage"
)

// Bitset is a growable bitset over TupleIDs.
type Bitset struct {
	words []uint64
}

// Set sets bit tid.
func (b *Bitset) Set(tid storage.TupleID) {
	w := int(tid / 64)
	for len(b.words) <= w {
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << (tid % 64)
}

// Clear clears bit tid.
func (b *Bitset) Clear(tid storage.TupleID) {
	w := int(tid / 64)
	if w < len(b.words) {
		b.words[w] &^= 1 << (tid % 64)
	}
}

// Has reports whether bit tid is set.
func (b *Bitset) Has(tid storage.TupleID) bool {
	w := int(tid / 64)
	return w < len(b.words) && b.words[w]&(1<<(tid%64)) != 0
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Or merges other into b.
func (b *Bitset) Or(other *Bitset) {
	for len(b.words) < len(other.words) {
		b.words = append(b.words, 0)
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// And intersects b with other.
func (b *Bitset) And(other *Bitset) {
	for i := range b.words {
		if i < len(other.words) {
			b.words[i] &= other.words[i]
		} else {
			b.words[i] = 0
		}
	}
}

// ForEach calls fn for every set bit in ascending order; fn returning
// false stops.
func (b *Bitset) ForEach(fn func(storage.TupleID) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(storage.TupleID(wi*64 + bit)) {
				return
			}
			w &^= 1 << bit
		}
	}
}

// Bitmap is the OLAP-style degradation-aware index: one bitset per
// generalization-tree node. A tuple is registered under its current node;
// a degradation step clears the child bit and sets the ancestor bit. A
// predicate node's qualifying set is the OR over its subtree. Safe for
// concurrent use.
type Bitmap struct {
	mu   sync.RWMutex
	tree *gentree.Tree
	sets map[gentree.NodeID]*Bitset
}

// NewBitmap builds a bitmap index over a tree domain.
func NewBitmap(tree *gentree.Tree) *Bitmap {
	return &Bitmap{tree: tree, sets: make(map[gentree.NodeID]*Bitset)}
}

// Add registers tid under node.
func (bm *Bitmap) Add(node gentree.NodeID, tid storage.TupleID) {
	bm.mu.Lock()
	defer bm.mu.Unlock()
	s, ok := bm.sets[node]
	if !ok {
		s = &Bitset{}
		bm.sets[node] = s
	}
	s.Set(tid)
}

// Remove unregisters tid from node.
func (bm *Bitmap) Remove(node gentree.NodeID, tid storage.TupleID) {
	bm.mu.Lock()
	defer bm.mu.Unlock()
	if s, ok := bm.sets[node]; ok {
		s.Clear(tid)
	}
}

// Move reflects one degradation step: tid leaves from and joins to.
func (bm *Bitmap) Move(from, to gentree.NodeID, tid storage.TupleID) {
	bm.mu.Lock()
	defer bm.mu.Unlock()
	if s, ok := bm.sets[from]; ok {
		s.Clear(tid)
	}
	s, ok := bm.sets[to]
	if !ok {
		s = &Bitset{}
		bm.sets[to] = s
	}
	s.Set(tid)
}

// QuerySubtree returns the OR of the bitsets of node and all its
// descendants — the tuples whose current value generalizes to node.
func (bm *Bitmap) QuerySubtree(node gentree.NodeID) *Bitset {
	bm.mu.RLock()
	defer bm.mu.RUnlock()
	out := &Bitset{}
	var walk func(n gentree.NodeID)
	walk = func(n gentree.NodeID) {
		if s, ok := bm.sets[n]; ok {
			out.Or(s)
		}
		for _, c := range bm.tree.Children(n) {
			walk(c)
		}
	}
	walk(node)
	return out
}

// GTIndex is the degradation-aware posting index: one sorted TupleID
// posting per generalization-tree node. Degradation is one posting move;
// a predicate at any accuracy level is one subtree collection. Safe for
// concurrent use.
type GTIndex struct {
	mu   sync.RWMutex
	tree *gentree.Tree
	// postings holds each node's posting as a chunk table of its own.
	postings map[gentree.NodeID][]chunk
}

// NewGTIndex builds a GT posting index over a tree domain.
func NewGTIndex(tree *gentree.Tree) *GTIndex {
	return &GTIndex{tree: tree, postings: make(map[gentree.NodeID][]chunk)}
}

// Add registers tid under node.
func (g *GTIndex) Add(node gentree.NodeID, tid storage.TupleID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.addLocked(node, tid)
}

func (g *GTIndex) addLocked(node gentree.NodeID, tid storage.TupleID) {
	tab := g.postings[node]
	p := whole(&tab)
	p.add(tid)
	g.postings[node] = tab
}

// Remove unregisters tid from node.
func (g *GTIndex) Remove(node gentree.NodeID, tid storage.TupleID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.removeLocked(node, tid)
}

// removeLocked drops a node whose posting empties.
func (g *GTIndex) removeLocked(node gentree.NodeID, tid storage.TupleID) {
	tab, ok := g.postings[node]
	if !ok {
		return
	}
	p := whole(&tab)
	p.remove(tid)
	if len(tab) == 0 {
		delete(g.postings, node)
	} else {
		g.postings[node] = tab
	}
}

// Move reflects one degradation step (child posting → ancestor posting).
func (g *GTIndex) Move(from, to gentree.NodeID, tid storage.TupleID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.removeLocked(from, tid)
	g.addLocked(to, tid)
}

// CollectSubtree appends every tuple registered at node or below to dst
// and returns it (ids may repeat across nodes only if the caller indexed
// them so; normal maintenance keeps one node per tuple).
func (g *GTIndex) CollectSubtree(node gentree.NodeID, dst []storage.TupleID) []storage.TupleID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var walk func(n gentree.NodeID)
	walk = func(n gentree.NodeID) {
		tab := g.postings[n]
		p := whole(&tab)
		dst = p.appendTo(dst)
		for _, c := range g.tree.Children(n) {
			walk(c)
		}
	}
	walk(node)
	return dst
}

// NodeCount returns how many nodes currently hold postings.
func (g *GTIndex) NodeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.postings)
}

// Len returns the total number of registered ids.
func (g *GTIndex) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, tab := range g.postings {
		p := whole(&tab)
		n += p.len()
	}
	return n
}
