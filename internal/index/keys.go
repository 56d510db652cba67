package index

import (
	"encoding/binary"
	"fmt"

	"instantdb/internal/gentree"
	"instantdb/internal/value"
)

// Key builders for the BTree. Three key spaces:
//
//   - Stable columns: the order-preserving encoding of the value
//     (value.AppendOrderedKey): exact and prefix-free within the
//     column's kind, an INT in its minimal bytes (an id below 2²⁴ takes
//     4). A predicate constant of another kind is converted to the
//     column's before it is encoded, as INT and FLOAT keys do not share
//     one order.
//   - Degradable tree-domain columns: the generalization path from root
//     to the tuple's current node, 4 bytes per node id. A predicate node
//     at any accuracy level covers exactly the keys having its path as a
//     prefix, so σP,k becomes one prefix range scan regardless of how
//     tuple states are mixed.
//   - Degradable scalar-domain columns: a level byte followed by the
//     order key of the stored form at that level (an INT bucket floor or
//     a TIME). Bucket nesting makes a level-k range predicate the union
//     of k+1 per-level range scans.

// StableKey encodes a stable column value.
func StableKey(v value.Value) []byte {
	return value.AppendOrderedKey(nil, v)
}

// TreePathKey encodes the root→node generalization path of a tree-domain
// stored form (a node id) at the given level.
func TreePathKey(tree *gentree.Tree, stored value.Value, level int) ([]byte, error) {
	n, ok := gentree.StoredToNode(stored)
	if !ok {
		return nil, fmt.Errorf("index: tree stored form must be a node id, got %s", stored)
	}
	if tree.NodeLevel(n) != level {
		return nil, fmt.Errorf("index: node %d is at level %d, not %d", n, tree.NodeLevel(n), level)
	}
	// Collect root→node ids.
	var chain []gentree.NodeID
	for cur := n; cur != gentree.InvalidNode; cur = tree.Parent(cur) {
		chain = append(chain, cur)
	}
	key := make([]byte, 0, len(chain)*4)
	for i := len(chain) - 1; i >= 0; i-- {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(chain[i]))
		key = append(key, b[:]...)
	}
	return key, nil
}

// TreePrefix returns the prefix range [lo, hi) covering the subtree of a
// predicate node (tuples at the node's level or any finer level beneath
// it).
func TreePrefix(tree *gentree.Tree, node gentree.NodeID) (lo, hi []byte) {
	var chain []gentree.NodeID
	for cur := node; cur != gentree.InvalidNode; cur = tree.Parent(cur) {
		chain = append(chain, cur)
	}
	lo = make([]byte, 0, len(chain)*4)
	for i := len(chain) - 1; i >= 0; i-- {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(chain[i]))
		lo = append(lo, b[:]...)
	}
	return lo, PrefixSuccessor(lo)
}

// ScalarLevelKey encodes (level, order key of the stored form) for a
// scalar (range or time) domain.
func ScalarLevelKey(d gentree.Domain, stored value.Value, level int) ([]byte, error) {
	ok, err := d.OrderKey(stored, level)
	if err != nil {
		return nil, err
	}
	key := append([]byte{byte(level)}, value.AppendOrderedKey(nil, ok)...)
	return key, nil
}

// ScalarLevelRange returns the key range [lo, hi) of entries at the given
// level whose order keys fall in [loVal, hiVal) (hiVal NULL = unbounded).
func ScalarLevelRange(level int, loVal, hiVal value.Value) (lo, hi []byte) {
	lo = append([]byte{byte(level)}, value.AppendOrderedKey(nil, loVal)...)
	if hiVal.IsNull() {
		return lo, PrefixSuccessor([]byte{byte(level)})
	}
	hi = append([]byte{byte(level)}, value.AppendOrderedKey(nil, hiVal)...)
	return lo, hi
}
