package gentree

import (
	"fmt"
	"sort"
	"strings"

	"instantdb/internal/value"
)

// NodeID identifies a node of a Tree domain. IDs are dense, start at 1,
// and are stable for the lifetime of the tree. 0 is never a valid node.
type NodeID uint32

// InvalidNode is the zero NodeID.
const InvalidNode NodeID = 0

// storedNodeBase displaces node ids in their stored (persisted)
// representation. Dense small integers would make the encoded stored
// form byte-indistinguishable from other small integers in raw pages and
// log records (tuple ids, counters), defeating forensic audits of
// scrubbed values. The value codec writes an INT as a zig-zag varint,
// and the base makes every tree stored form a 5-byte varint, a width no
// integer of magnitude below 2^27 shares.
const storedNodeBase int64 = 0x1DB0_0000

// NodeToStored boxes a node id into its stored representation.
func NodeToStored(n NodeID) value.Value { return value.Int(storedNodeBase + int64(n)) }

// StoredToNode unboxes a stored representation. ok is false when v is
// not a plausible stored node id.
func StoredToNode(v value.Value) (NodeID, bool) {
	if v.Kind() != value.KindInt {
		return InvalidNode, false
	}
	raw := v.Int() - storedNodeBase
	if raw <= 0 || raw > int64(^uint32(0)) {
		return InvalidNode, false
	}
	return NodeID(raw), true
}

type treeNode struct {
	id       NodeID
	value    string
	level    int
	parent   NodeID
	children []NodeID
}

// Tree is an explicit generalization tree (the paper's Figure 1). Every
// leaf sits at level 0 and every root-bound path has exactly Levels()
// nodes, so the accuracy level of a node equals its height. Node identity
// is positional: two distinct cities named "Paris" under different regions
// are distinct nodes rendering to the same value.
//
// The stored representation of a tree-domain attribute is the NodeID of
// its current node, boxed as value.Int. Degrading walks the parent chain.
type Tree struct {
	name       string
	levelNames []string
	nodes      []treeNode // index = NodeID (0 unused)
	roots      []NodeID
	byValue    []map[string][]NodeID // per level: rendered value -> nodes
}

// TreeBuilder assembles a Tree from leaf-to-root paths.
type TreeBuilder struct {
	t   *Tree
	err error
}

// NewTreeBuilder starts a tree domain with the given catalog name and
// level names ordered from most accurate to most general (e.g., "address",
// "city", "region", "country").
func NewTreeBuilder(name string, levelNames ...string) *TreeBuilder {
	b := &TreeBuilder{t: &Tree{
		name:       name,
		levelNames: append([]string(nil), levelNames...),
		nodes:      make([]treeNode, 1), // id 0 unused
	}}
	if len(levelNames) < 2 {
		b.err = fmt.Errorf("gentree: tree %q needs at least 2 levels", name)
		return b
	}
	b.t.byValue = make([]map[string][]NodeID, len(levelNames))
	for i := range b.t.byValue {
		b.t.byValue[i] = make(map[string][]NodeID)
	}
	return b
}

// AddPath registers one full path from leaf to root; values[0] is the
// level-0 (accurate) value and values[len-1] the most general. Interior
// nodes shared with previously added paths (same value under the same
// ancestors) are reused, so calling AddPath("21 rue X", "Paris", "IdF",
// "France") and AddPath("5 av Y", "Paris", "IdF", "France") yields one
// "Paris" node with two children.
func (b *TreeBuilder) AddPath(values ...string) *TreeBuilder {
	if b.err != nil {
		return b
	}
	t := b.t
	if len(values) != len(t.levelNames) {
		b.err = fmt.Errorf("gentree: tree %q: path has %d values, want %d",
			t.name, len(values), len(t.levelNames))
		return b
	}
	// Walk root-down, reusing existing nodes.
	parent := InvalidNode
	top := len(values) - 1
	for lvl := top; lvl >= 0; lvl-- {
		v := values[lvl]
		var found NodeID
		if parent == InvalidNode {
			for _, r := range t.roots {
				if t.nodes[r].value == v {
					found = r
					break
				}
			}
		} else {
			for _, c := range t.nodes[parent].children {
				if t.nodes[c].value == v {
					found = c
					break
				}
			}
		}
		if found == InvalidNode {
			id := NodeID(len(t.nodes))
			t.nodes = append(t.nodes, treeNode{id: id, value: v, level: lvl, parent: parent})
			if parent == InvalidNode {
				t.roots = append(t.roots, id)
			} else {
				t.nodes[parent].children = append(t.nodes[parent].children, id)
			}
			t.byValue[lvl][v] = append(t.byValue[lvl][v], id)
			found = id
		} else if lvl == 0 {
			b.err = fmt.Errorf("gentree: tree %q: duplicate leaf path ending at %q", t.name, v)
			return b
		}
		parent = found
	}
	return b
}

// Build finalizes the tree. It fails if no paths were added or any AddPath
// reported an error.
func (b *TreeBuilder) Build() (*Tree, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.t.nodes) == 1 {
		return nil, fmt.Errorf("gentree: tree %q has no paths", b.t.name)
	}
	return b.t, nil
}

// MustBuild is Build for static fixtures; it panics on error.
func (b *TreeBuilder) MustBuild() *Tree {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements Domain.
func (t *Tree) Name() string { return t.name }

// Levels implements Domain.
func (t *Tree) Levels() int { return len(t.levelNames) }

// LevelName implements Domain.
func (t *Tree) LevelName(level int) string {
	if level < 0 || level >= len(t.levelNames) {
		return fmt.Sprintf("level%d", level)
	}
	return t.levelNames[level]
}

// LevelByName implements Domain.
func (t *Tree) LevelByName(name string) (int, error) {
	for i, n := range t.levelNames {
		if strings.EqualFold(n, name) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: level %q of domain %s", ErrBadLevel, name, t.name)
}

// InsertKind implements Domain: tree domains ingest TEXT.
func (t *Tree) InsertKind() value.Kind { return value.KindText }

// ResolveInsert implements Domain: the accurate value must match exactly
// one leaf.
func (t *Tree) ResolveInsert(v value.Value) (value.Value, error) {
	if v.Kind() != value.KindText {
		return value.Null(), fmt.Errorf("gentree: tree %s stores TEXT, got %s", t.name, v.Kind())
	}
	ids := t.byValue[0][v.Text()]
	switch len(ids) {
	case 0:
		return value.Null(), fmt.Errorf("%w: leaf %q of %s", ErrUnknownValue, v.Text(), t.name)
	case 1:
		return NodeToStored(ids[0]), nil
	default:
		return value.Null(), fmt.Errorf("gentree: ambiguous leaf %q in %s", v.Text(), t.name)
	}
}

// Degrade implements Domain by walking the parent chain.
func (t *Tree) Degrade(stored value.Value, from, to int) (value.Value, error) {
	if err := checkSpan(t, from, to); err != nil {
		return value.Null(), err
	}
	n, err := t.nodeAt(stored, from)
	if err != nil {
		return value.Null(), err
	}
	for lvl := from; lvl < to; lvl++ {
		n = t.nodes[n].parent
		if n == InvalidNode {
			return value.Null(), fmt.Errorf("gentree: %s: broken parent chain at level %d", t.name, lvl)
		}
	}
	return NodeToStored(n), nil
}

// Render implements Domain.
func (t *Tree) Render(stored value.Value, level int) (value.Value, error) {
	n, err := t.nodeAt(stored, level)
	if err != nil {
		return value.Null(), err
	}
	return value.Text(t.nodes[n].value), nil
}

// Locate implements Domain.
func (t *Tree) Locate(v value.Value, level int) ([]value.Value, error) {
	if err := checkLevel(t, level); err != nil {
		return nil, err
	}
	if v.Kind() != value.KindText {
		return nil, fmt.Errorf("gentree: tree %s locates TEXT, got %s", t.name, v.Kind())
	}
	ids := t.byValue[level][v.Text()]
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: %q at level %s of %s", ErrUnknownValue, v.Text(), t.LevelName(level), t.name)
	}
	out := make([]value.Value, len(ids))
	for i, id := range ids {
		out[i] = NodeToStored(id)
	}
	return out, nil
}

// OrderKey implements Domain; tree nodes carry no order.
func (t *Tree) OrderKey(value.Value, int) (value.Value, error) {
	return value.Null(), ErrNotOrdered
}

func (t *Tree) nodeAt(stored value.Value, level int) (NodeID, error) {
	if err := checkLevel(t, level); err != nil {
		return InvalidNode, err
	}
	id, ok := StoredToNode(stored)
	if !ok {
		return InvalidNode, fmt.Errorf("gentree: %s stored form is not a node id (%s)", t.name, stored)
	}
	if int(id) >= len(t.nodes) {
		return InvalidNode, fmt.Errorf("%w: node %d of %s", ErrUnknownValue, id, t.name)
	}
	if t.nodes[id].level != level {
		return InvalidNode, fmt.Errorf("gentree: %s: node %d is at level %d, not %d",
			t.name, id, t.nodes[id].level, level)
	}
	return id, nil
}

// --- navigation API used by the GT-index and by tooling ---

// Root returns the roots of the tree (one per top-level value).
func (t *Tree) Roots() []NodeID { return append([]NodeID(nil), t.roots...) }

// Parent returns the parent of n, or InvalidNode for roots.
func (t *Tree) Parent(n NodeID) NodeID {
	if n == InvalidNode || int(n) >= len(t.nodes) {
		return InvalidNode
	}
	return t.nodes[n].parent
}

// Children returns the children of n in insertion order.
func (t *Tree) Children(n NodeID) []NodeID {
	if n == InvalidNode || int(n) >= len(t.nodes) {
		return nil
	}
	return append([]NodeID(nil), t.nodes[n].children...)
}

// NodeLevel returns the accuracy level of n, or -1 if n is invalid.
func (t *Tree) NodeLevel(n NodeID) int {
	if n == InvalidNode || int(n) >= len(t.nodes) {
		return -1
	}
	return t.nodes[n].level
}

// NodeValue returns the rendered value of n.
func (t *Tree) NodeValue(n NodeID) string {
	if n == InvalidNode || int(n) >= len(t.nodes) {
		return ""
	}
	return t.nodes[n].value
}

// NodeCount returns the number of nodes in the tree.
func (t *Tree) NodeCount() int { return len(t.nodes) - 1 }

// NodesAtLevel returns all node ids at the given level, sorted.
func (t *Tree) NodesAtLevel(level int) []NodeID {
	var out []NodeID
	for _, n := range t.nodes[1:] {
		if n.level == level {
			out = append(out, n.id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Ancestor returns the ancestor of n at the given (coarser) level.
func (t *Tree) Ancestor(n NodeID, level int) (NodeID, error) {
	cur := n
	for cur != InvalidNode && t.nodes[cur].level < level {
		cur = t.nodes[cur].parent
	}
	if cur == InvalidNode || t.nodes[cur].level != level {
		return InvalidNode, fmt.Errorf("gentree: no ancestor of node %d at level %d", n, level)
	}
	return cur, nil
}

// Path returns the rendered values from n up to its root.
func (t *Tree) Path(n NodeID) []string {
	var out []string
	for cur := n; cur != InvalidNode; cur = t.nodes[cur].parent {
		out = append(out, t.nodes[cur].value)
	}
	return out
}

// Dump renders the tree as an indented outline, level names first —
// the textual form of the paper's Figure 1. Intended for tooling output.
func (t *Tree) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "domain %s levels=%s\n", t.name, strings.Join(t.levelNames, ","))
	var walk func(n NodeID, depth int)
	walk = func(n NodeID, depth int) {
		fmt.Fprintf(&sb, "%s%s\n", strings.Repeat("  ", depth), t.nodes[n].value)
		for _, c := range t.nodes[n].children {
			walk(c, depth+1)
		}
	}
	for _, r := range t.roots {
		walk(r, 0)
	}
	return sb.String()
}

var _ Domain = (*Tree)(nil)
