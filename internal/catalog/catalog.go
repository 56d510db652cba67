// Package catalog holds InstantDB's schema metadata: generalization
// domains, life cycle policies, tables with stable and degradable
// columns, secondary indexes, and purposes (the paper's DECLARE PURPOSE
// accuracy declarations). The catalog is the authority every other layer
// consults: the storage engine for tuple layout, the degradation engine
// for policies, the planner for indexes and purposes.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"instantdb/internal/gentree"
	"instantdb/internal/lcp"
	"instantdb/internal/value"
)

// Catalog errors.
var (
	ErrExists   = errors.New("catalog: object already exists")
	ErrNotFound = errors.New("catalog: object not found")
	ErrInvalid  = errors.New("catalog: invalid definition")
)

// MaxDegradableColumns bounds the number of degradable columns per table;
// the storage engine packs the per-tuple state vector into a uint64.
const MaxDegradableColumns = 8

// StorageLayout selects how the storage engine applies a degradation step
// to a table's tuples (ablated in experiment B-STORE).
type StorageLayout uint8

const (
	// LayoutMove rewrites the tuple into the segment of its new tuple
	// state and zero-fills the old slot (the default; state-partitioned
	// storage, the paper's STk subsets).
	LayoutMove StorageLayout = iota
	// LayoutInPlace overwrites the degradable attribute inside its slot
	// when the new encoding fits, falling back to move.
	LayoutInPlace
)

// String returns the DDL keyword of the layout.
func (l StorageLayout) String() string {
	if l == LayoutInPlace {
		return "INPLACE"
	}
	return "MOVE"
}

// Column describes one attribute of a table.
type Column struct {
	// Name is the column identifier (stored lowercase).
	Name string
	// Kind is the declared SQL type. For degradable columns it must match
	// the domain's InsertKind.
	Kind value.Kind
	// Degradable marks columns governed by a life cycle policy.
	Degradable bool
	// Domain and Policy are set iff Degradable.
	Domain gentree.Domain
	Policy *lcp.Policy
	// NotNull forbids NULL at insert.
	NotNull bool
}

// Table is an immutable table definition. Mutation happens only through
// the Catalog (create/drop); readers may hold a *Table safely.
type Table struct {
	// ID is the dense table identifier assigned at creation.
	ID uint32
	// Name is the table identifier (stored lowercase).
	Name string
	// Columns in declaration order.
	Columns []Column
	// PrimaryKey is the column index of the primary key, or -1.
	PrimaryKey int
	// Layout selects the degradation storage strategy.
	Layout StorageLayout

	degradable []int // column indexes of degradable columns, in order
	names      []string
	byName     map[string]int
	tupleLCP   *lcp.TupleLCP
}

// ColumnIndex resolves a column name (case-insensitive) to its index.
func (t *Table) ColumnIndex(name string) (int, error) {
	if i, ok := t.byName[strings.ToLower(name)]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("%w: column %s.%s", ErrNotFound, t.Name, name)
}

// ColumnNames returns the column names in declaration order. The
// returned slice must not be modified.
func (t *Table) ColumnNames() []string { return t.names }

// DegradableColumns returns the indexes of the degradable columns in
// declaration order. The returned slice must not be modified.
func (t *Table) DegradableColumns() []int { return t.degradable }

// DegradablePos returns the position of column index col within the
// degradable column list, or -1 if col is stable.
func (t *Table) DegradablePos(col int) int {
	for i, c := range t.degradable {
		if c == col {
			return i
		}
	}
	return -1
}

// TupleLCP returns the product automaton over the table's degradable
// columns, or nil if the table has none.
func (t *Table) TupleLCP() *lcp.TupleLCP { return t.tupleLCP }

// IndexType enumerates the secondary index families (experiment B-IDX).
type IndexType uint8

const (
	// IndexBTree is an order-preserving B+tree. On degradable columns it
	// indexes the OrderKey of the stored form per accuracy level.
	IndexBTree IndexType = iota
	// IndexBitmap keeps one bitmap per generalization-tree node.
	IndexBitmap
	// IndexGT is the degradation-aware posting tree aligned with the GT.
	IndexGT
)

// String returns the DDL keyword of the index type.
func (t IndexType) String() string {
	switch t {
	case IndexBTree:
		return "BTREE"
	case IndexBitmap:
		return "BITMAP"
	case IndexGT:
		return "GT"
	default:
		return fmt.Sprintf("IndexType(%d)", uint8(t))
	}
}

// IndexDef describes a secondary index registered in the catalog.
type IndexDef struct {
	Name   string
	Table  string
	Column int
	Type   IndexType
}

// Purpose is a declared query purpose: a named accuracy vector mapping
// qualified columns to the accuracy level the purpose is allowed to see
// (paper §II: "the accuracy level k is chosen such that it reflects the
// declared purpose for querying the data").
type Purpose struct {
	Name string
	// Levels maps "table.column" (lowercase) to an accuracy level.
	// Columns absent from the map are served at their most accurate
	// computable state only if AllowUnlisted, else refused.
	Levels map[string]int
	// AllowUnlisted permits access to degradable columns not listed in
	// Levels at level 0. The built-in "full" purpose sets it.
	AllowUnlisted bool
}

// LevelFor returns the accuracy level this purpose grants on the given
// column. ok is false when the purpose does not grant access.
func (p *Purpose) LevelFor(table, column string) (level int, ok bool) {
	if l, found := p.Levels[strings.ToLower(table)+"."+strings.ToLower(column)]; found {
		return l, true
	}
	if p.AllowUnlisted {
		return 0, true
	}
	return 0, false
}

// FullAccess is the built-in purpose granting level-0 access everywhere.
// It models the paper's "most accurate state" default for services with
// an unrestricted purpose.
var FullAccess = &Purpose{Name: "full", Levels: map[string]int{}, AllowUnlisted: true}

// Catalog is the mutable schema registry. Safe for concurrent use.
type Catalog struct {
	mu       sync.RWMutex
	domains  map[string]gentree.Domain
	policies map[string]*lcp.Policy
	tables   map[string]*Table
	byID     map[uint32]*Table
	indexes  map[string]*IndexDef
	purposes map[string]*Purpose
	nextID   uint32
}

// New returns an empty catalog with the built-in "full" purpose.
func New() *Catalog {
	return &Catalog{
		domains:  make(map[string]gentree.Domain),
		policies: make(map[string]*lcp.Policy),
		tables:   make(map[string]*Table),
		byID:     make(map[uint32]*Table),
		indexes:  make(map[string]*IndexDef),
		purposes: map[string]*Purpose{"full": FullAccess},
		nextID:   1,
	}
}

// AddDomain registers a generalization domain.
func (c *Catalog) AddDomain(d gentree.Domain) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(d.Name())
	if _, ok := c.domains[key]; ok {
		return fmt.Errorf("%w: domain %s", ErrExists, d.Name())
	}
	c.domains[key] = d
	return nil
}

// Domain looks up a domain by name.
func (c *Catalog) Domain(name string) (gentree.Domain, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.domains[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: domain %s", ErrNotFound, name)
	}
	return d, nil
}

// AddPolicy registers a life cycle policy.
func (c *Catalog) AddPolicy(p *lcp.Policy) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(p.Name())
	if _, ok := c.policies[key]; ok {
		return fmt.Errorf("%w: policy %s", ErrExists, p.Name())
	}
	c.policies[key] = p
	return nil
}

// Policy looks up a policy by name.
func (c *Catalog) Policy(name string) (*lcp.Policy, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, ok := c.policies[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: policy %s", ErrNotFound, name)
	}
	return p, nil
}

// CreateTable validates and registers a table definition, assigning its
// ID and derived metadata.
func (c *Catalog) CreateTable(name string, cols []Column, primaryKey int, layout StorageLayout) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w: table %s has no columns", ErrInvalid, name)
	}
	t := &Table{
		Name:       strings.ToLower(name),
		Columns:    append([]Column(nil), cols...),
		PrimaryKey: primaryKey,
		Layout:     layout,
		byName:     make(map[string]int, len(cols)),
	}
	var policies []*lcp.Policy
	for i := range t.Columns {
		col := &t.Columns[i]
		col.Name = strings.ToLower(col.Name)
		if _, dup := t.byName[col.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate column %s.%s", ErrInvalid, name, col.Name)
		}
		t.byName[col.Name] = i
		t.names = append(t.names, col.Name)
		if !col.Degradable {
			if col.Domain != nil || col.Policy != nil {
				return nil, fmt.Errorf("%w: stable column %s.%s carries a domain/policy", ErrInvalid, name, col.Name)
			}
			continue
		}
		if col.Domain == nil || col.Policy == nil {
			return nil, fmt.Errorf("%w: degradable column %s.%s needs a domain and a policy", ErrInvalid, name, col.Name)
		}
		if col.Policy.Domain() != col.Domain {
			return nil, fmt.Errorf("%w: column %s.%s: policy %s is over domain %s, column uses %s",
				ErrInvalid, name, col.Name, col.Policy.Name(), col.Policy.Domain().Name(), col.Domain.Name())
		}
		if col.Kind != col.Domain.InsertKind() {
			return nil, fmt.Errorf("%w: column %s.%s declared %s but domain %s ingests %s",
				ErrInvalid, name, col.Name, col.Kind, col.Domain.Name(), col.Domain.InsertKind())
		}
		t.degradable = append(t.degradable, i)
		policies = append(policies, col.Policy)
	}
	// The storage engine packs the per-tuple state vector into 8 bytes.
	if len(t.degradable) > MaxDegradableColumns {
		return nil, fmt.Errorf("%w: table %s has %d degradable columns, max %d",
			ErrInvalid, name, len(t.degradable), MaxDegradableColumns)
	}
	if primaryKey != -1 {
		if primaryKey < 0 || primaryKey >= len(cols) {
			return nil, fmt.Errorf("%w: table %s: primary key column %d out of range", ErrInvalid, name, primaryKey)
		}
		if t.Columns[primaryKey].Degradable {
			return nil, fmt.Errorf("%w: table %s: primary key cannot be degradable", ErrInvalid, name)
		}
	}
	if len(policies) > 0 {
		tl, err := lcp.NewTuple(policies...)
		if err != nil {
			return nil, err
		}
		t.tupleLCP = tl
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[t.Name]; ok {
		return nil, fmt.Errorf("%w: table %s", ErrExists, name)
	}
	t.ID = c.nextID
	c.nextID++
	c.tables[t.Name] = t
	c.byID[t.ID] = t
	return t, nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: table %s", ErrNotFound, name)
	}
	return t, nil
}

// TableByID looks up a table by its numeric ID.
func (c *Catalog) TableByID(id uint32) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: table #%d", ErrNotFound, id)
	}
	return t, nil
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DropTable removes a table and its indexes.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	t, ok := c.tables[key]
	if !ok {
		return fmt.Errorf("%w: table %s", ErrNotFound, name)
	}
	delete(c.tables, key)
	delete(c.byID, t.ID)
	for iname, def := range c.indexes {
		if def.Table == key {
			delete(c.indexes, iname)
		}
	}
	return nil
}

// AddIndex registers a secondary index definition.
func (c *Catalog) AddIndex(def IndexDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	def.Name = strings.ToLower(def.Name)
	def.Table = strings.ToLower(def.Table)
	if _, ok := c.indexes[def.Name]; ok {
		return fmt.Errorf("%w: index %s", ErrExists, def.Name)
	}
	t, ok := c.tables[def.Table]
	if !ok {
		return fmt.Errorf("%w: table %s", ErrNotFound, def.Table)
	}
	if def.Column < 0 || def.Column >= len(t.Columns) {
		return fmt.Errorf("%w: index %s: column %d out of range", ErrInvalid, def.Name, def.Column)
	}
	col := t.Columns[def.Column]
	if (def.Type == IndexBitmap || def.Type == IndexGT) && !col.Degradable {
		return fmt.Errorf("%w: index %s: %s indexes require a degradable column", ErrInvalid, def.Name, def.Type)
	}
	c.indexes[def.Name] = &def
	return nil
}

// Indexes returns the index definitions on a table, sorted by name.
func (c *Catalog) Indexes(table string) []IndexDef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []IndexDef
	for _, def := range c.indexes {
		if def.Table == strings.ToLower(table) {
			out = append(out, *def)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DropIndex removes an index definition.
func (c *Catalog) DropIndex(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.indexes[key]; !ok {
		return fmt.Errorf("%w: index %s", ErrNotFound, name)
	}
	delete(c.indexes, key)
	return nil
}

// DeclarePurpose registers (or replaces) a purpose. Levels are validated
// against the catalog: each key must name an existing degradable column
// and a level its domain defines.
func (c *Catalog) DeclarePurpose(p *Purpose) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(p.Name)
	if key == "full" {
		return fmt.Errorf("%w: purpose full is built in", ErrExists)
	}
	for qual, level := range p.Levels {
		parts := strings.SplitN(qual, ".", 2)
		if len(parts) != 2 {
			return fmt.Errorf("%w: purpose %s: %q is not table.column", ErrInvalid, p.Name, qual)
		}
		t, ok := c.tables[parts[0]]
		if !ok {
			return fmt.Errorf("%w: purpose %s: table %s", ErrNotFound, p.Name, parts[0])
		}
		ci, ok := t.byName[parts[1]]
		if !ok {
			return fmt.Errorf("%w: purpose %s: column %s", ErrNotFound, p.Name, qual)
		}
		col := t.Columns[ci]
		if !col.Degradable {
			return fmt.Errorf("%w: purpose %s: column %s is stable", ErrInvalid, p.Name, qual)
		}
		if level < 0 || level >= col.Domain.Levels() {
			return fmt.Errorf("%w: purpose %s: level %d outside domain %s", ErrInvalid, p.Name, level, col.Domain.Name())
		}
	}
	c.purposes[key] = p
	return nil
}

// Purpose looks up a purpose by name.
func (c *Catalog) Purpose(name string) (*Purpose, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, ok := c.purposes[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: purpose %s", ErrNotFound, name)
	}
	return p, nil
}

// Purposes returns all declared purposes sorted by name.
func (c *Catalog) Purposes() []*Purpose {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Purpose, 0, len(c.purposes))
	for _, p := range c.purposes {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
