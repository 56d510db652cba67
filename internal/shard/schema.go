package shard

import (
	"fmt"
	"strings"
	"sync"

	"instantdb/internal/query"
)

// tableShape is the routing-relevant slice of one table's schema: its
// column order (for INSERTs without a column list, and as the input
// columns of a scattered SELECT's query.Shape) and primary key.
type tableShape struct {
	name string
	cols []string // lowercase, declaration order
	pk   string   // lowercase primary-key column, "" if none
}

// Schema is the router's mirror of the shards' catalog: just enough
// shape (column order, primary keys) to route statements, learned from
// the shards' own append-only DDL script (OpSchema) and kept current as
// the router broadcasts DDL. The shards stay authoritative — the mirror
// locates primary keys, names a table's columns and knows the declared
// purposes; it never checks types.
type Schema struct {
	mu       sync.RWMutex
	tables   map[string]*tableShape
	purposes map[string]bool // declared purpose names, lowercase
	stmts    []string        // raw statements, in application order
}

// NewSchema returns an empty mirror.
func NewSchema() *Schema {
	return &Schema{tables: make(map[string]*tableShape), purposes: builtinPurposes()}
}

// builtinPurposes is the purpose every catalog starts with.
func builtinPurposes() map[string]bool { return map[string]bool{"full": true} }

// ApplyScript parses a full catalog DDL script and mirrors it,
// replacing the current state.
func (s *Schema) ApplyScript(script string) error {
	stmts, texts, err := query.ParseScript(script)
	if err != nil {
		return fmt.Errorf("shard: schema script: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables = make(map[string]*tableShape)
	s.purposes = builtinPurposes()
	for _, st := range stmts {
		s.applyLocked(st)
	}
	s.stmts = texts
	return nil
}

// ApplyStmt mirrors one DDL statement the router just broadcast.
func (s *Schema) ApplyStmt(st query.Statement, raw string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyLocked(st)
	s.stmts = append(s.stmts, strings.TrimSpace(raw))
}

func (s *Schema) applyLocked(st query.Statement) {
	switch d := st.(type) {
	case *query.CreateTable:
		sh := &tableShape{name: strings.ToLower(d.Name)}
		for _, c := range d.Columns {
			name := strings.ToLower(c.Name)
			sh.cols = append(sh.cols, name)
			if c.PrimaryKey {
				sh.pk = name
			}
		}
		s.tables[sh.name] = sh
	case *query.DropTable:
		delete(s.tables, strings.ToLower(d.Name))
	case *query.DeclarePurpose:
		s.purposes[strings.ToLower(d.Name)] = true
	}
}

// hasPurpose reports whether name is a declared purpose. Purposes are
// never dropped, so a name the mirror knows stays valid.
func (s *Schema) hasPurpose(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.purposes[strings.ToLower(name)]
}

// table returns the shape of a table, or nil if unknown.
func (s *Schema) table(name string) *tableShape {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[strings.ToLower(name)]
}

// TableNames returns the mirrored table names, unordered.
func (s *Schema) TableNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	return out
}

// Script renders the mirrored DDL back as a script (OpSchema replies
// from the router).
func (s *Schema) Script() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var b strings.Builder
	for _, st := range s.stmts {
		b.WriteString(st)
		if !strings.HasSuffix(st, ";") {
			b.WriteString(";")
		}
		b.WriteString("\n")
	}
	return b.String()
}
