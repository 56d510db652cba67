package engine

import (
	"fmt"
	"strings"

	"instantdb/internal/catalog"
	"instantdb/internal/gentree"
	"instantdb/internal/lcp"
	"instantdb/internal/query"
	"instantdb/internal/value"
)

// execDDL executes a DDL statement. src is its text as written, persisted
// to catalog.sql.
func (db *DB) execDDL(st query.Statement, src string) error {
	switch s := st.(type) {
	case *query.CreateDomain:
		d, err := buildDomain(s)
		if err != nil {
			return err
		}
		if err := db.cat.AddDomain(d); err != nil {
			return err
		}
		return db.persistDDL(src)
	case *query.CreatePolicy:
		dom, err := db.cat.Domain(s.Domain)
		if err != nil {
			return err
		}
		p, err := buildPolicy(s, dom)
		if err != nil {
			return err
		}
		if err := db.cat.AddPolicy(p); err != nil {
			return err
		}
		return db.persistDDL(src)
	case *query.CreateTable:
		tbl, err := db.buildTable(s)
		if err != nil {
			return err
		}
		// Auto-index the primary key for uniqueness checks and point
		// lookups.
		if tbl.PrimaryKey >= 0 {
			def := catalog.IndexDef{Name: "pk_" + tbl.Name, Table: tbl.Name,
				Column: tbl.PrimaryKey, Type: catalog.IndexBTree}
			if err := db.cat.AddIndex(def); err != nil {
				return err
			}
			if err := db.buildIndexInst(def); err != nil {
				return err
			}
		}
		return db.persistDDL(src)
	case *query.CreateIndex:
		tbl, err := db.cat.Table(s.Table)
		if err != nil {
			return err
		}
		ci, err := tbl.ColumnIndex(s.Column)
		if err != nil {
			return err
		}
		var typ catalog.IndexType
		switch s.Using {
		case "BTREE":
			typ = catalog.IndexBTree
		case "BITMAP":
			typ = catalog.IndexBitmap
		case "GT":
			typ = catalog.IndexGT
		default:
			return fmt.Errorf("engine: unknown index type %q", s.Using)
		}
		def := catalog.IndexDef{Name: s.Name, Table: tbl.Name, Column: ci, Type: typ}
		if (typ == catalog.IndexBitmap || typ == catalog.IndexGT) && tbl.Columns[ci].Degradable {
			if _, ok := tbl.Columns[ci].Domain.(*gentree.Tree); !ok {
				return fmt.Errorf("engine: %s indexes require a tree domain (column %s.%s uses %s)",
					s.Using, tbl.Name, s.Column, tbl.Columns[ci].Domain.Name())
			}
		}
		if err := db.cat.AddIndex(def); err != nil {
			return err
		}
		if err := db.buildIndexInst(def); err != nil {
			db.cat.DropIndex(def.Name) //nolint:errcheck // best-effort rollback
			return err
		}
		return db.persistDDL(src)
	case *query.DropTable:
		tbl, err := db.cat.Table(s.Name)
		if err != nil {
			return err
		}
		if err := db.cat.DropTable(s.Name); err != nil {
			return err
		}
		db.dropTableIndexes(tbl.ID)
		db.deg.DropTable(tbl.ID)
		if err := db.mgr.DropTable(tbl.ID); err != nil {
			return err
		}
		return db.persistDDL(src)
	case *query.DropIndex:
		inst, ok := db.indexes[strings.ToLower(s.Name)]
		if !ok {
			return fmt.Errorf("engine: index %s not found", s.Name)
		}
		if err := db.cat.DropIndex(s.Name); err != nil {
			return err
		}
		db.dropIndexInst(inst)
		return db.persistDDL(src)
	case *query.DeclarePurpose:
		p, err := db.buildPurpose(s)
		if err != nil {
			return err
		}
		if err := db.cat.DeclarePurpose(p); err != nil {
			return err
		}
		return db.persistDDL(src)
	default:
		return fmt.Errorf("engine: not a DDL statement: %T", st)
	}
}

func buildDomain(s *query.CreateDomain) (gentree.Domain, error) {
	switch s.Kind {
	case "TREE":
		b := gentree.NewTreeBuilder(s.Name, s.Levels...)
		for _, p := range s.Paths {
			b.AddPath(p...)
		}
		return b.Build()
	case "RANGES":
		return gentree.NewIntRange(s.Name, s.Widths...)
	case "TIME":
		units := make([]gentree.TimeUnit, 0, len(s.Units))
		for _, u := range s.Units {
			unit, err := parseTimeUnit(u)
			if err != nil {
				return nil, err
			}
			units = append(units, unit)
		}
		return gentree.NewTimeTrunc(s.Name, units...)
	default:
		return nil, fmt.Errorf("engine: unknown domain kind %q", s.Kind)
	}
}

func parseTimeUnit(name string) (gentree.TimeUnit, error) {
	for u := gentree.UnitExact; u <= gentree.UnitYear; u++ {
		if strings.EqualFold(u.String(), name) {
			return u, nil
		}
	}
	return 0, fmt.Errorf("engine: unknown time unit %q", name)
}

func buildPolicy(s *query.CreatePolicy, dom gentree.Domain) (*lcp.Policy, error) {
	b := lcp.NewBuilder(s.Name, dom)
	for _, step := range s.Steps {
		lvl, err := dom.LevelByName(step.LevelName)
		if err != nil {
			return nil, err
		}
		switch {
		case step.Event != "":
			b.HoldUntilEvent(lvl, step.Retention, step.Event)
		case step.Predicate != "":
			b.HoldIf(lvl, step.Retention, step.Predicate)
		default:
			b.Hold(lvl, step.Retention)
		}
	}
	switch s.Terminal {
	case "DELETE":
		b.ThenDelete()
	case "SUPPRESS":
		b.ThenSuppress()
	default:
		b.ThenRemain()
	}
	return b.Build()
}

func (db *DB) buildTable(s *query.CreateTable) (*catalog.Table, error) {
	cols := make([]catalog.Column, 0, len(s.Columns))
	pk := -1
	for i, cd := range s.Columns {
		kind, err := value.ParseKind(cd.TypeName)
		if err != nil {
			return nil, err
		}
		col := catalog.Column{Name: cd.Name, Kind: kind, NotNull: cd.NotNull || cd.PrimaryKey}
		if cd.PrimaryKey {
			if pk != -1 {
				return nil, fmt.Errorf("engine: table %s: multiple primary keys", s.Name)
			}
			pk = i
		}
		if cd.Degradable {
			dom, err := db.cat.Domain(cd.Domain)
			if err != nil {
				return nil, err
			}
			pol, err := db.cat.Policy(cd.Policy)
			if err != nil {
				return nil, err
			}
			col.Degradable = true
			col.Domain = dom
			col.Policy = pol
		}
		cols = append(cols, col)
	}
	layout := catalog.LayoutMove
	if s.Layout == "INPLACE" {
		layout = catalog.LayoutInPlace
	}
	return db.cat.CreateTable(s.Name, cols, pk, layout)
}

func (db *DB) buildPurpose(s *query.DeclarePurpose) (*catalog.Purpose, error) {
	p := &catalog.Purpose{Name: strings.ToLower(s.Name), Levels: make(map[string]int), AllowUnlisted: s.AllowUnlisted}
	for _, pl := range s.Levels {
		tbl, err := db.cat.Table(pl.Table)
		if err != nil {
			return nil, err
		}
		ci, err := tbl.ColumnIndex(pl.Column)
		if err != nil {
			return nil, err
		}
		col := tbl.Columns[ci]
		if !col.Degradable {
			return nil, fmt.Errorf("engine: purpose %s: column %s.%s is stable", s.Name, pl.Table, pl.Column)
		}
		lvl, err := col.Domain.LevelByName(pl.LevelName)
		if err != nil {
			return nil, err
		}
		p.Levels[tbl.Name+"."+col.Name] = lvl
	}
	return p, nil
}

// --- DDL generators (persistence for programmatically registered objects) ---

// DomainDDL renders a domain as a CREATE DOMAIN statement.
func DomainDDL(d gentree.Domain) string {
	var sb strings.Builder
	switch dom := d.(type) {
	case *gentree.Tree:
		fmt.Fprintf(&sb, "CREATE DOMAIN %s TREE LEVELS (", dom.Name())
		for i := 0; i < dom.Levels(); i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(dom.LevelName(i))
		}
		sb.WriteString(")")
		for _, leaf := range dom.NodesAtLevel(0) {
			path := dom.Path(leaf)
			sb.WriteString("\n  PATH (")
			for i, v := range path {
				if i > 0 {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "'%s'", strings.ReplaceAll(v, "'", "''"))
			}
			sb.WriteString(")")
		}
	case *gentree.IntRange:
		fmt.Fprintf(&sb, "CREATE DOMAIN %s RANGES (", dom.Name())
		for i := 1; i < dom.Levels(); i++ {
			if i > 1 {
				sb.WriteString(", ")
			}
			name := dom.LevelName(i)
			if name == "suppressed" {
				sb.WriteString("SUPPRESS")
			} else {
				sb.WriteString(strings.TrimPrefix(name, "range"))
			}
		}
		sb.WriteString(")")
	case *gentree.TimeTrunc:
		fmt.Fprintf(&sb, "CREATE DOMAIN %s TIME (", dom.Name())
		for i := 0; i < dom.Levels(); i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(dom.LevelName(i))
		}
		sb.WriteString(")")
	default:
		panic(fmt.Sprintf("engine: cannot serialize domain type %T", d))
	}
	return sb.String()
}

// PolicyDDL renders a policy as a CREATE POLICY statement.
func PolicyDDL(p *lcp.Policy) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "CREATE POLICY %s ON %s (", p.Name(), p.Domain().Name())
	for i := 0; i < p.StateCount(); i++ {
		st := p.StateAt(i)
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "\n  HOLD %s FOR '%s'", p.Domain().LevelName(st.Level), st.Retention)
		switch st.Trigger {
		case lcp.TriggerEvent:
			fmt.Fprintf(&sb, " UNTIL EVENT '%s'", st.Event)
		case lcp.TriggerPredicate:
			fmt.Fprintf(&sb, " IF %s", st.Predicate)
		}
	}
	fmt.Fprintf(&sb, "\n) THEN %s", p.Terminal())
	return sb.String()
}
