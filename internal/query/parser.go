package query

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"instantdb/internal/value"
)

// Parse parses one SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	st, _, err := ParseWithParams(src)
	return st, err
}

// ParseWithParams is Parse, additionally returning the number of `?`
// placeholders the parser assigned — callers that bind immediately
// (prepared statements, one-shot arg execution) skip the AST re-walk
// NumPlaceholders would cost.
func ParseWithParams(src string) (Statement, int, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, 0, err
	}
	p := &parser{toks: toks, src: src}
	st, err := p.statement()
	if err != nil {
		return nil, 0, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, 0, p.errf("trailing input after statement")
	}
	return st, p.params, nil
}

// ParseScript parses a semicolon-separated statement sequence. It
// returns each statement with its source text: the script's bytes from
// the statement's first token to its last, so comments and space around
// a statement are left out and a literal holding a ';' is kept whole.
// Placeholders are rejected: no script path can supply arguments, and
// an unbound placeholder would otherwise fail only when a row reaches
// the predicate — passing or failing with data volume.
func ParseScript(src string) ([]Statement, []string, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, nil, err
	}
	p := &parser{toks: toks, src: src}
	var out []Statement
	var texts []string
	for {
		for p.accept(tokSymbol, ";") {
		}
		if p.at(tokEOF, "") {
			return out, texts, nil
		}
		p.params = 0
		start := p.cur().pos
		st, err := p.statement()
		if err != nil {
			return nil, nil, err
		}
		if p.params > 0 {
			return nil, nil, fmt.Errorf("query: statement %d uses ? placeholders, which scripts cannot bind", len(out)+1)
		}
		out = append(out, st)
		texts = append(texts, src[start:p.toks[p.i-1].end])
		if !p.accept(tokSymbol, ";") && !p.at(tokEOF, "") {
			return nil, nil, p.errf("expected ';' between statements")
		}
	}
}

type parser struct {
	toks []token
	i    int
	src  string
	// params counts `?` placeholders seen so far, assigning each its
	// 0-based argument index in parse order.
	params int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	return token{}, p.errf("expected %q, found %q", text, p.cur().text)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("query: %s (near position %d)", fmt.Sprintf(format, args...), p.cur().pos)
}

// ident accepts an identifier or a non-reserved-looking keyword used as a
// name (level names like DAY or GT collide with keywords).
func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind == tokIdent {
		p.i++
		return t.text, nil
	}
	if t.kind == tokKeyword {
		p.i++
		return strings.ToLower(t.text), nil
	}
	return "", p.errf("expected identifier, found %q", t.text)
}

func (p *parser) statement() (Statement, error) {
	t := p.cur()
	if t.kind != tokKeyword {
		return nil, p.errf("expected statement keyword, found %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.selectStmt()
	case "INSERT":
		return p.insertStmt()
	case "UPDATE":
		return p.updateStmt()
	case "DELETE":
		return p.deleteStmt()
	case "CREATE":
		return p.createStmt()
	case "DROP":
		return p.dropStmt()
	case "DECLARE":
		return p.declarePurpose()
	case "SET":
		p.next()
		if _, err := p.expect(tokKeyword, "PURPOSE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &SetPurpose{Name: name}, nil
	case "BEGIN":
		p.next()
		if p.accept(tokKeyword, "READ") {
			if _, err := p.expect(tokKeyword, "ONLY"); err != nil {
				return nil, err
			}
			return &Begin{ReadOnly: true}, nil
		}
		return &Begin{}, nil
	case "COMMIT":
		p.next()
		return &Commit{}, nil
	case "ROLLBACK":
		p.next()
		return &Rollback{}, nil
	case "FIRE":
		p.next()
		if _, err := p.expect(tokKeyword, "EVENT"); err != nil {
			return nil, err
		}
		ev, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		return &FireEvent{Name: ev.text}, nil
	default:
		return nil, p.errf("unsupported statement %q", t.text)
	}
}

// --- SELECT ---

func (p *parser) selectStmt() (Statement, error) {
	p.next() // SELECT
	s := &Select{Limit: -1}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.Table = tbl
	if p.accept(tokKeyword, "WHERE") {
		s.Where, err = p.orExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.columnRef()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, *c)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.columnRef()
			if err != nil {
				return nil, err
			}
			ob := OrderBy{Col: *c}
			if p.accept(tokKeyword, "DESC") {
				ob.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			s.Order = append(s.Order, ob)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		t, err := p.expect(tokInt, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		s.Limit = n
	}
	if p.accept(tokKeyword, "FOR") {
		if _, err := p.expect(tokKeyword, "PURPOSE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		s.Purpose = name
	}
	return s, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	if p.accept(tokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	aggs := map[string]AggFunc{"COUNT": AggCount, "SUM": AggSum, "AVG": AggAvg, "MIN": AggMin, "MAX": AggMax}
	if t := p.cur(); t.kind == tokKeyword {
		if agg, ok := aggs[t.text]; ok && p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "(" {
			p.next()
			p.next() // (
			item := SelectItem{Agg: agg}
			if agg == AggCount && p.accept(tokSymbol, "*") {
				item.CountStar = true
			} else {
				c, err := p.columnRef()
				if err != nil {
					return SelectItem{}, err
				}
				item.Col = c
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return SelectItem{}, err
			}
			if p.accept(tokKeyword, "AS") {
				alias, err := p.ident()
				if err != nil {
					return SelectItem{}, err
				}
				item.Alias = alias
			}
			return item, nil
		}
	}
	c, err := p.columnRef()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Col: c}
	if p.accept(tokKeyword, "AS") {
		alias, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	}
	return item, nil
}

func (p *parser) columnRef() (*ColumnRef, error) {
	a, err := p.ident()
	if err != nil {
		return nil, err
	}
	if p.accept(tokSymbol, ".") {
		b, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Table: a, Column: b}, nil
	}
	return &ColumnRef{Column: a}, nil
}

// --- expressions (precedence: OR < AND < NOT < comparison) ---

func (p *parser) orExpr() (Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = &Logical{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) andExpr() (Expr, error) {
	left, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		right, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		left = &Logical{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		inner, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &Not{Inner: inner}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Expr, error) {
	if p.accept(tokSymbol, "(") {
		inner, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	left, err := p.operand()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.accept(tokKeyword, "IS") {
		neg := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNull{Left: left, Negate: neg}, nil
	}
	// [NOT] IN / BETWEEN / LIKE
	negated := p.accept(tokKeyword, "NOT")
	switch {
	case p.accept(tokKeyword, "IN"):
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var vals []Expr
		for {
			v, err := p.operand()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		var e Expr = &InList{Left: left, Vals: vals}
		if negated {
			e = &Not{Inner: e}
		}
		return e, nil
	case p.accept(tokKeyword, "BETWEEN"):
		lo, err := p.operand()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.operand()
		if err != nil {
			return nil, err
		}
		var e Expr = &Between{Left: left, Lo: lo, Hi: hi}
		if negated {
			e = &Not{Inner: e}
		}
		return e, nil
	case p.accept(tokKeyword, "LIKE"):
		right, err := p.operand()
		if err != nil {
			return nil, err
		}
		var e Expr = &Compare{Op: "LIKE", Left: left, Right: right}
		if negated {
			e = &Not{Inner: e}
		}
		return e, nil
	}
	if negated {
		return nil, p.errf("dangling NOT")
	}
	for _, op := range []string{"=", "!=", "<=", ">=", "<", ">"} {
		if p.accept(tokSymbol, op) {
			right, err := p.operand()
			if err != nil {
				return nil, err
			}
			return &Compare{Op: op, Left: left, Right: right}, nil
		}
	}
	return nil, p.errf("expected comparison operator")
}

// operand parses a column reference, literal or `?` placeholder.
func (p *parser) operand() (Expr, error) {
	t := p.cur()
	if t.kind == tokSymbol && t.text == "?" {
		p.next()
		ph := &Placeholder{Index: p.params}
		p.params++
		return ph, nil
	}
	switch t.kind {
	case tokInt:
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return &Literal{Val: value.Int(n)}, nil
	case tokFloat:
		p.next()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", t.text)
		}
		return &Literal{Val: value.Float(f)}, nil
	case tokString:
		p.next()
		return &Literal{Val: value.Text(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &Literal{Val: value.Null()}, nil
		case "TRUE":
			p.next()
			return &Literal{Val: value.Bool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Val: value.Bool(false)}, nil
		case "TIMESTAMP":
			p.next()
			s, err := p.expect(tokString, "")
			if err != nil {
				return nil, err
			}
			ts, err := ParseTimestamp(s.text)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			return &Literal{Val: value.Time(ts)}, nil
		}
	case tokIdent:
		c, err := p.columnRef()
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	return nil, p.errf("expected operand, found %q", t.text)
}

// ParseTimestamp accepts RFC3339 or "2006-01-02 15:04:05" or a date.
func ParseTimestamp(s string) (time.Time, error) {
	for _, layout := range []string{time.RFC3339Nano, time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
		if ts, err := time.Parse(layout, s); err == nil {
			return ts.UTC(), nil
		}
	}
	return time.Time{}, fmt.Errorf("query: bad timestamp %q", s)
}

// --- DML ---

func (p *parser) insertStmt() (Statement, error) {
	p.next() // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: tbl}
	if p.accept(tokSymbol, "(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			v, err := p.operand()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) updateStmt() (Statement, error) {
	p.next() // UPDATE
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	u := &Update{Table: tbl}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		v, err := p.operand()
		if err != nil {
			return nil, err
		}
		u.Sets = append(u.Sets, struct {
			Column string
			Val    Expr
		}{col, v})
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		u.Where, err = p.orExpr()
		if err != nil {
			return nil, err
		}
	}
	return u, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	p.next() // DELETE
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: tbl}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		d.Where = w
	}
	return d, nil
}

// --- DDL ---

func (p *parser) createStmt() (Statement, error) {
	p.next() // CREATE
	switch {
	case p.accept(tokKeyword, "DOMAIN"):
		return p.createDomain()
	case p.accept(tokKeyword, "POLICY"):
		return p.createPolicy()
	case p.accept(tokKeyword, "TABLE"):
		return p.createTable()
	case p.accept(tokKeyword, "INDEX"):
		return p.createIndex()
	default:
		return nil, p.errf("expected DOMAIN, POLICY, TABLE or INDEX after CREATE")
	}
}

func (p *parser) createDomain() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	cd := &CreateDomain{Name: name}
	switch {
	case p.accept(tokKeyword, "TREE"):
		cd.Kind = "TREE"
		if _, err := p.expect(tokKeyword, "LEVELS"); err != nil {
			return nil, err
		}
		levels, err := p.parenIdentList()
		if err != nil {
			return nil, err
		}
		cd.Levels = levels
		for p.accept(tokKeyword, "PATH") {
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			var path []string
			for {
				s, err := p.expect(tokString, "")
				if err != nil {
					return nil, err
				}
				path = append(path, s.text)
				if !p.accept(tokSymbol, ",") {
					break
				}
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			cd.Paths = append(cd.Paths, path)
		}
	case p.accept(tokKeyword, "RANGES"):
		cd.Kind = "RANGES"
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		for {
			if p.accept(tokKeyword, "SUPPRESS") {
				cd.Widths = append(cd.Widths, 0)
			} else {
				t, err := p.expect(tokInt, "")
				if err != nil {
					return nil, err
				}
				w, err := strconv.ParseInt(t.text, 10, 64)
				if err != nil {
					return nil, p.errf("bad width %q", t.text)
				}
				cd.Widths = append(cd.Widths, w)
			}
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	case p.accept(tokKeyword, "TIME"):
		cd.Kind = "TIME"
		units, err := p.parenIdentList()
		if err != nil {
			return nil, err
		}
		cd.Units = units
	default:
		return nil, p.errf("expected TREE, RANGES or TIME")
	}
	return cd, nil
}

func (p *parser) parenIdentList() ([]string, error) {
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	var out []string
	for {
		id, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) createPolicy() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	dom, err := p.ident()
	if err != nil {
		return nil, err
	}
	cp := &CreatePolicy{Name: name, Domain: dom, Terminal: "REMAIN"}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokKeyword, "HOLD"); err != nil {
			return nil, err
		}
		lvl, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "FOR"); err != nil {
			return nil, err
		}
		dur, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		d, err := ParseDuration(dur.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		step := PolicyStep{LevelName: lvl, Retention: d}
		if p.accept(tokKeyword, "UNTIL") {
			if _, err := p.expect(tokKeyword, "EVENT"); err != nil {
				return nil, err
			}
			ev, err := p.expect(tokString, "")
			if err != nil {
				return nil, err
			}
			step.Event = ev.text
		} else if p.accept(tokKeyword, "IF") {
			pred, err := p.ident()
			if err != nil {
				return nil, err
			}
			step.Predicate = pred
		}
		cp.Steps = append(cp.Steps, step)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	if p.accept(tokKeyword, "THEN") {
		switch {
		case p.accept(tokKeyword, "DELETE"):
			cp.Terminal = "DELETE"
		case p.accept(tokKeyword, "SUPPRESS"):
			cp.Terminal = "SUPPRESS"
		case p.accept(tokKeyword, "REMAIN"):
			cp.Terminal = "REMAIN"
		default:
			return nil, p.errf("expected DELETE, SUPPRESS or REMAIN after THEN")
		}
	}
	return cp, nil
}

func (p *parser) createTable() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name, Layout: "MOVE"}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		col, err := p.columnDef()
		if err != nil {
			return nil, err
		}
		ct.Columns = append(ct.Columns, col)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	if p.accept(tokKeyword, "LAYOUT") {
		switch {
		case p.accept(tokKeyword, "MOVE"):
			ct.Layout = "MOVE"
		case p.accept(tokKeyword, "INPLACE"):
			ct.Layout = "INPLACE"
		default:
			return nil, p.errf("expected MOVE or INPLACE")
		}
	}
	return ct, nil
}

func (p *parser) columnDef() (ColumnDef, error) {
	name, err := p.ident()
	if err != nil {
		return ColumnDef{}, err
	}
	typeName, err := p.ident()
	if err != nil {
		return ColumnDef{}, err
	}
	col := ColumnDef{Name: name, TypeName: strings.ToUpper(typeName)}
	for {
		switch {
		case p.accept(tokKeyword, "PRIMARY"):
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return ColumnDef{}, err
			}
			col.PrimaryKey = true
		case p.accept(tokKeyword, "NOT"):
			if _, err := p.expect(tokKeyword, "NULL"); err != nil {
				return ColumnDef{}, err
			}
			col.NotNull = true
		case p.accept(tokKeyword, "DEGRADABLE"):
			col.Degradable = true
			if _, err := p.expect(tokKeyword, "DOMAIN"); err != nil {
				return ColumnDef{}, err
			}
			d, err := p.ident()
			if err != nil {
				return ColumnDef{}, err
			}
			col.Domain = d
			if _, err := p.expect(tokKeyword, "POLICY"); err != nil {
				return ColumnDef{}, err
			}
			pol, err := p.ident()
			if err != nil {
				return ColumnDef{}, err
			}
			col.Policy = pol
		default:
			return col, nil
		}
	}
}

func (p *parser) createIndex() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	ci := &CreateIndex{Name: name, Table: tbl, Column: col, Using: "BTREE"}
	if p.accept(tokKeyword, "USING") {
		switch {
		case p.accept(tokKeyword, "BTREE"):
			ci.Using = "BTREE"
		case p.accept(tokKeyword, "BITMAP"):
			ci.Using = "BITMAP"
		case p.accept(tokKeyword, "GT"):
			ci.Using = "GT"
		default:
			return nil, p.errf("expected BTREE, BITMAP or GT")
		}
	}
	return ci, nil
}

func (p *parser) dropStmt() (Statement, error) {
	p.next() // DROP
	switch {
	case p.accept(tokKeyword, "TABLE"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropTable{Name: name}, nil
	case p.accept(tokKeyword, "INDEX"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropIndex{Name: name}, nil
	default:
		return nil, p.errf("expected TABLE or INDEX after DROP")
	}
}

// declarePurpose parses the paper's syntax:
//
//	DECLARE PURPOSE stat SET ACCURACY LEVEL country FOR person.location,
//	    range1000 FOR person.salary [ALLOW UNLISTED]
func (p *parser) declarePurpose() (Statement, error) {
	p.next() // DECLARE
	if _, err := p.expect(tokKeyword, "PURPOSE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	dp := &DeclarePurpose{Name: name}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ACCURACY"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "LEVEL"); err != nil {
		return nil, err
	}
	for {
		lvl, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "FOR"); err != nil {
			return nil, err
		}
		tbl, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "."); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		dp.Levels = append(dp.Levels, PurposeLevel{Table: tbl, Column: col, LevelName: lvl})
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "ALLOW") {
		if _, err := p.expect(tokKeyword, "UNLISTED"); err != nil {
			return nil, err
		}
		dp.AllowUnlisted = true
	}
	return dp, nil
}

// ParseDuration parses retention durations: time.ParseDuration units plus
// d (days), w (weeks), mo (months of 30 days) and y (years of 365 days),
// e.g. "90m", "1h30m", "1d", "2w", "1mo", "1y".
func ParseDuration(s string) (time.Duration, error) {
	orig := s
	var total time.Duration
	for s != "" {
		i := 0
		for i < len(s) && (s[i] >= '0' && s[i] <= '9' || s[i] == '.') {
			i++
		}
		if i == 0 {
			return 0, fmt.Errorf("query: bad duration %q", orig)
		}
		numStr := s[:i]
		s = s[i:]
		j := 0
		for j < len(s) && (s[j] < '0' || s[j] > '9') && s[j] != '.' {
			j++
		}
		unit := s[:j]
		s = s[j:]
		n, err := strconv.ParseFloat(numStr, 64)
		if err != nil {
			return 0, fmt.Errorf("query: bad duration %q", orig)
		}
		var mult time.Duration
		switch unit {
		case "ns":
			mult = time.Nanosecond
		case "us", "µs":
			mult = time.Microsecond
		case "ms":
			mult = time.Millisecond
		case "s":
			mult = time.Second
		case "m":
			mult = time.Minute
		case "h":
			mult = time.Hour
		case "d":
			mult = 24 * time.Hour
		case "w":
			mult = 7 * 24 * time.Hour
		case "mo":
			mult = 30 * 24 * time.Hour
		case "y":
			mult = 365 * 24 * time.Hour
		default:
			return 0, fmt.Errorf("query: bad duration unit %q in %q", unit, orig)
		}
		total += time.Duration(n * float64(mult))
	}
	if orig == "" {
		return 0, fmt.Errorf("query: empty duration")
	}
	return total, nil
}
