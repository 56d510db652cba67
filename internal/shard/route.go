package shard

import (
	"errors"
	"fmt"
	"strings"

	"instantdb/internal/query"
	"instantdb/internal/value"
)

// action classifies where a statement executes.
type action int

const (
	// actSingle forwards the statement verbatim to one shard.
	actSingle action = iota
	// actScatter fans a SELECT out to every shard and merges the rows.
	actScatter
	// actBroadcast fans a write/DDL out to every shard in order and sums
	// the affected counts.
	actBroadcast
	// actSetPurpose switches the session purpose on every downstream
	// session.
	actSetPurpose
	// actRollback rolls back on every open downstream session
	// (idempotent, like the server's own Rollback).
	actRollback
)

// plan is the routing decision for one statement.
type plan struct {
	act   action
	shard int          // actSingle target
	shape *query.Shape // actScatter: how the shards' rows recombine
	ddl   bool         // actBroadcast: catalog DDL, mirrored into the router schema
	name  string       // actSetPurpose purpose name
}

// errRefused marks statements the router cannot execute across shards;
// the router reports them as ordinary statement errors (CodeSQL) with
// the session intact.
var errRefused = errors.New("shard: statement refused by router")

func refuse(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errRefused, fmt.Sprintf(format, args...))
}

// planStatement classifies one statement against a routing table and
// schema mirror. Single-key DML and point SELECTs route to the owning
// shard; scans scatter; DDL and unkeyed writes broadcast; transactions
// are refused (there is no cross-shard transaction protocol — a
// documented caveat, not a silent downgrade).
func planStatement(t *Table, sch *Schema, st query.Statement) (*plan, error) {
	switch s := st.(type) {
	case *query.Select:
		return planSelect(t, sch, s)
	case *query.Insert:
		return planInsert(t, sch, s)
	case *query.Update:
		shape := sch.table(s.Table)
		if shape == nil {
			return nil, refuse("unknown table %q", s.Table)
		}
		for _, set := range s.Sets {
			if shape.pk != "" && strings.EqualFold(set.Column, shape.pk) {
				return nil, refuse("UPDATE of primary key %s.%s would reroute the row between shards", s.Table, shape.pk)
			}
		}
		return planKeyedWrite(t, shape, s.Where)
	case *query.Delete:
		shape := sch.table(s.Table)
		if shape == nil {
			return nil, refuse("unknown table %q", s.Table)
		}
		return planKeyedWrite(t, shape, s.Where)
	case *query.FireEvent:
		return &plan{act: actBroadcast}, nil
	case *query.CreateDomain, *query.CreatePolicy, *query.CreateIndex,
		*query.DropIndex, *query.DeclarePurpose, *query.CreateTable, *query.DropTable:
		return &plan{act: actBroadcast, ddl: true}, nil
	case *query.SetPurpose:
		return &plan{act: actSetPurpose, name: s.Name}, nil
	case *query.Rollback:
		return &plan{act: actRollback}, nil
	case *query.Begin, *query.Commit:
		return nil, refuse("transactions are not supported through the shard router (no cross-shard transaction protocol); connect to a single shard for transactional work")
	default:
		return nil, refuse("statement %T is not routable", st)
	}
}

func planSelect(t *Table, sch *Schema, s *query.Select) (*plan, error) {
	shape := sch.table(s.Table)
	if shape == nil {
		return nil, refuse("unknown table %q", s.Table)
	}
	if shape.pk == "" {
		// A pk-less table cannot be split by key: the whole table lives
		// on one shard, and every statement against it routes there.
		return &plan{act: actSingle, shard: t.ShardForTable(shape.name)}, nil
	}
	if key, ok := wherePin(s.Where, shape.pk); ok {
		return &plan{act: actSingle, shard: t.ShardForKey(key)}, nil
	}
	if len(t.Shards) == 1 {
		return &plan{act: actSingle, shard: 0}, nil
	}
	return planScatter(s, shape.cols)
}

// planScatter resolves how a multi-shard SELECT recombines. A plain scan
// forwards verbatim and its rows concatenate; an aggregated statement
// forwards verbatim too, flagged so that each shard answers it in its
// partial form (query.Shape.Partial), which the router merges. What
// cannot be recombined exactly is refused with the reason.
func planScatter(s *query.Select, cols []string) (*plan, error) {
	sh, err := query.NewShape(s, cols)
	if err == nil {
		_, err = sh.Partial()
	}
	if err != nil {
		return nil, refuse("%v", err)
	}
	return &plan{act: actScatter, shape: sh}, nil
}

func planInsert(t *Table, sch *Schema, s *query.Insert) (*plan, error) {
	shape := sch.table(s.Table)
	if shape == nil {
		return nil, refuse("unknown table %q", s.Table)
	}
	if shape.pk == "" {
		return &plan{act: actSingle, shard: t.ShardForTable(shape.name)}, nil
	}
	cols := s.Columns
	if len(cols) == 0 {
		cols = shape.cols
	}
	pkIdx := -1
	for i, c := range cols {
		if strings.EqualFold(c, shape.pk) {
			pkIdx = i
			break
		}
	}
	if pkIdx == -1 {
		return nil, refuse("INSERT into %s must supply the primary key %s for routing", s.Table, shape.pk)
	}
	target := -1
	for _, row := range s.Rows {
		if pkIdx >= len(row) {
			return nil, refuse("INSERT row has no value for primary key %s", shape.pk)
		}
		lit, ok := row[pkIdx].(*query.Literal)
		if !ok {
			return nil, refuse("INSERT primary key must be a literal (bind arguments before routing)")
		}
		sh := t.ShardForKey(lit.Val)
		if target == -1 {
			target = sh
		} else if target != sh {
			// Splitting a multi-row INSERT across shards would commit
			// per-shard with no atomicity; refusing keeps the statement's
			// all-or-nothing meaning honest.
			return nil, refuse("multi-row INSERT spans shards; issue one INSERT per shard (no cross-shard atomicity)")
		}
	}
	if target == -1 {
		return nil, refuse("INSERT has no rows")
	}
	return &plan{act: actSingle, shard: target}, nil
}

// planKeyedWrite routes UPDATE/DELETE: a WHERE pinning the primary key
// goes to the owning shard, anything else broadcasts (each shard applies
// its own matching rows; affected counts sum).
func planKeyedWrite(t *Table, shape *tableShape, where query.Expr) (*plan, error) {
	if shape.pk == "" {
		return &plan{act: actSingle, shard: t.ShardForTable(shape.name)}, nil
	}
	if key, ok := wherePin(where, shape.pk); ok {
		return &plan{act: actSingle, shard: t.ShardForKey(key)}, nil
	}
	return &plan{act: actBroadcast}, nil
}

// wherePin extracts the literal a WHERE clause pins column pk to:
// an `pk = literal` comparison reachable through top-level ANDs. OR and
// NOT branches never pin (the statement may match rows elsewhere).
func wherePin(e query.Expr, pk string) (value.Value, bool) {
	switch x := e.(type) {
	case *query.Compare:
		if x.Op != "=" {
			return value.Null(), false
		}
		if col, ok := x.Left.(*query.ColumnRef); ok && strings.EqualFold(col.Column, pk) {
			if lit, ok := x.Right.(*query.Literal); ok {
				return lit.Val, true
			}
		}
		if col, ok := x.Right.(*query.ColumnRef); ok && strings.EqualFold(col.Column, pk) {
			if lit, ok := x.Left.(*query.Literal); ok {
				return lit.Val, true
			}
		}
	case *query.Logical:
		if x.Op == "AND" {
			if v, ok := wherePin(x.Left, pk); ok {
				return v, true
			}
			return wherePin(x.Right, pk)
		}
	}
	return value.Null(), false
}
