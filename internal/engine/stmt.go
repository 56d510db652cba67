package engine

import (
	"errors"

	"instantdb/internal/query"
	"instantdb/internal/value"
)

// ErrStmtClosed marks execution of a closed prepared statement.
var ErrStmtClosed = errors.New("engine: statement closed")

// Stmt is a prepared statement: the SQL text is lexed, parsed and
// validated once, and each execution binds a fresh argument list into
// the cached AST. Re-executing a Stmt skips the per-call parse entirely,
// which is the hot-path win for the paper's workloads (high-rate inserts
// of short-lived records, fixed purpose-limited queries). A Stmt is
// bound to its Conn and shares the Conn's concurrency contract: not safe
// for concurrent use, prepare one per session.
//
// Object names resolve at execution time, exactly like the text path, so
// a Stmt survives DDL on other tables and fails cleanly if its own table
// is dropped.
type Stmt struct {
	conn    *Conn
	ast     query.Statement
	src     string
	nparams int
	// refCols caches the referenced-column set of a SELECT without `*`
	// (schema-independent, so safe across DDL); nil otherwise.
	refCols map[string]bool
}

// Prepare parses src into a reusable statement. The statement may
// contain `?` placeholders wherever the grammar accepts an operand
// (WHERE comparisons, IN lists, BETWEEN bounds, INSERT VALUES, UPDATE
// SET); Exec and Query bind arguments to them positionally.
func (c *Conn) Prepare(src string) (*Stmt, error) {
	ast, nparams, err := query.ParseWithParams(src)
	if err != nil {
		return nil, err
	}
	s := &Stmt{conn: c, ast: ast, src: src, nparams: nparams}
	if sel, ok := ast.(*query.Select); ok {
		star := false
		for _, it := range sel.Items {
			if it.Star {
				star = true
				break
			}
		}
		if !star {
			s.refCols = referencedColumns(nil, sel)
		}
	}
	return s, nil
}

// NumParams returns the number of `?` placeholders in the statement.
func (s *Stmt) NumParams() int { return s.nparams }

// SQL returns the statement's source text.
func (s *Stmt) SQL() string { return s.src }

// Exec binds args to the statement's placeholders and executes it. The
// arity must match NumParams exactly; value kinds are checked against
// column types by the executor, exactly as literals are.
func (s *Stmt) Exec(args ...value.Value) (*Result, error) {
	if s.conn == nil {
		return nil, ErrStmtClosed
	}
	bound, err := query.BindKnown(s.ast, args, s.nparams)
	if err != nil {
		return nil, err
	}
	return s.conn.execParsed(bound, s.src, s.refCols)
}

// Query is Exec for reads: it returns the result rows (empty, never
// nil, for statements that produce none).
func (s *Stmt) Query(args ...value.Value) (*Rows, error) {
	res, err := s.Exec(args...)
	if err != nil {
		return nil, err
	}
	if res.Rows == nil {
		return &Rows{}, nil
	}
	return res.Rows, nil
}

// Close releases the statement; executing it afterwards fails with
// ErrStmtClosed. The engine keeps no per-statement resources, so Close
// only marks the handle.
func (s *Stmt) Close() error {
	s.conn = nil
	return nil
}
