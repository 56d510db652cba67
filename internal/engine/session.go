package engine

import (
	"errors"
	"fmt"
	"strings"

	"instantdb/internal/catalog"
	"instantdb/internal/metrics"
	"instantdb/internal/query"
	"instantdb/internal/storage"
	"instantdb/internal/trace"
	"instantdb/internal/txn"
	"instantdb/internal/value"
	"instantdb/internal/wal"
)

// Session errors.
var (
	// ErrPurposeDenied marks access to a degradable column the session
	// purpose does not grant.
	ErrPurposeDenied = errors.New("engine: purpose does not grant access to column")
	// ErrDegradableImmutable marks an UPDATE of a degradable column
	// (forbidden after insert, paper §II).
	ErrDegradableImmutable = errors.New("engine: degradable attributes are immutable after insert")
	// ErrDuplicateKey marks a primary key violation.
	ErrDuplicateKey = errors.New("engine: duplicate primary key")
	// ErrNoTransaction is returned by COMMIT outside a transaction.
	// ROLLBACK outside one succeeds: a statement failure may already
	// have rolled the transaction back, and the caller cannot tell.
	ErrNoTransaction = errors.New("engine: no open transaction")
	// ErrUnknownPurpose marks SET PURPOSE (or SetPurpose) naming a
	// purpose the catalog does not declare.
	ErrUnknownPurpose = errors.New("engine: unknown purpose")
	// ErrTxAborted is returned by statements issued after a failure
	// aborted the open transaction, until ROLLBACK acknowledges it.
	// Without this state, a statement issued after the abort would
	// silently autocommit — durable writes inside a transaction the
	// application believes it rolled back.
	ErrTxAborted = errors.New("engine: transaction aborted by a prior failure; ROLLBACK to continue")
	// ErrReadOnlyTxn marks a write statement inside a BEGIN READ ONLY
	// transaction. Like any in-transaction statement failure, it aborts
	// the transaction; ROLLBACK releases the snapshot.
	ErrReadOnlyTxn = errors.New("engine: write statement in a read-only transaction")
	// ErrReadOnlyReplica marks a write statement, read-write BEGIN or
	// DDL on a database opened in replica mode (Config.Replica). All
	// mutations on a replica arrive from its leader's replicated WAL —
	// or from its own degradation engine, which keeps enforcing LCP
	// deadlines locally and is exempt from this fence. Direct writes to
	// the leader.
	ErrReadOnlyReplica = errors.New("engine: read-only replica: writes are accepted only on the leader")
)

// Rows is a fully materialized query result.
type Rows struct {
	Columns []string
	Data    [][]value.Value
}

// Len returns the row count.
func (r *Rows) Len() int { return len(r.Data) }

// Result reports the outcome of one statement.
type Result struct {
	// Rows is non-nil for SELECT.
	Rows *Rows
	// RowsAffected counts inserted/updated/deleted tuples.
	RowsAffected int
	// LastInsertID is the TupleID of the last inserted tuple.
	LastInsertID storage.TupleID
}

// tableOverlay is a transaction's private view of one table: rows it
// inserted or rewrote, and rows it deleted.
type tableOverlay struct {
	tuples  map[storage.TupleID]*storage.Tuple
	deleted map[storage.TupleID]bool
}

// openTxn is an in-progress transaction. A read-write transaction
// carries a redo record list (applied at commit) plus the
// read-your-writes overlay, under strict 2PL. A read-only transaction
// carries only a pinned snapshot epoch: its reads acquire no locks,
// never block the degradation engine, and release nothing but the
// snapshot at COMMIT/ROLLBACK.
type openTxn struct {
	id       txn.ID
	recs     []*wal.Record
	overlays map[uint32]*tableOverlay

	readOnly bool
	snap     uint64 // pinned snapshot epoch (read-only transactions)
}

func (tx *openTxn) overlay(tableID uint32) *tableOverlay {
	ov, ok := tx.overlays[tableID]
	if !ok {
		ov = &tableOverlay{tuples: make(map[storage.TupleID]*storage.Tuple), deleted: make(map[storage.TupleID]bool)}
		tx.overlays[tableID] = ov
	}
	return ov
}

// Conn is a session: it carries the active purpose (the paper's DECLARE
// PURPOSE context), the optional open transaction, and the coarse-read
// flag (the paper's §IV alternative semantics). Conns are not safe for
// concurrent use; open one per goroutine.
type Conn struct {
	db      *DB
	purpose *catalog.Purpose
	coarse  bool
	tx      *openTxn
	// aborted marks an explicit transaction torn down by a statement
	// failure; the session refuses further statements until ROLLBACK.
	aborted bool
	// qCount/wCount are the per-purpose statement counters, resolved once
	// per purpose switch so the hot path never takes the vec's map lock
	// (nil when metrics are disabled).
	qCount *metrics.Counter
	wCount *metrics.Counter
	// tr/tsp are the request's trace context, set by AttachTrace for the
	// duration of one statement (both nil — free nil-check no-ops on
	// every span site — when the request is untraced).
	tr  *trace.T
	tsp *trace.S
	// stmts caches the parse of texts executed with arguments, keyed by
	// text (at most stmtCacheCap entries; see stmt).
	stmts map[string]*Stmt
}

// AttachTrace binds a trace context to the session for one request:
// statement phases (parse/bind, plan, lock waits, reads, WAL append,
// publish) record as spans under parent until DetachTrace.
func (c *Conn) AttachTrace(t *trace.T, parent *trace.S) {
	c.tr, c.tsp = t, parent
}

// DetachTrace clears the session's trace context.
func (c *Conn) DetachTrace() { c.tr, c.tsp = nil, nil }

// NewConn opens a session with the built-in full-accuracy purpose.
func (db *DB) NewConn() *Conn {
	c := &Conn{db: db, purpose: catalog.FullAccess}
	c.bindPurposeCounters()
	return c
}

// bindPurposeCounters caches the session's per-purpose counters.
func (c *Conn) bindPurposeCounters() {
	c.qCount = c.db.met.queries.With(c.purpose.Name)
	c.wCount = c.db.met.writes.With(c.purpose.Name)
}

// Exec parses and executes one statement on a fresh session (autocommit,
// full purpose), binding args to any `?` placeholders. Convenience for
// tools and tests.
func (db *DB) Exec(src string, args ...value.Value) (*Result, error) {
	return db.NewConn().Exec(src, args...)
}

// ExecScript executes a semicolon-separated statement sequence on a
// fresh session, stopping at the first error.
func (db *DB) ExecScript(src string) error {
	stmts, texts, err := query.ParseScript(src)
	if err != nil {
		return err
	}
	conn := db.NewConn()
	for i, st := range stmts {
		if _, err := conn.execParsed(st, texts[i], nil); err != nil {
			return err
		}
	}
	return nil
}

// MustExec is Exec that panics on error (examples and fixtures).
func (db *DB) MustExec(src string, args ...value.Value) *Result {
	res, err := db.Exec(src, args...)
	if err != nil {
		panic(err)
	}
	return res
}

// SetPurpose switches the session purpose by name.
func (c *Conn) SetPurpose(name string) error {
	p, err := c.db.cat.Purpose(name)
	if err != nil {
		return fmt.Errorf("%w: %s", ErrUnknownPurpose, name)
	}
	c.purpose = p
	c.bindPurposeCounters()
	return nil
}

// Purpose returns the active purpose name.
func (c *Conn) Purpose() string { return c.purpose.Name }

// SetCoarse toggles the paper's §IV alternative query semantics: when
// set, tuples whose attributes have degraded *past* the demanded
// accuracy still qualify, evaluated and projected at their coarser
// actual level (best-effort projection).
func (c *Conn) SetCoarse(on bool) { c.coarse = on }

// Exec parses and executes one statement, binding args to any `?`
// placeholders (one-shot prepare-and-execute). A zero-arg call on a
// placeholder-free statement is the classic text path; a statement that
// does contain placeholders demands exactly matching arguments. A text
// executed with arguments keeps its parse in the session's statement
// cache, so running it again binds without parsing.
func (c *Conn) Exec(src string, args ...value.Value) (*Result, error) {
	return c.exec(src, args, false)
}

// ExecPartial is Exec for a SELECT that answers in its partial form
// (query.Shape.Partial): what a shard returns for a shard router's
// aggregated scatter, AVG as SUM and COUNT, ORDER BY and LIMIT left to
// the router's merge. The router sends the client's own text and
// arguments, so they go through the statement cache as for Exec.
func (c *Conn) ExecPartial(src string, args ...value.Value) (*Result, error) {
	return c.exec(src, args, true)
}

func (c *Conn) exec(src string, args []value.Value, partial bool) (*Result, error) {
	sp := c.tr.Span(c.tsp, "parse_bind")
	s, err := c.stmt(src, len(args) > 0)
	var bound query.Statement
	if err == nil {
		bound, err = query.BindKnown(s.ast, args, s.nparams)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	if partial {
		return c.execPartial(bound)
	}
	return c.execParsed(bound, src, s.refCols)
}

// execPartial executes the partial form of a bound SELECT.
func (c *Conn) execPartial(st query.Statement) (*Result, error) {
	sel, ok := st.(*query.Select)
	if !ok {
		return nil, fmt.Errorf("engine: only a SELECT has a partial form, not %T", st)
	}
	tbl, err := c.db.cat.Table(sel.Table)
	if err != nil {
		return nil, err
	}
	sh, err := query.NewShape(sel, tbl.ColumnNames())
	if err == nil {
		sel, err = sh.Partial()
	}
	if err != nil {
		return nil, err
	}
	return c.execParsed(sel, "", nil)
}

// stmtCacheCap bounds a session's statement cache; a miss on a full
// cache empties it.
const stmtCacheCap = 64

// stmt returns src parsed. With cached set (the statement came with
// arguments) it consults the session's statement cache and keeps a
// fresh parse that has placeholders there. A text without placeholders
// is never kept: it is either run once or carries its values as
// literals, which the cache must not outlive.
func (c *Conn) stmt(src string, cached bool) (*Stmt, error) {
	if !cached {
		return c.Prepare(src)
	}
	if s := c.stmts[src]; s != nil {
		return s, nil
	}
	s, err := c.Prepare(src)
	if err != nil || s.nparams == 0 {
		return s, err
	}
	if c.stmts == nil || len(c.stmts) >= stmtCacheCap {
		c.stmts = make(map[string]*Stmt)
	}
	c.stmts[src] = s
	return s, nil
}

// Query is Exec for reads: it returns the result rows (empty, never
// nil, for statements that produce none).
func (c *Conn) Query(src string, args ...value.Value) (*Rows, error) {
	res, err := c.Exec(src, args...)
	if err != nil {
		return nil, err
	}
	if res.Rows == nil {
		return &Rows{}, nil
	}
	return res.Rows, nil
}

// execParsed executes an already parsed statement. src is its source
// text, persisted verbatim for DDL; refCols, when non-nil, is a SELECT's
// referenced-column set computed at Prepare.
func (c *Conn) execParsed(st query.Statement, src string, refCols map[string]bool) (*Result, error) {
	if c.aborted {
		switch st.(type) {
		case *query.Rollback:
			c.aborted = false
			return &Result{}, nil
		case *query.Commit:
			// Nothing to commit; the error tells the application its
			// transaction did not take, and the session is usable again.
			c.aborted = false
			return nil, ErrTxAborted
		default:
			return nil, ErrTxAborted
		}
	}
	switch s := st.(type) {
	case *query.Select:
		c.qCount.Inc()
		return c.execSelect(s, refCols)
	case *query.Insert:
		c.wCount.Inc()
		return c.autocommit(func() (*Result, error) { return c.runInsert(s) })
	case *query.Update:
		c.wCount.Inc()
		return c.autocommit(func() (*Result, error) { return c.runUpdate(s) })
	case *query.Delete:
		c.wCount.Inc()
		return c.autocommit(func() (*Result, error) { return c.runDelete(s) })
	case *query.Begin:
		if c.tx != nil {
			return nil, errors.New("engine: transaction already open")
		}
		if !s.ReadOnly && c.db.cfg.Replica {
			// Refused at BEGIN, not at COMMIT: a replica can never grant
			// the write locks a read-write transaction exists to take.
			return nil, ErrReadOnlyReplica
		}
		if s.ReadOnly {
			c.beginRO()
		} else {
			c.begin()
		}
		return &Result{}, nil
	case *query.Commit:
		if c.tx == nil {
			return nil, ErrNoTransaction
		}
		return &Result{}, c.commitTx()
	case *query.Rollback:
		if c.tx != nil {
			c.rollbackTx()
		}
		return &Result{}, nil
	case *query.SetPurpose:
		return &Result{}, c.SetPurpose(s.Name)
	case *query.FireEvent:
		c.db.FireEvent(s.Name)
		return &Result{}, nil
	default:
		// DDL: forbidden inside an open transaction.
		if c.tx != nil {
			return nil, errors.New("engine: DDL inside a transaction is not supported")
		}
		if c.db.cfg.Replica {
			// Replica catalogs advance only through the leader's DDL
			// stream (ApplyReplicatedDDL); local DDL would desynchronize
			// the statement cursor both sides share.
			return nil, ErrReadOnlyReplica
		}
		c.db.mu.Lock()
		defer c.db.mu.Unlock()
		return &Result{}, c.db.execDDL(st, ddlText(src))
	}
}

// ddlText returns the statement src holds without the space, comments
// and ';' around it, as catalog.sql persists it: a trailing comment kept
// there would swallow the ';' that ends the statement.
func ddlText(src string) string {
	if _, texts, err := query.ParseScript(src); err == nil && len(texts) == 1 {
		return texts[0]
	}
	return strings.TrimSuffix(strings.TrimSpace(src), ";")
}

// execSelect runs a SELECT, tearing down the explicit transaction on
// failure exactly like a failed write (see autocommit): a failed read
// may hold partial S locks, and the aborted invariant — no statement
// runs after an in-transaction failure until ROLLBACK — must not have
// a read-path hole.
func (c *Conn) execSelect(s *query.Select, referenced map[string]bool) (*Result, error) {
	res, err := c.runSelectRef(s, referenced)
	if err != nil && c.tx != nil {
		c.rollbackTx()
		c.aborted = true
	}
	return res, err
}

// begin opens an explicit read-write transaction.
func (c *Conn) begin() {
	c.tx = &openTxn{id: c.db.ids.Next(), overlays: make(map[uint32]*tableOverlay)}
	c.db.met.activeTxns.Inc()
}

// beginRO opens a read-only transaction pinned to the current snapshot
// epoch. No transaction id and no locks: the degradation engine never
// waits on this session, and this session never waits on it.
func (c *Conn) beginRO() {
	c.tx = &openTxn{readOnly: true, snap: c.db.epochs.Snapshot()}
	c.db.met.activeTxns.Inc()
}

// autocommit runs fn inside the open transaction, or wraps it in an
// implicit one.
func (c *Conn) autocommit(fn func() (*Result, error)) (*Result, error) {
	if c.tx != nil {
		if c.tx.readOnly {
			// Same teardown as any in-transaction statement failure: the
			// session refuses statements until ROLLBACK.
			c.rollbackTx()
			c.aborted = true
			return nil, ErrReadOnlyTxn
		}
		res, err := fn()
		if err != nil {
			// Statement failure aborts the whole transaction: strict
			// and predictable under 2PL lock timeouts. The session then
			// refuses statements until ROLLBACK, so nothing can slip
			// into autocommit behind the application's back.
			c.rollbackTx()
			c.aborted = true
			return nil, err
		}
		return res, nil
	}
	if c.db.cfg.Replica {
		return nil, ErrReadOnlyReplica
	}
	c.begin()
	res, err := fn()
	if err != nil {
		c.rollbackTx()
		return nil, err
	}
	if err := c.commitTx(); err != nil {
		return nil, err
	}
	return res, nil
}

// commitTx makes the transaction durable and visible, then releases its
// locks. Committing a read-only transaction just releases its snapshot.
func (c *Conn) commitTx() error {
	tx := c.tx
	c.tx = nil
	c.db.met.activeTxns.Dec()
	if tx.readOnly {
		c.db.epochs.Release(tx.snap)
		return nil
	}
	defer c.db.locks.ReleaseAll(tx.id)
	if len(tx.recs) == 0 {
		return nil
	}
	// commit runs the authoritative primary-key check and then the
	// group-commit path: the transaction's 2PL locks (released by the
	// defer above, after durability and apply) keep concurrent batches
	// disjoint while their WAL appends interleave.
	return c.db.commit(tx.recs, local, c.tr, c.tsp)
}

// rollbackTx discards the write set and releases locks (or, for a
// read-only transaction, its pinned snapshot).
func (c *Conn) rollbackTx() {
	tx := c.tx
	c.tx = nil
	switch {
	case tx == nil:
		return
	case tx.readOnly:
		c.db.epochs.Release(tx.snap)
	default:
		c.db.locks.ReleaseAll(tx.id)
	}
	c.db.met.activeTxns.Dec()
}

// runInsert buffers RecInsert records for each VALUES row. Inserts are
// granted only in the most accurate state (paper §II): degradable
// values resolve through the domain's level-0 form.
func (c *Conn) runInsert(s *query.Insert) (*Result, error) {
	tbl, err := c.db.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	ts := c.db.mgr.Table(tbl)
	// Column order.
	order := make([]int, 0, len(tbl.Columns))
	if len(s.Columns) == 0 {
		for i := range tbl.Columns {
			order = append(order, i)
		}
	} else {
		seen := make(map[int]bool, len(s.Columns))
		for _, name := range s.Columns {
			ci, err := tbl.ColumnIndex(name)
			if err != nil {
				return nil, err
			}
			if seen[ci] {
				return nil, fmt.Errorf("engine: column %s.%s assigned twice in INSERT column list", tbl.Name, tbl.Columns[ci].Name)
			}
			seen[ci] = true
			order = append(order, ci)
		}
	}
	if err := c.db.locks.Acquire(c.tx.id, txn.TableRes(tbl.ID), txn.LockIX); err != nil {
		return nil, err
	}
	res := &Result{}
	now := c.db.clock.Now()
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(order) {
			return nil, fmt.Errorf("engine: insert has %d values for %d columns", len(exprRow), len(order))
		}
		row := make([]value.Value, len(tbl.Columns))
		for i, e := range exprRow {
			v, err := query.EvalValue(e, func(*query.ColumnRef) (value.Value, error) {
				return value.Null(), errors.New("engine: column reference in VALUES")
			})
			if err != nil {
				return nil, err
			}
			row[order[i]] = v
		}
		// Validate and resolve.
		states := make([]uint8, len(tbl.DegradableColumns()))
		stable := make([]value.Value, len(tbl.Columns))
		degVals := make([]value.Value, len(tbl.DegradableColumns()))
		for ci := range tbl.Columns {
			col := &tbl.Columns[ci]
			v := row[ci]
			if v.IsNull() {
				if col.NotNull {
					return nil, fmt.Errorf("engine: column %s.%s is NOT NULL", tbl.Name, col.Name)
				}
				if col.Degradable {
					return nil, fmt.Errorf("engine: degradable column %s.%s cannot be NULL", tbl.Name, col.Name)
				}
				continue
			}
			if pos := tbl.DegradablePos(ci); pos != -1 {
				if v.Kind() != col.Kind {
					return nil, fmt.Errorf("engine: column %s.%s wants %s, got %s", tbl.Name, col.Name, col.Kind, v.Kind())
				}
				stored, err := col.Domain.ResolveInsert(v)
				if err != nil {
					return nil, err
				}
				degVals[pos] = stored
				states[pos] = 0
				continue
			}
			if v.Kind() != col.Kind {
				// One numeric coercion: integer literal into FLOAT.
				if col.Kind == value.KindFloat && v.Kind() == value.KindInt {
					v = value.Float(float64(v.Int()))
				} else {
					return nil, fmt.Errorf("engine: column %s.%s wants %s, got %s", tbl.Name, col.Name, col.Kind, v.Kind())
				}
			}
			stable[ci] = v
		}
		tid := ts.ReserveID()
		// Refuse oversized rows here, before their redo record can reach
		// the WAL: a durably appended record must never fail to apply or
		// to replay.
		full := make([]value.Value, len(tbl.Columns))
		copy(full, stable)
		for i, colIdx := range tbl.DegradableColumns() {
			full[colIdx] = degVals[i]
		}
		if err := storage.CheckRecordSize(tbl, full); err != nil {
			return nil, fmt.Errorf("engine: %s: %w", tbl.Name, err)
		}
		// No row lock: until the commit applies it the row has no reader
		// (its id was reserved a moment ago and lives only in this
		// transaction's overlay), and a lock that outlives the apply by the
		// few microseconds to ReleaseAll would only make the degrader, which
		// learns of the row at apply, skip it for a whole recheck interval.
		rec := &wal.Record{
			Type:       wal.RecInsert,
			Table:      tbl.ID,
			Tuple:      tid,
			InsertNano: now.UTC().UnixNano(),
			States:     states,
			StableRow:  stable,
			DegVals:    degVals,
		}
		c.tx.recs = append(c.tx.recs, rec)
		// Read-your-writes overlay with the materialized tuple.
		ov := c.tx.overlay(tbl.ID)
		ov.tuples[tid] = &storage.Tuple{ID: tid, InsertedAt: now.UTC(), States: states, Row: full}
		res.RowsAffected++
		res.LastInsertID = tid
	}
	return res, nil
}

// runUpdate rewrites stable columns of qualifying tuples. Updating a
// degradable column is refused (paper §II); use privileged re-insert if
// a collected value was wrong.
func (c *Conn) runUpdate(s *query.Update) (*Result, error) {
	tbl, err := c.db.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	type setOp struct {
		col int
		val value.Value
	}
	sets := make([]setOp, 0, len(s.Sets))
	for _, st := range s.Sets {
		ci, err := tbl.ColumnIndex(st.Column)
		if err != nil {
			return nil, err
		}
		if tbl.DegradablePos(ci) != -1 {
			return nil, fmt.Errorf("%w: %s.%s", ErrDegradableImmutable, tbl.Name, st.Column)
		}
		v, err := query.EvalValue(st.Val, func(*query.ColumnRef) (value.Value, error) {
			return value.Null(), errors.New("engine: column reference in SET")
		})
		if err != nil {
			return nil, err
		}
		col := tbl.Columns[ci]
		if !v.IsNull() && v.Kind() != col.Kind {
			if col.Kind == value.KindFloat && v.Kind() == value.KindInt {
				v = value.Float(float64(v.Int()))
			} else {
				return nil, fmt.Errorf("engine: column %s.%s wants %s, got %s", tbl.Name, col.Name, col.Kind, v.Kind())
			}
		}
		if v.IsNull() && col.NotNull {
			return nil, fmt.Errorf("engine: column %s.%s is NOT NULL", tbl.Name, col.Name)
		}
		sets = append(sets, setOp{ci, v})
	}
	matched, err := c.matchForWrite(tbl, s.Where)
	if err != nil {
		return nil, err
	}
	ov := c.tx.overlay(tbl.ID)
	for i := range matched {
		t := &matched[i]
		for _, so := range sets {
			rec := &wal.Record{Type: wal.RecUpdateStable, Table: tbl.ID, Tuple: t.ID,
				Col: uint16(so.col), Val: so.val}
			c.tx.recs = append(c.tx.recs, rec)
			t.Row[so.col] = so.val
		}
		// The rewritten tuple must still fit a page (see runInsert).
		if err := storage.CheckRecordSize(tbl, t.Row); err != nil {
			return nil, fmt.Errorf("engine: %s: %w", tbl.Name, err)
		}
		cp := *t
		ov.tuples[t.ID] = &cp
	}
	return &Result{RowsAffected: len(matched)}, nil
}

// runDelete removes qualifying tuples. Predicates are evaluated at the
// purpose's accuracy like any query — the paper's "deletion through SQL
// views" semantics.
func (c *Conn) runDelete(s *query.Delete) (*Result, error) {
	tbl, err := c.db.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	matched, err := c.matchForWrite(tbl, s.Where)
	if err != nil {
		return nil, err
	}
	ov := c.tx.overlay(tbl.ID)
	for i := range matched {
		t := &matched[i]
		c.tx.recs = append(c.tx.recs, &wal.Record{Type: wal.RecDelete, Table: tbl.ID, Tuple: t.ID})
		ov.deleted[t.ID] = true
		delete(ov.tuples, t.ID)
	}
	return &Result{RowsAffected: len(matched)}, nil
}

// matchForWrite finds the tuples qualifying under the session purpose
// and predicate, each under an X row lock. Writes qualify tuples like
// reads do; degradable columns the predicate does not reference do not
// constrain qualification.
func (c *Conn) matchForWrite(tbl *catalog.Table, where query.Expr) ([]storage.Tuple, error) {
	referenced := make(map[string]bool)
	if where != nil {
		query.ColumnsOf(where, referenced)
	}
	levels, err := resolveLevels(tbl, c.purpose, referenced)
	if err != nil {
		return nil, err
	}
	src, err := c.openLocked(tbl, txn.LockX)
	if err != nil {
		return nil, err
	}
	var matched []storage.Tuple
	err = c.qualify(tbl, where, levels, src, func(t *storage.Tuple, _ []value.Value) error {
		matched = append(matched, *t)
		return nil
	})
	return matched, err
}
