package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"instantdb/internal/catalog"
	"instantdb/internal/gentree"
	"instantdb/internal/index"
	"instantdb/internal/query"
	"instantdb/internal/storage"
	"instantdb/internal/trace"
	"instantdb/internal/txn"
	"instantdb/internal/value"
)

// This file implements the paper's query semantics. A query runs under a
// purpose that fixes a demanded accuracy level k per degradable column.
// The select operator σP,k considers only tuples whose state can still
// compute level k (current level j <= k, not erased), degrades them on
// the fly with fk (Domain.Degrade + Render) and evaluates P on the
// result; the projection π*,k renders every projected degradable column
// at its purpose level. The coarse session flag enables the paper's §IV
// alternative: tuples past the demanded level qualify and are evaluated
// and projected at their actual (coarser) level.

// selectPlan carries the resolved context of one SELECT/UPDATE/DELETE.
type selectPlan struct {
	tbl *catalog.Table
	// levels[pos] is the demanded accuracy level per degradable column
	// position; -1 when the column is not referenced by the statement.
	levels []int
}

// resolveLevels computes the demanded accuracy per referenced degradable
// column under the purpose.
func resolveLevels(tbl *catalog.Table, purpose *catalog.Purpose, referenced map[string]bool) ([]int, error) {
	levels := make([]int, len(tbl.DegradableColumns()))
	for pos, ci := range tbl.DegradableColumns() {
		col := tbl.Columns[ci]
		if !referenced[col.Name] {
			levels[pos] = -1
			continue
		}
		lvl, ok := purpose.LevelFor(tbl.Name, col.Name)
		if !ok {
			return nil, fmt.Errorf("%w: %s.%s under purpose %s",
				ErrPurposeDenied, tbl.Name, col.Name, purpose.Name)
		}
		levels[pos] = lvl
	}
	return levels, nil
}

// referencedColumns collects every column name a SELECT touches.
func referencedColumns(tbl *catalog.Table, s *query.Select) map[string]bool {
	out := make(map[string]bool)
	star := false
	for _, it := range s.Items {
		switch {
		case it.Star:
			star = true
		case it.Col != nil:
			out[it.Col.Column] = true
		}
	}
	if s.Where != nil {
		query.ColumnsOf(s.Where, out)
	}
	for _, g := range s.GroupBy {
		out[g.Column] = true
	}
	// ORDER BY may name an output alias instead of a table column.
	aliases := make(map[string]bool)
	for _, it := range s.Items {
		if it.Alias != "" {
			aliases[strings.ToLower(it.Alias)] = true
		}
	}
	for _, o := range s.Order {
		if !aliases[o.Col.Column] {
			out[o.Col.Column] = true
		}
	}
	if star {
		for _, c := range tbl.Columns {
			out[c.Name] = true
		}
	}
	return out
}

// renderTuple builds the purpose-level view of a tuple: stable columns
// verbatim, referenced degradable columns degraded to their demanded
// level (or their actual coarser level under coarse semantics),
// unreferenced or erased degradable columns as NULL. ok=false when the
// tuple does not qualify under σP,k.
func (c *Conn) renderTuple(tbl *catalog.Table, levels []int, t *storage.Tuple) (row []value.Value, ok bool, err error) {
	row = make([]value.Value, len(tbl.Columns))
	copy(row, t.Row)
	for pos, ci := range tbl.DegradableColumns() {
		k := levels[pos]
		if k == -1 {
			row[ci] = value.Null()
			continue
		}
		j := visibleLevel(tbl, t, pos)
		if j == -1 {
			// Erased: the state is not computable at any accuracy.
			return nil, false, nil
		}
		eff := k
		if j > k {
			if !c.coarse {
				return nil, false, nil // state k not computable (paper core semantics)
			}
			eff = j // best-effort: coarser actual level
		}
		col := tbl.Columns[ci]
		v, err := renderAt(col.Domain, t.Row[ci], j, eff)
		if err != nil {
			return nil, false, fmt.Errorf("engine: render %s.%s: %w", tbl.Name, col.Name, err)
		}
		row[ci] = v
	}
	return row, true, nil
}

// tupleSource is where one read regime finds tuple images. σP,k itself
// (qualify) is the same over every source; what differs is which image
// of a tuple is read and what it takes to trust it.
type tupleSource interface {
	// get fetches one tuple; storage.ErrNoTuple means it is not there for
	// this reader (deleted, or not yet visible) and is skipped.
	get(storage.TupleID) (storage.Tuple, error)
	// scan visits every tuple until visit returns false.
	scan(visit func(storage.Tuple) bool) error
	// own lists tuples no index knows about (the transaction's
	// uncommitted writes); an indexed read visits them as well.
	own() []storage.TupleID
	// stableIndexOK gates the stable-column indexes (see planCandidates).
	stableIndexOK() bool
	// lock is the admit step of a tuple that passed σ: it takes whatever
	// lock the regime holds rows under and reports whether it took one.
	// If so the tuple is fetched again and re-verified, and unlock gives
	// the lock back when it no longer passes.
	lock(storage.TupleID) (bool, error)
	unlock(storage.TupleID)
}

// snapshotSource reads the tuple images visible at epoch snap with no
// locks and no overlay (its callers are autocommit SELECTs and read-only
// transactions, which have no write set). Degradable columns always
// render from their *current* accuracy state: a snapshot straddling an
// LCP deadline observes the degraded value, because expired states are
// scrubbed at their transition tick regardless of open snapshots (the
// documented deviation from classic snapshot isolation — see DESIGN.md).
type snapshotSource struct {
	ts   *storage.TableStore
	snap uint64
}

func (s snapshotSource) get(tid storage.TupleID) (storage.Tuple, error) {
	return s.ts.SnapshotGet(tid, s.snap)
}

// SnapshotScan calls back without holding the table latch, so σ runs
// inside the callback and only matching views are kept.
func (s snapshotSource) scan(visit func(storage.Tuple) bool) error {
	return s.ts.SnapshotScan(s.snap, visit)
}

func (snapshotSource) own() []storage.TupleID { return nil }

// Secondary indexes reflect only current tuple images, so while any
// tuple image superseded *after* the snapshot is retained, a
// stable-column index could miss a row whose matching value was
// overwritten post-snapshot — those reads fall back to a (still
// lock-free) scan.
func (s snapshotSource) stableIndexOK() bool { return !s.ts.HasVisibleHistory(s.snap) }

func (snapshotSource) lock(storage.TupleID) (bool, error) { return false, nil }
func (snapshotSource) unlock(storage.TupleID)             {}

// lockedSource reads current tuple images plus the open transaction's
// overlay, under strict 2PL. The engine is strictly no-steal, so storage
// only ever holds committed data and candidate gathering needs no row
// locks; a tuple that passes σ is then locked (S for reads, X for
// writes) and re-verified — it may have degraded between the unlocked
// read and the lock grant — which pins it against the degrader for the
// rest of the transaction.
type lockedSource struct {
	c    *Conn
	tbl  uint32
	ts   *storage.TableStore
	mode txn.LockMode
	ov   *tableOverlay     // never nil; empty when the transaction has not written the table
	mine []storage.TupleID // ov.tuples' ids, ascending
}

// openLocked takes the table's intention lock and opens the locked source.
func (c *Conn) openLocked(tbl *catalog.Table, mode txn.LockMode) (*lockedSource, error) {
	lsp := c.tr.Span(c.tsp, "lock_wait")
	err := c.db.locks.Acquire(c.tx.id, txn.TableRes(tbl.ID), intentionFor(mode))
	lsp.End()
	if err != nil {
		return nil, err
	}
	s := &lockedSource{c: c, tbl: tbl.ID, ts: c.db.mgr.Table(tbl), mode: mode, ov: c.tx.overlays[tbl.ID]}
	if s.ov == nil {
		s.ov = &tableOverlay{}
	}
	for tid := range s.ov.tuples {
		s.mine = append(s.mine, tid)
	}
	sort.Slice(s.mine, func(i, j int) bool { return s.mine[i] < s.mine[j] })
	return s, nil
}

func (s *lockedSource) get(tid storage.TupleID) (storage.Tuple, error) {
	if t, ok := s.ov.tuples[tid]; ok {
		return *t, nil
	}
	if s.ov.deleted[tid] {
		return storage.Tuple{}, storage.ErrNoTuple
	}
	return s.ts.Get(tid)
}

// scan visits the stored tuples the transaction has not touched, then
// its own. Scan holds the table latch while it calls back and visit
// waits on row locks, so the images are buffered first.
func (s *lockedSource) scan(visit func(storage.Tuple) bool) error {
	var raw []storage.Tuple
	err := s.ts.Scan(func(t storage.Tuple) bool {
		if !s.ov.deleted[t.ID] && s.ov.tuples[t.ID] == nil {
			raw = append(raw, t)
		}
		return true
	})
	if err != nil {
		return err
	}
	for _, tid := range s.mine {
		raw = append(raw, *s.ov.tuples[tid])
	}
	for i := range raw {
		if !visit(raw[i]) {
			break
		}
	}
	return nil
}

func (s *lockedSource) own() []storage.TupleID { return s.mine }
func (s *lockedSource) stableIndexOK() bool    { return true }

func (s *lockedSource) lock(tid storage.TupleID) (bool, error) {
	if s.ov.tuples[tid] != nil {
		return false, nil // our own write: nobody else can see it, let alone degrade it
	}
	return true, s.c.db.locks.Acquire(s.c.tx.id, txn.RowRes(s.tbl, tid), s.mode)
}

func (s *lockedSource) unlock(tid storage.TupleID) {
	s.c.db.locks.Release(s.c.tx.id, txn.RowRes(s.tbl, tid))
}

// qualify is σP,k over one tuple source: candidate generation (index or
// scan), dedupe, fetch, state qualification, fk rendering and the
// predicate (evalTuple), then lock-and-recheck where the source holds
// rows under locks. Every qualifying tuple goes to emit with its
// purpose-level view.
func (c *Conn) qualify(tbl *catalog.Table, where query.Expr, levels []int, src tupleSource,
	emit func(t *storage.Tuple, view []value.Value) error) error {

	var visitErr error
	visit := func(t storage.Tuple) bool {
		view, ok, err := c.evalTuple(tbl, levels, where, &t)
		if err == nil && ok {
			tid := t.ID
			var locked bool
			if locked, err = src.lock(tid); locked && err == nil {
				if t, err = src.get(tid); err == nil {
					view, ok, err = c.evalTuple(tbl, levels, where, &t)
				} else if errors.Is(err, storage.ErrNoTuple) {
					ok, err = false, nil
				}
				if !ok && err == nil {
					src.unlock(tid) // never used
				}
			}
		}
		if err == nil && ok {
			err = emit(&t, view)
		}
		visitErr = err
		return err == nil
	}

	candidates, indexed, err := c.planCandidates(tbl, where, levels, src)
	if err != nil {
		return err
	}
	if !indexed {
		if err := src.scan(visit); err != nil {
			return err
		}
		return visitErr
	}
	seen := make(map[storage.TupleID]bool, len(candidates))
	for _, tid := range append(candidates, src.own()...) {
		if seen[tid] {
			continue
		}
		seen[tid] = true
		t, err := src.get(tid)
		if errors.Is(err, storage.ErrNoTuple) {
			continue // degraded away, deleted, or not visible to this reader
		}
		if err != nil {
			return err // page I/O or record corruption: surface, don't drop rows
		}
		if !visit(t) {
			break
		}
	}
	return visitErr
}

// evalTuple is the σP,k evaluation of one tuple: fk rendering under the
// demanded levels, then the predicate on the rendered view.
func (c *Conn) evalTuple(tbl *catalog.Table, levels []int, where query.Expr, t *storage.Tuple) ([]value.Value, bool, error) {
	view, ok, err := c.renderTuple(tbl, levels, t)
	if err != nil || !ok {
		return nil, false, err
	}
	if where != nil {
		match, err := query.EvalPredicate(where, columnGetter(tbl, view))
		if err != nil || !match {
			return nil, false, err
		}
	}
	return view, true, nil
}

func intentionFor(m txn.LockMode) txn.LockMode {
	if m == txn.LockX {
		return txn.LockIX
	}
	return txn.LockIS
}

func columnGetter(tbl *catalog.Table, view []value.Value) query.ColGetter {
	return func(ref *query.ColumnRef) (value.Value, error) {
		ci, err := tbl.ColumnIndex(ref.Column)
		if err != nil {
			return value.Null(), err
		}
		return view[ci], nil
	}
}

// planCandidates inspects the WHERE conjuncts for one index-servable
// predicate and returns candidate tuple ids. indexed=false means no
// index applies (full scan). Whether a stable-column index can be
// trusted right now is the source's call, and it is asked again after
// the probe: storage records a supersede before the index is touched,
// so an update racing the probe always trips the second check.
// Degradable-column indexes stay usable either way — every source reads
// degradable columns at their current accuracy.
func (c *Conn) planCandidates(tbl *catalog.Table, where query.Expr, levels []int, src tupleSource) ([]storage.TupleID, bool, error) {
	if where == nil {
		return nil, false, nil
	}
	stableServable := func(inst *indexInst) bool {
		return inst.deg != -1 || src.stableIndexOK()
	}
	for _, conj := range query.Conjuncts(where) {
		sarg, ok := query.AsSargable(conj)
		if !ok {
			continue
		}
		ci, err := tbl.ColumnIndex(sarg.Col.Column)
		if err != nil {
			continue
		}
		for _, inst := range c.db.tableIndexes(tbl.ID) {
			if inst.col != ci {
				continue
			}
			if !stableServable(inst) {
				continue
			}
			tids, served, err := c.serveFromIndex(inst, sarg, levels)
			if err != nil {
				return nil, false, err
			}
			if served {
				if !stableServable(inst) {
					continue // supersede raced the probe; fall back
				}
				return tids, true, nil
			}
		}
	}
	return nil, false, nil
}

// serveFromIndex asks one index instance to produce candidates for a
// sargable predicate. served=false when this index cannot answer it.
func (c *Conn) serveFromIndex(inst *indexInst, s query.Sargable, levels []int) ([]storage.TupleID, bool, error) {
	if inst.deg == -1 {
		return serveStable(inst, s)
	}
	k := levels[inst.deg]
	if k < 0 {
		return nil, false, nil
	}
	if inst.tree != nil {
		return serveTree(inst, s, k)
	}
	return serveScalar(inst, s, k)
}

// serveStable answers predicates on stable BTree-indexed columns. Each
// constant is converted to the column's kind first (probeKeys), so the
// index answers what a scan comparing the two values would.
func serveStable(inst *indexInst, s query.Sargable) ([]storage.TupleID, bool, error) {
	if inst.bt == nil {
		return nil, false, nil
	}
	kind := inst.tbl.Columns[inst.col].Kind
	var floorBuf, ceilBuf [2][]byte
	floors, ceils := floorBuf[:0], ceilBuf[:0]
	for _, v := range s.Vals {
		floor, ceil, ok := probeKeys(kind, v)
		if !ok {
			return nil, false, nil
		}
		floors, ceils = append(floors, floor), append(ceils, ceil)
	}
	var out []storage.TupleID
	switch s.Op {
	case "=", "IN":
		for i := range s.Vals {
			// Distinct keys bracket a FLOAT no INT equals.
			if bytes.Equal(floors[i], ceils[i]) {
				out = inst.bt.AppendExact(out, floors[i])
			}
		}
	case "<":
		out = inst.bt.AppendRange(out, nil, ceils[0])
	case "<=":
		out = inst.bt.AppendRange(out, nil, append(floors[0], 0))
	case ">":
		out = inst.bt.AppendRange(out, append(floors[0], 0), nil)
	case ">=":
		out = inst.bt.AppendRange(out, ceils[0], nil)
	case "BETWEEN":
		out = inst.bt.AppendRange(out, ceils[0], append(floors[1], 0))
	default:
		return nil, false, nil
	}
	return out, true, nil
}

// exactFloatInts bounds the FLOATs whose order against every INT is the
// order of float64(INT) against them, the comparison a scan makes:
// below 2⁵³ in magnitude, no INT rounds across them.
const exactFloatInts = 1 << 53

// probeKeys returns the keys of predicate constant v in the key space of
// an index on a column of kind k: floor is the key of the greatest
// value of kind k at or below v, ceil that of the least at or above it,
// as a scan compares them. They differ only for a FLOAT that falls
// between two INTs of an INT column. An INT constant on a FLOAT column
// becomes the FLOAT a scan compares it as; a constant of any other kind
// keeps its own key, which sorts apart from the column's. ok=false
// leaves the predicate to the scan: a FLOAT on an INT column that is NaN
// or 2⁵³ or more in magnitude, whose comparison with the column rounds
// the column's values.
func probeKeys(k value.Kind, v value.Value) (floor, ceil []byte, ok bool) {
	switch {
	case k == value.KindInt && v.Kind() == value.KindFloat:
		f := v.Float()
		if !(math.Abs(f) < exactFloatInts) {
			return nil, nil, false
		}
		floor = value.AppendOrderedKey(nil, value.Int(int64(math.Floor(f))))
		if math.Floor(f) == f {
			return floor, floor, true
		}
		return floor, value.AppendOrderedKey(nil, value.Int(int64(math.Ceil(f)))), true
	case k == value.KindFloat && v.Kind() == value.KindInt:
		v = value.Float(float64(v.Int()))
	}
	key := value.AppendOrderedKey(nil, v)
	return key, key, true
}

// serveTree answers equality/IN on tree-domain columns at accuracy k:
// the predicate constant locates GT nodes at level k and the qualifying
// set is each node's subtree (tuples at level k or any finer level).
func serveTree(inst *indexInst, s query.Sargable, k int) ([]storage.TupleID, bool, error) {
	if s.Op != "=" && s.Op != "IN" {
		return nil, false, nil // tree domains have no order
	}
	var out []storage.TupleID
	for _, v := range s.Vals {
		storeds, err := inst.dom.Locate(v, k)
		if err != nil {
			if errors.Is(err, gentree.ErrUnknownValue) {
				continue // constant outside the domain: no matches
			}
			return nil, false, err
		}
		for _, sv := range storeds {
			node, ok := gentree.StoredToNode(sv)
			if !ok {
				continue
			}
			switch {
			case inst.gt != nil:
				out = inst.gt.CollectSubtree(node, out)
			case inst.bm != nil:
				inst.bm.QuerySubtree(node).ForEach(func(tid storage.TupleID) bool {
					out = append(out, tid)
					return true
				})
			case inst.bt != nil:
				lo, hi := index.TreePrefix(inst.tree, node)
				out = inst.bt.AppendRange(out, lo, hi)
			}
		}
	}
	return out, true, nil
}

// serveScalar answers equality on scalar-domain columns at accuracy k:
// the constant's bucket at level k spans an order-key interval, scanned
// at every level <= k (bucket nesting keeps this exact).
func serveScalar(inst *indexInst, s query.Sargable, k int) ([]storage.TupleID, bool, error) {
	if inst.bt == nil || (s.Op != "=" && s.Op != "IN") {
		return nil, false, nil
	}
	var out []storage.TupleID
	for _, v := range s.Vals {
		storeds, err := inst.dom.Locate(v, k)
		if err != nil {
			if errors.Is(err, gentree.ErrUnknownValue) {
				continue
			}
			return nil, false, err
		}
		for _, sv := range storeds {
			lo, hi, err := bucketSpan(inst.dom, sv, k)
			if err != nil {
				if errors.Is(err, gentree.ErrNotOrdered) {
					return nil, false, nil // suppressed level: fall back to scan
				}
				return nil, false, err
			}
			for lvl := 0; lvl <= k; lvl++ {
				klo, khi := index.ScalarLevelRange(lvl, lo, hi)
				out = inst.bt.AppendRange(out, klo, khi)
			}
		}
	}
	return out, true, nil
}

func bucketSpan(dom gentree.Domain, stored value.Value, level int) (lo, hi value.Value, err error) {
	switch d := dom.(type) {
	case *gentree.IntRange:
		return d.BucketSpan(stored, level)
	case *gentree.TimeTrunc:
		return d.BucketSpan(stored, level)
	default:
		return value.Null(), value.Null(), gentree.ErrNotOrdered
	}
}

// runSelectRef executes a SELECT under the session (or FOR PURPOSE)
// purpose, with an optionally precomputed referenced-column set (a
// prepared statement's cached plan input; nil recomputes). Callers go
// through Conn.execSelect, which owns the transaction-abort handling.
func (c *Conn) runSelectRef(s *query.Select, referenced map[string]bool) (*Result, error) {
	tbl, err := c.db.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	purpose := c.purpose
	if s.Purpose != "" {
		purpose, err = c.db.cat.Purpose(s.Purpose)
		if err != nil {
			return nil, err
		}
	}
	psp := c.tr.Span(c.tsp, "plan")
	if referenced == nil {
		referenced = referencedColumns(tbl, s)
	}
	for name := range referenced {
		if _, err := tbl.ColumnIndex(name); err != nil {
			psp.End()
			return nil, err
		}
	}
	levels, err := resolveLevels(tbl, purpose, referenced)
	var shape *query.Shape
	if err == nil {
		shape, err = query.NewShape(s, tbl.ColumnNames())
	}
	psp.End()
	if err != nil {
		return nil, err
	}

	// Two read regimes, one pipeline: source → σP,k → shape. Autocommit
	// SELECTs and read-only transactions read a versioned snapshot with no
	// locks at all, so they never wait on the degradation engine and it
	// never waits on them. Reads inside an explicit read-write
	// transaction keep strict 2PL: S row locks held to commit, pinning the
	// matched rows against the degrader for the rest of the transaction.
	var src tupleSource
	var rsp *trace.S
	if c.tx != nil && !c.tx.readOnly {
		c.db.met.lockedReads.Inc()
		rsp = c.tr.Span(c.tsp, "locked_read")
		src, err = c.openLocked(tbl, txn.LockS)
	} else {
		c.db.met.snapshotReads.Inc()
		rsp = c.tr.Span(c.tsp, "snapshot_read")
		var snap uint64
		if c.tx != nil {
			snap = c.tx.snap
		} else {
			snap = c.db.epochs.Snapshot()
			defer c.db.epochs.Release(snap)
		}
		src = snapshotSource{c.db.mgr.Table(tbl), snap}
	}
	acc := shape.Begin()
	if err == nil {
		err = c.qualify(tbl, s.Where, levels, src, func(_ *storage.Tuple, view []value.Value) error {
			return acc.Feed(view)
		})
	}
	rsp.End()
	if err != nil {
		return nil, err
	}
	data, err := acc.Rows()
	if err != nil {
		return nil, err
	}
	return &Result{Rows: &Rows{Columns: shape.Columns, Data: data}, RowsAffected: len(data)}, nil
}
