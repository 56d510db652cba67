package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"instantdb/internal/catalog"
	"instantdb/internal/gentree"
	"instantdb/internal/index"
	"instantdb/internal/storage"
	"instantdb/internal/value"
	"instantdb/internal/wal"
)

// indexInst is a live secondary index over one column.
type indexInst struct {
	def  catalog.IndexDef
	tbl  *catalog.Table
	col  int
	deg  int // degradable position, -1 for stable columns
	dom  gentree.Domain
	tree *gentree.Tree // non-nil for tree domains
	bt   *index.BTree
	bm   *index.Bitmap
	gt   *index.GTIndex
}

// newIndexInst materializes an empty index on tbl for a definition.
func newIndexInst(tbl *catalog.Table, def catalog.IndexDef) (*indexInst, error) {
	inst := &indexInst{def: def, tbl: tbl, col: def.Column, deg: tbl.DegradablePos(def.Column)}
	if inst.deg != -1 {
		inst.dom = tbl.Columns[def.Column].Domain
		inst.tree, _ = inst.dom.(*gentree.Tree)
	}
	switch def.Type {
	case catalog.IndexBTree:
		inst.bt = index.NewBTree()
	case catalog.IndexBitmap:
		if inst.tree == nil {
			return nil, fmt.Errorf("engine: bitmap index %s requires a tree domain", def.Name)
		}
		inst.bm = index.NewBitmap(inst.tree)
	case catalog.IndexGT:
		if inst.tree == nil {
			return nil, fmt.Errorf("engine: GT index %s requires a tree domain", def.Name)
		}
		inst.gt = index.NewGTIndex(inst.tree)
	}
	return inst, nil
}

// buildIndexInst materializes one index definition from its table's
// current content (CREATE INDEX, and the primary key's index at CREATE
// TABLE). Caller holds db.mu.
func (db *DB) buildIndexInst(def catalog.IndexDef) error {
	tbl, err := db.cat.Table(def.Table)
	if err != nil {
		return err
	}
	return db.buildIndexes(tbl, []catalog.IndexDef{def}, func(*storage.Tuple) {})
}

// buildIndexes materializes and publishes defs, all indexes of tbl,
// decoding the table's tuples once: the pass hands every tuple to each
// (the recovery path enqueues its pending transitions there), registers
// it with bitmap and GT indexes directly, and appends one (key, tuple id)
// pair per B+tree index to that index's run. The runs are then sorted and
// bulk-built side by side, one goroutine per B+tree index of the table,
// all finished before this returns.
func (db *DB) buildIndexes(tbl *catalog.Table, defs []catalog.IndexDef, each func(*storage.Tuple)) error {
	insts := make([]*indexInst, len(defs))
	for i, def := range defs {
		inst, err := newIndexInst(tbl, def)
		if err != nil {
			return err
		}
		insts[i] = inst
	}
	ts := db.mgr.Table(tbl)
	runs := make([][]index.Entry, len(insts))
	for i, inst := range insts {
		if inst.bt != nil {
			runs[i] = make([]index.Entry, 0, ts.Count())
		}
	}
	err := ts.Scan(func(t storage.Tuple) bool {
		each(&t)
		for i, inst := range insts {
			if inst.bt == nil {
				inst.add(&t)
			} else if k, ok := inst.keyOf(&t); ok {
				runs[i] = append(runs[i], index.Entry{Key: k, TID: t.ID})
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(insts))
	for i, inst := range insts {
		if inst.bt == nil {
			continue
		}
		wg.Add(1)
		go func(i int, inst *indexInst) {
			defer wg.Done()
			slices.SortFunc(runs[i], index.CompareEntries)
			inst.bt, errs[i] = index.BuildBTree(runs[i])
		}(i, inst)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, inst := range insts {
		db.publishIndex(inst)
	}
	return nil
}

// publishIndex registers an index instance copy-on-write, so slices
// handed out by tableIndexes stay immutable. Caller holds db.mu.
func (db *DB) publishIndex(inst *indexInst) {
	db.idxMu.Lock()
	defer db.idxMu.Unlock()
	db.indexes[inst.def.Name] = inst
	old := db.byTable[inst.tbl.ID]
	next := make([]*indexInst, len(old), len(old)+1)
	copy(next, old)
	db.byTable[inst.tbl.ID] = append(next, inst)
}

// tableIndexes snapshots a table's index list for query planning without
// taking db.mu. The returned slice is never mutated: DDL replaces it
// wholesale under idxMu.
func (db *DB) tableIndexes(tableID uint32) []*indexInst {
	db.idxMu.RLock()
	defer db.idxMu.RUnlock()
	return db.byTable[tableID]
}

// dropIndexInst unregisters an index instance copy-on-write. Caller
// holds db.mu.
func (db *DB) dropIndexInst(inst *indexInst) {
	db.idxMu.Lock()
	defer db.idxMu.Unlock()
	delete(db.indexes, inst.def.Name)
	old := db.byTable[inst.tbl.ID]
	next := make([]*indexInst, 0, len(old))
	for _, x := range old {
		if x != inst {
			next = append(next, x)
		}
	}
	db.byTable[inst.tbl.ID] = next
}

// dropTableIndexes unregisters every index of a table. Caller holds db.mu.
func (db *DB) dropTableIndexes(tableID uint32) {
	db.idxMu.Lock()
	defer db.idxMu.Unlock()
	for _, inst := range db.byTable[tableID] {
		delete(db.indexes, inst.def.Name)
	}
	delete(db.byTable, tableID)
}

// rebuildDerived reconstructs what recovery does not persist — every
// catalog index and the degradation queues — in one pass over each
// table's pages (see buildIndexes).
func (db *DB) rebuildDerived() error {
	db.idxMu.Lock()
	db.indexes = make(map[string]*indexInst)
	db.byTable = make(map[uint32][]*indexInst)
	db.idxMu.Unlock()
	return db.deg.Reseed(func(enqueue func(*catalog.Table, *storage.Tuple)) error {
		for _, tbl := range db.cat.Tables() {
			err := db.buildIndexes(tbl, db.cat.Indexes(tbl.Name), func(t *storage.Tuple) { enqueue(tbl, t) })
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// keyOf builds the BTree key for a tuple's indexed column, ok=false when
// the value is not indexable (erased attribute, NULL, no order key).
func (inst *indexInst) keyOf(t *storage.Tuple) ([]byte, bool) {
	if inst.deg == -1 {
		return inst.keyFor(t.Row[inst.col], 0)
	}
	return inst.keyFor(t.Row[inst.col], t.States[inst.deg])
}

// keyFor builds the BTree key of the indexed column holding stored form
// v in LCP state st (stable columns have no state).
func (inst *indexInst) keyFor(v value.Value, st uint8) ([]byte, bool) {
	if inst.deg == -1 {
		if v.IsNull() {
			return nil, false
		}
		return index.StableKey(v), true
	}
	if st == storage.StateErased || v.IsNull() {
		return nil, false
	}
	level := inst.tbl.Columns[inst.col].Policy.LevelOf(int(st))
	if inst.tree != nil {
		k, err := index.TreePathKey(inst.tree, v, level)
		if err != nil {
			return nil, false
		}
		return k, true
	}
	k, err := index.ScalarLevelKey(inst.dom, v, level)
	if err != nil {
		return nil, false
	}
	return k, true
}

// nodeOf returns the GT node of a tuple's tree-domain column.
func (inst *indexInst) nodeOf(t *storage.Tuple) (gentree.NodeID, bool) {
	return nodeFor(t.Row[inst.col], t.States[inst.deg])
}

// nodeFor returns the GT node of stored form v in LCP state st.
func nodeFor(v value.Value, st uint8) (gentree.NodeID, bool) {
	if v.IsNull() || st == storage.StateErased {
		return gentree.InvalidNode, false
	}
	return gentree.StoredToNode(v)
}

// add registers a tuple.
func (inst *indexInst) add(t *storage.Tuple) {
	switch {
	case inst.bt != nil:
		if k, ok := inst.keyOf(t); ok {
			inst.bt.Add(k, t.ID)
		}
	case inst.bm != nil:
		if n, ok := inst.nodeOf(t); ok {
			inst.bm.Add(n, t.ID)
		}
	case inst.gt != nil:
		if n, ok := inst.nodeOf(t); ok {
			inst.gt.Add(n, t.ID)
		}
	}
}

// remove unregisters a tuple.
func (inst *indexInst) remove(t *storage.Tuple) {
	switch {
	case inst.bt != nil:
		if k, ok := inst.keyOf(t); ok {
			inst.bt.Remove(k, t.ID)
		}
	case inst.bm != nil:
		if n, ok := inst.nodeOf(t); ok {
			inst.bm.Remove(n, t.ID)
		}
	case inst.gt != nil:
		if n, ok := inst.nodeOf(t); ok {
			inst.gt.Remove(n, t.ID)
		}
	}
}

// degrade maintains the index across one LCP transition of the
// degradable column it indexes; before is that column ahead of the
// transition. An index on any other column has no work: tuple ids are
// stable.
func (inst *indexInst) degrade(before storage.DegCell, newStored value.Value, newState uint8) {
	id, oldStored, oldState := before.ID, before.Stored, before.State
	switch {
	case inst.bt != nil:
		if k, ok := inst.keyFor(oldStored, oldState); ok {
			inst.bt.Remove(k, id)
		}
		if k, ok := inst.keyFor(newStored, newState); ok {
			inst.bt.Add(k, id)
		}
	case inst.bm != nil:
		from, okF := nodeFor(oldStored, oldState)
		to, okT := nodeFor(newStored, newState)
		switch {
		case okF && okT:
			inst.bm.Move(from, to, id)
		case okF:
			inst.bm.Remove(from, id)
		case okT:
			inst.bm.Add(to, id)
		}
	case inst.gt != nil:
		from, okF := nodeFor(oldStored, oldState)
		to, okT := nodeFor(newStored, newState)
		switch {
		case okF && okT:
			inst.gt.Move(from, to, id)
		case okF:
			inst.gt.Remove(from, id)
		case okT:
			inst.gt.Add(to, id)
		}
	}
}

// indexed reports whether some index of table tableID satisfies on.
func (db *DB) indexed(tableID uint32, on func(*indexInst) bool) bool {
	return slices.ContainsFunc(db.byTable[tableID], on)
}

// origin is where a batch of records comes from, which decides what
// applying it maintains besides storage.
type origin uint8

const (
	// replay: WAL replay at open; recovery rebuilds indexes and
	// degradation queues afterwards in bulk, so applying maintains
	// neither.
	replay origin = iota
	// local: a user transaction or a degradation batch of this database.
	local
	// replicated: a leader's batch on a replica, whose transitions
	// schedule the replica's own follow-ups (applyDegrades).
	replicated
)

// applyRecords applies redo records to storage (always) and to indexes
// and degradation queues (live batches only, not replay), one run at a
// time: a run is a stretch of consecutive records of one type and one
// table — for transitions also one degradable column — and applies under
// one hold of the table's storage lock, each page it touches copied in
// and out once.
func (db *DB) applyRecords(recs []*wal.Record, from origin) error {
	for len(recs) > 0 {
		head, n := recs[0], 1
		for n < len(recs) && recs[n].Type == head.Type && recs[n].Table == head.Table &&
			(head.Type != wal.RecDegrade || recs[n].DegPos == head.DegPos) {
			n++
		}
		if err := db.applyRun(recs[:n], from); err != nil {
			return err
		}
		recs = recs[n:]
	}
	return nil
}

// applyRun applies one run (see applyRecords).
func (db *DB) applyRun(run []*wal.Record, from origin) error {
	head := run[0]
	if head.Type == wal.RecReplMark {
		// Follower resume bookkeeping; no storage effect. Handled before
		// the table lookup — marks carry no table.
		last := run[len(run)-1]
		db.replPos = wal.Pos{Seg: last.ReplSeg, Off: last.ReplOff}
		return nil
	}
	tbl, err := db.cat.TableByID(head.Table)
	if err != nil {
		// The records of a dropped table have nothing to apply to: replay
		// meets them, and so does a batch that a DROP TABLE overtook
		// between its append and its apply.
		return nil
	}
	ts, live := db.mgr.Table(tbl), from != replay
	switch head.Type {
	case wal.RecInsert:
		return db.applyInserts(tbl, ts, run, live)
	case wal.RecDegrade:
		return db.applyDegrades(tbl, ts, run, from)
	case wal.RecDelete:
		return db.applyDeletes(tbl, ts, run, live)
	case wal.RecUpdateStable:
		return db.applyUpdates(tbl, ts, run, live)
	default:
		return fmt.Errorf("engine: unknown record type %d", head.Type)
	}
}

// tupleIDs returns the tuple id of each record of a run.
func tupleIDs(run []*wal.Record) []storage.TupleID {
	ids := make([]storage.TupleID, len(run))
	for i, r := range run {
		ids[i] = r.Tuple
	}
	return ids
}

// applyInserts stores an insert run, then registers it with the indexes
// and the degradation queues, which take the tuples as just stored:
// reading them back from their pages would only copy the pages once
// more.
func (db *DB) applyInserts(tbl *catalog.Table, ts *storage.TableStore, run []*wal.Record, live bool) error {
	cols := len(tbl.Columns)
	tups := make([]storage.Tuple, len(run))
	vals := make([]value.Value, len(run)*cols)
	for i, r := range run {
		row := vals[i*cols : (i+1)*cols : (i+1)*cols]
		copy(row, r.StableRow)
		for j, col := range tbl.DegradableColumns() {
			if j < len(r.DegVals) {
				row[col] = r.DegVals[j]
			}
		}
		tups[i] = storage.Tuple{ID: r.Tuple, InsertedAt: time.Unix(0, r.InsertNano).UTC(), States: r.States, Row: row}
	}
	if err := ts.InsertRun(tups); err != nil {
		return err
	}
	if live {
		for _, inst := range db.byTable[tbl.ID] {
			for i := range tups {
				inst.add(&tups[i])
			}
		}
		db.deg.OnInsertRun(tbl, tups)
	}
	return nil
}

// applyDeletes applies a delete run: indexes first, from the tuples'
// images read with one GetMany, then storage, with one DeleteRun. A
// tuple the run names twice is unregistered twice, which is a no-op.
func (db *DB) applyDeletes(tbl *catalog.Table, ts *storage.TableStore, run []*wal.Record, live bool) error {
	ids := tupleIDs(run)
	if insts := db.byTable[tbl.ID]; live && len(insts) > 0 {
		before, err := ts.GetMany(ids)
		if err != nil {
			return err
		}
		for i := range before {
			if before[i].ID != 0 {
				for _, inst := range insts {
					inst.remove(&before[i])
				}
			}
		}
	}
	return ts.DeleteRun(ids)
}

// applyUpdates applies a run of stable-column updates: storage first,
// with one UpdateRun, then the indexes on the updated columns. UpdateRun
// records each superseded image (and the table's supersede epoch) before
// any index entry moves, so a snapshot reader whose index probe races
// this run always sees the history marker on its post-probe re-check
// (planCandidates) and falls back to a scan instead of silently missing
// the row. Only the indexes on an updated column move, so only they need
// the before-images, read with one GetMany ahead of UpdateRun; each
// after-image is its before-image with the new value, not a second read.
func (db *DB) applyUpdates(tbl *catalog.Table, ts *storage.TableStore, run []*wal.Record, live bool) error {
	ups := make([]storage.StableUpdate, len(run))
	for i, r := range run {
		ups[i] = storage.StableUpdate{ID: r.Tuple, Col: int(r.Col), Val: r.Val}
	}
	onCol := func(inst *indexInst) bool {
		return slices.ContainsFunc(ups, func(u storage.StableUpdate) bool { return u.Col == inst.col })
	}
	var imgs []storage.Tuple
	if live && db.indexed(tbl.ID, onCol) {
		var err error
		if imgs, err = ts.GetMany(tupleIDs(run)); err != nil {
			return err
		}
	}
	if err := ts.UpdateRun(ups); err != nil {
		return err
	}
	// A tuple the run names twice: its later update starts where the
	// earlier one left it.
	latest := make(map[storage.TupleID]storage.Tuple)
	for i, old := range imgs {
		if old.ID == 0 {
			continue
		}
		if t, ok := latest[old.ID]; ok {
			old = t
		}
		up := &ups[i]
		after := old
		after.Row = slices.Clone(old.Row)
		after.Row[up.Col] = up.Val
		for _, inst := range db.byTable[tbl.ID] {
			if inst.col == up.Col {
				inst.remove(&old)
				inst.add(&after)
			}
		}
		latest[old.ID] = after
	}
	return nil
}

// applyDegrades applies a run of transitions of one degradable column.
// The column's before-states are read, with one DegradableMany, only for
// what needs them: the indexes on the column, moved before storage is,
// and a replica's follow-up scheduling.
func (db *DB) applyDegrades(tbl *catalog.Table, ts *storage.TableStore, run []*wal.Record, from origin) error {
	pos := int(run[0].DegPos)
	onCol := func(inst *indexInst) bool { return inst.deg == pos }
	var before []storage.DegCell
	dups := false
	if from == replicated || (from == local && db.indexed(tbl.ID, onCol)) {
		ids := tupleIDs(run)
		var err error
		if before, err = ts.DegradableMany(ids, pos); err != nil {
			return err
		}
		slices.Sort(ids)
		dups = len(slices.Compact(ids)) < len(run)
	}
	to := make([]storage.DegCell, 0, len(run))
	var ext []*wal.Record // transitions a replica schedules follow-ups for
	for i, r := range run {
		next := storage.DegCell{ID: r.Tuple, State: r.NewState, Stored: r.NewStored}
		if before != nil && before[i].ID != 0 {
			c := before[i]
			if dups {
				// A tuple the run names twice: its later transition
				// starts where the earlier one left it.
				for k := len(to) - 1; k >= 0; k-- {
					if to[k].ID == r.Tuple {
						c = to[k]
						break
					}
				}
			}
			// Monotone gate, mirroring storage's: a transition the
			// attribute already made (a leader batch landing after the
			// replica's own clock fired it) must not touch the indexes
			// either — moving an entry back to a more accurate key would
			// resurrect expired accuracy in index structure.
			if !storage.StateAdvances(c.State, r.NewState) {
				continue
			}
			for _, inst := range db.byTable[tbl.ID] {
				if onCol(inst) {
					inst.degrade(c, r.NewStored, r.NewState)
				}
			}
		}
		to = append(to, next)
		if from == replicated {
			ext = append(ext, r)
		}
	}
	if err := ts.DegradeRun(pos, to); err != nil {
		return err
	}
	// Autonomous-clock rule: an externally committed transition must
	// schedule this replica's own follow-up transition, so the next
	// deadline fires on the replica's clock even if the leader is
	// partitioned away when it comes due. Locally fired transitions don't
	// pass here: the degrade engine enqueues their follow-ups itself.
	for _, r := range ext {
		db.deg.OnExternalTransition(tbl, r.Tuple, pos, r.NewState, r.InsertNano)
	}
	return nil
}
