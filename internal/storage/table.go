package storage

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"instantdb/internal/catalog"
	"instantdb/internal/value"
)

// ErrNoTuple is returned for operations on unknown tuple ids.
var ErrNoTuple = errors.New("storage: no such tuple")

// openSpaceThreshold removes a page from the open list once its free
// space drops below this many bytes.
const openSpaceThreshold = 64

var pagePool = sync.Pool{New: func() any {
	b := make([]byte, PageSize)
	return &b
}}

// segment is the set of pages holding tuples of one tuple state (the
// paper's STk subset). Tables with LayoutInPlace use a single mixed
// segment.
type segment struct {
	pages map[PageID]struct{}
	open  []PageID // pages believed to have insert space
}

func newSegment() *segment { return &segment{pages: make(map[PageID]struct{})} }

// MaxTupleVersions bounds the per-row version chain of the snapshot
// read path. When an update would push the chain past the cap, the
// oldest version is dropped and its birth epoch merged into its
// successor, so every snapshot still resolves to *a* version — at worst
// one slightly newer than the snapshot (bounded staleness) — and chain
// memory stays O(1) per hot row.
const MaxTupleVersions = 4

// tupleVersion is one superseded row image, visible to snapshots in
// [born, died). Chains are contiguous: each version's died equals the
// next version's born, and the last version's died equals the current
// tuple's birth epoch.
type tupleVersion struct {
	born, died uint64
	t          Tuple
}

// TableStore stores the tuples of one table. All methods are safe for
// concurrent use; logical isolation (two-phase locking for writers,
// snapshot epochs for the lock-free read path) lives in the transaction
// layer above.
type TableStore struct {
	mu  sync.RWMutex
	mgr *Manager
	tbl *catalog.Table
	// dir locates every live tuple; births holds the epoch its current
	// image became visible at while a snapshot can tell it from 0 (see
	// directory.go).
	dir     directory
	births  births
	segs    map[uint64]*segment
	pageSeg map[PageID]uint64
	nextID  TupleID

	// hist holds superseded images for snapshot readers — written by
	// stable-column updates only. Degradation transitions never create
	// versions: they overwrite the degradable column in place *and* in
	// every retained version, and deletions drop the whole chain, so no
	// accuracy state outlives its LCP deadline in a version chain (the
	// intentional deviation from classic snapshot isolation).
	hist map[TupleID][]tupleVersion
	// lastSupersede is the highest epoch at which any stable-column
	// update superseded a tuple image (monotone: epochs only grow). A
	// snapshot at or past it provably sees every current image, so
	// stable-column indexes serve it exactly; older snapshots may need
	// chain images (HasVisibleHistory).
	lastSupersede uint64

	// scans counts active SnapshotScans; while it is non-zero,
	// relocated records every tuple that moved between pages (segment
	// moves during degradation, oversized in-place rewrites), so a scan
	// can re-examine exactly the tuples its page-list snapshot may have
	// missed — bounded by mid-scan churn, never by table size. The list
	// is truncated when the last scan finishes.
	scans     int
	relocated []TupleID

	// run holds the pages of the run being applied: every write method
	// is a run, of one tuple or of many, and reads and modifies pages
	// only through runPage (see there). A slice with linear search, not
	// a map: it never holds more than runPages entries, and an emptied
	// map would keep its buckets. Empty whenever ts.mu is free.
	run []runBuf
}

// runPages bounds a run: the first page past it writes the dirty ones
// back first, so a run of any size holds at most runPages pooled
// buffers (256 KiB).
const runPages = 64

// runBuf is one page a run holds, in a pagePool buffer.
type runBuf struct {
	id    PageID
	buf   *[]byte
	dirty bool
}

func newTableStore(mgr *Manager, tbl *catalog.Table) *TableStore {
	return &TableStore{
		mgr:     mgr,
		tbl:     tbl,
		dir:     newDirectory(),
		segs:    make(map[uint64]*segment),
		pageSeg: make(map[PageID]uint64),
		hist:    make(map[TupleID][]tupleVersion),
	}
}

// Def returns the catalog definition this store serves.
func (ts *TableStore) Def() *catalog.Table { return ts.tbl }

// segKeyFor maps a tuple state vector to its segment key under the
// table's layout: state-partitioned for LayoutMove, one mixed segment for
// LayoutInPlace.
func (ts *TableStore) segKeyFor(states []uint8) uint64 {
	if ts.tbl.Layout == catalog.LayoutInPlace {
		return 0
	}
	return stateKey(states)
}

// ReserveID allocates a tuple id without storing anything. The engine
// reserves ids for transaction write sets so WAL records carry final ids
// before the deferred apply.
func (ts *TableStore) ReserveID() TupleID {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.nextID++
	return ts.nextID
}

// Insert stores a new tuple under the next free id and returns the id: a
// run of one (InsertRun).
func (ts *TableStore) Insert(row []value.Value, states []uint8, at time.Time) (TupleID, error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	id := ts.nextID + 1
	if err := ts.insertRunLocked([]Tuple{{ID: id, InsertedAt: at, States: states, Row: row}}); err != nil {
		return 0, err
	}
	return id, nil
}

// InsertWithID stores a tuple under a caller-chosen id, or does nothing
// if the id exists (idempotent redo during recovery): a run of one
// (InsertRun).
func (ts *TableStore) InsertWithID(id TupleID, row []value.Value, states []uint8, at time.Time) error {
	return ts.InsertRun([]Tuple{{ID: id, InsertedAt: at, States: states, Row: row}})
}

// InsertRun stores tuples under their caller-chosen ids (the engine
// reserves them before the commit), in order, under one hold of the
// table lock: each page the run touches is read once and written back
// once (runPage), and every record is encoded into one buffer. A tuple
// whose id already exists is skipped (idempotent redo during recovery).
// A tuple that fails ends the run; the ones before it are stored.
func (ts *TableStore) InsertRun(tups []Tuple) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.insertRunLocked(tups)
}

func (ts *TableStore) insertRunLocked(tups []Tuple) error {
	var stack [512]byte
	rec := stack[:0]
	return ts.runLocked(len(tups), func(i int) (err error) {
		rec, err = ts.insertLocked(rec[:0], &tups[i])
		return err
	})
}

// maxStoredForm is the longest stored form a domain gives a degradable
// column at any state of its life cycle: an INT (a tree node, a range's
// bucket floor) takes a kind byte and up to a 10-byte varint. A truncated
// TIME takes 9 bytes and an erased value, NULL, one.
const maxStoredForm = 1 + binary.MaxVarintLen64

// CheckRecordSize reports whether a row of tbl fits a page at every state
// of its life cycle, without encoding it. The engine calls it at
// statement time so an oversized row is refused as a plain SQL error
// before its redo record reaches the durable log — a record appended to
// the WAL must never fail to apply, to replay during recovery, or to
// take a later degradation step. It bounds the largest form the record
// can take: the delta prefix at its widest, whatever the page's frame,
// the state vector, and each degradable column at the larger of its
// current form and maxStoredForm.
func CheckRecordSize(tbl *catalog.Table, row []value.Value) error {
	deg := tbl.DegradableColumns()
	n := maxRecordPrefix + 1 + len(deg) + value.RowEncodedSize(row)
	for _, col := range deg {
		n += max(0, maxStoredForm-value.EncodedSize(row[col]))
	}
	if n > MaxRecordSize {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrRecordTooLarge, n, MaxRecordSize)
	}
	return nil
}

// insertLocked encodes tuple t into rec's space and places it, unless
// its id exists; it returns the record, whose space the run reuses.
func (ts *TableStore) insertLocked(rec []byte, t *Tuple) ([]byte, error) {
	if ts.dir.get(t.ID) != nil {
		return rec, nil
	}
	if len(t.Row) != len(ts.tbl.Columns) {
		return rec, fmt.Errorf("storage: %s: row has %d columns, want %d", ts.tbl.Name, len(t.Row), len(ts.tbl.Columns))
	}
	if len(t.States) != len(ts.tbl.DegradableColumns()) {
		return rec, fmt.Errorf("storage: %s: state vector has %d entries, want %d",
			ts.tbl.Name, len(t.States), len(ts.tbl.DegradableColumns()))
	}
	// Encoded in its own frame, the record's prefix is two zero bytes,
	// and a fresh page takes it as it is.
	own := frame{id: t.ID, nanos: t.InsertedAt.UnixNano()}
	rec = encodeRecord(rec, own, t.ID, t.InsertedAt, t.States, t.Row)
	rid, err := ts.placeLocked(ts.segKeyFor(t.States), rec, own)
	if err != nil {
		return rec, err
	}
	ts.dir.put(t.ID, rid)
	ts.bornLocked(t.ID, ts.mgr.stamp.Load())
	ts.nextID = max(ts.nextID, t.ID)
	return rec, nil
}

// bornLocked records that id's current image was written at epoch e. An
// image at or below the low-water mark is visible to every snapshot a
// reader holds or can take, and keeps no birth (and the run's drain left
// none older). Caller holds ts.mu.
func (ts *TableStore) bornLocked(id TupleID, e uint64) {
	if e > ts.mgr.lowWater.Load() {
		ts.births.set(id, e)
	}
}

// runPage returns page pid as the run in progress holds it. The run's
// first touch of a page reads it through the Manager (load) or, for a
// page just allocated, leaves its buffer to the caller to initialize;
// later touches find it in the run, where it is modified in place, so a
// page costs one read and one write however many of the run's tuples it
// holds. The caller sets dirty on what it modifies; endRunLocked writes
// the dirty pages back, and so does the run's first page past runPages,
// before it is read. The pointer is valid until the run's next runPage
// or recyclePageLocked. Caller holds ts.mu.
func (ts *TableStore) runPage(pid PageID, load bool) (*runBuf, error) {
	for i := range ts.run {
		if ts.run[i].id == pid {
			return &ts.run[i], nil
		}
	}
	if len(ts.run) == runPages {
		if err := ts.endRunLocked(nil); err != nil {
			return nil, err
		}
	}
	bufp := pagePool.Get().(*[]byte)
	if load {
		if err := ts.mgr.readPage(pid, *bufp); err != nil {
			pagePool.Put(bufp)
			return nil, err
		}
	}
	ts.run = append(ts.run, runBuf{id: pid, buf: bufp})
	return &ts.run[len(ts.run)-1], nil
}

// runLocked applies items 0 to n-1 of a run in order with apply, and
// ends the run: the first item that fails ends it, the ones before it
// applied. It first forgets the births the low-water mark has passed,
// which SetLowWater leaves to it when the table is busy. Caller holds
// ts.mu.
func (ts *TableStore) runLocked(n int, apply func(i int) error) error {
	ts.births.drain(ts.mgr.lowWater.Load())
	var err error
	for i := 0; i < n && err == nil; i++ {
		err = apply(i)
	}
	return ts.endRunLocked(err)
}

// endRunLocked ends the run in progress: its dirty pages go back to the
// Manager in page id order, and every buffer to the pool. A failed write
// does not stop the others. It returns err if set, else the first
// write-back error.
func (ts *TableStore) endRunLocked(err error) error {
	slices.SortFunc(ts.run, func(a, b runBuf) int { return cmp.Compare(a.id, b.id) })
	for _, p := range ts.run {
		if p.dirty {
			if werr := ts.mgr.writePage(p.id, *p.buf); err == nil {
				err = werr
			}
		}
		pagePool.Put(p.buf)
	}
	clear(ts.run)
	ts.run = ts.run[:0]
	return err
}

// placeLocked finds room for rec, a record encoded in frame from, in the
// segment and writes it rebased into its page's frame: the most recently
// opened page with room, else a fresh page, whose frame rec sets.
func (ts *TableStore) placeLocked(key uint64, rec []byte, from frame) (RID, error) {
	if err := checkFits(rec); err != nil {
		return RID{}, err
	}
	seg, ok := ts.segs[key]
	if !ok {
		seg = newSegment()
		ts.segs[key] = seg
	}
	for len(seg.open) > 0 {
		pid := seg.open[len(seg.open)-1]
		p, err := ts.runPage(pid, true)
		if err != nil {
			return RID{}, err
		}
		slot, ok := pageInsert(*p.buf, rec, from)
		if ok {
			p.dirty = true
			if pageFreeSpace(*p.buf) < openSpaceThreshold {
				seg.open = seg.open[:len(seg.open)-1]
			}
			return RID{Page: pid, Slot: slot}, nil
		}
		seg.open = seg.open[:len(seg.open)-1]
	}
	id, nanos, _, err := recordOrigin(rec, from)
	if err != nil {
		return RID{}, err
	}
	pid, err := ts.mgr.allocPage()
	if err != nil {
		return RID{}, err
	}
	p, err := ts.runPage(pid, false)
	if err != nil {
		return RID{}, err
	}
	initPage(*p.buf, ts.tbl.ID, frame{id: id, nanos: nanos})
	slot, ok := pageInsert(*p.buf, rec, from)
	if !ok {
		return RID{}, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(rec))
	}
	p.dirty = true
	seg.pages[pid] = struct{}{}
	ts.pageSeg[pid] = key
	if pageFreeSpace(*p.buf) >= openSpaceThreshold {
		seg.open = append(seg.open, pid)
	}
	return RID{Page: pid, Slot: slot}, nil
}

// Get materializes a tuple by id.
func (ts *TableStore) Get(id TupleID) (Tuple, error) {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	e := ts.dir.get(id)
	if e == nil {
		return Tuple{}, fmt.Errorf("%w: %s #%d", ErrNoTuple, ts.tbl.Name, id)
	}
	return ts.readLocked(e.rid())
}

// GetMany materializes the tuples ids under one read lock, reading each
// distinct page they live on once, and returns them in ids order. An id
// naming no live tuple (deleted meanwhile) gets the zero Tuple, whose ID
// 0 no tuple has. A page read or decode error fails the whole call.
func (ts *TableStore) GetMany(ids []TupleID) ([]Tuple, error) {
	out := make([]Tuple, len(ids))
	err := ts.readMany(ids, func(i int, rec []byte, f frame) (err error) {
		out[i], err = decodeRecord(rec, f)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DegCell is one degradable column of a tuple: its LCP state and its
// stored form. DegradableMany gives a tuple that is gone the zero DegCell,
// whose ID 0 no tuple has.
type DegCell struct {
	ID     TupleID
	State  uint8
	Stored value.Value
}

// DegradableMany is GetMany projected on the degradable column at
// position degPos: each tuple's state and stored form of that column,
// nothing else decoded.
func (ts *TableStore) DegradableMany(ids []TupleID, degPos int) ([]DegCell, error) {
	out := make([]DegCell, len(ids))
	err := ts.readMany(ids, func(i int, rec []byte, f frame) (err error) {
		out[i], err = ts.decodeCell(rec, f, degPos)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// decodeCell decodes the degradable column at position degPos of a
// record encoded in frame f.
func (ts *TableStore) decodeCell(rec []byte, f frame, degPos int) (DegCell, error) {
	off, nDeg, err := recordStatesAt(rec)
	if err != nil {
		return DegCell{}, err
	}
	if degPos < 0 || degPos >= nDeg {
		return DegCell{}, fmt.Errorf("storage: %s: degradable position %d out of %d", ts.tbl.Name, degPos, nDeg)
	}
	start, end, err := recordColumn(rec, off+nDeg, ts.tbl.DegradableColumns()[degPos])
	if err != nil {
		return DegCell{}, err
	}
	v, _, err := value.Decode(rec[start:end])
	if err != nil {
		return DegCell{}, err
	}
	return DegCell{ID: recordID(rec, f), State: rec[off+degPos], Stored: v}, nil
}

// readMany hands fn the record of every live tuple of ids with its index
// in ids and its page's frame, under one read lock, reading each
// distinct page they live on once. The record aliases a pooled page
// buffer: fn must not keep it. A page read or fn error stops the walk
// and is returned.
func (ts *TableStore) readMany(ids []TupleID, fn func(i int, rec []byte, f frame) error) error {
	type loc struct {
		rid RID
		i   int
	}
	locs := make([]loc, 0, len(ids))
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	for i, id := range ids {
		if e := ts.dir.get(id); e != nil {
			locs = append(locs, loc{e.rid(), i})
		}
	}
	slices.SortFunc(locs, func(a, b loc) int { return cmp.Compare(a.rid.Page, b.rid.Page) })
	bufp := pagePool.Get().(*[]byte)
	defer pagePool.Put(bufp)
	buf := *bufp
	var f frame
	for j, l := range locs {
		if j == 0 || l.rid.Page != locs[j-1].rid.Page {
			if err := ts.mgr.readPage(l.rid.Page, buf); err != nil {
				return err
			}
			f = pageFrame(buf)
		}
		rec, err := ts.slotRecord(buf, l.rid)
		if err != nil {
			return err
		}
		if err := fn(l.i, rec, f); err != nil {
			return err
		}
	}
	return nil
}

// readLocked decodes the tuple at rid, read into a pooled page buffer.
func (ts *TableStore) readLocked(rid RID) (Tuple, error) {
	bufp := pagePool.Get().(*[]byte)
	defer pagePool.Put(bufp)
	buf := *bufp
	if err := ts.mgr.readPage(rid.Page, buf); err != nil {
		return Tuple{}, err
	}
	return ts.decodeSlot(buf, rid)
}

// slotRecord returns the record at rid from its page's content, aliasing
// the page.
func (ts *TableStore) slotRecord(page []byte, rid RID) ([]byte, error) {
	rec, ok := pageRead(page, rid.Slot)
	if !ok {
		return nil, fmt.Errorf("storage: %s: dangling rid %v", ts.tbl.Name, rid)
	}
	return rec, nil
}

// decodeSlot decodes the record at rid from its page's content.
func (ts *TableStore) decodeSlot(page []byte, rid RID) (Tuple, error) {
	rec, err := ts.slotRecord(page, rid)
	if err != nil {
		return Tuple{}, err
	}
	return decodeRecord(rec, pageFrame(page))
}

// Delete removes a tuple, scrubbing its payload — including every
// retained snapshot version: deletion is enforcement-grade in this
// system (tuple-LCP removals ride the same path), so no image of a
// deleted tuple survives for readers, whatever snapshots are open.
// Unknown ids are a no-op (idempotent redo). It is a run of one
// (DeleteRun).
func (ts *TableStore) Delete(id TupleID) error { return ts.DeleteRun([]TupleID{id}) }

// DeleteRun applies Delete to each tuple of ids, in order, under one
// hold of the table lock: each page the run touches is read once and
// written back once (runPage). A delete that fails ends the run; the
// ones before it are applied.
func (ts *TableStore) DeleteRun(ids []TupleID) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.runLocked(len(ids), func(i int) error { return ts.deleteLocked(ids[i]) })
}

func (ts *TableStore) deleteLocked(id TupleID) error {
	e := ts.dir.get(id)
	if e == nil {
		return nil
	}
	p, err := ts.runPage(e.page, true)
	if err != nil {
		return err
	}
	if err := ts.scrubSlotLocked(e.rid(), p); err != nil {
		return err
	}
	ts.dir.del(id)
	ts.births.drop(id)
	delete(ts.hist, id)
	return nil
}

// resolveCopy settles a second copy of a tuple that Rebuild found at
// rid: a degradation move torn by a crash, both halves in the page file.
// The copy no finer in any position wins — on equal states the later
// one, rid — and the other is scrubbed, its page freed if that empties
// it. Serving the finer copy would serve an expired accuracy state, and
// leaving both live would return the tuple twice. A run of one.
func (ts *TableStore) resolveCopy(rid RID) (HealedMove, error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	tuple := func(at RID) (Tuple, error) {
		p, err := ts.runPage(at.Page, true)
		if err != nil {
			return Tuple{}, err
		}
		return ts.decodeSlot(*p.buf, at)
	}
	var healed HealedMove
	err := ts.runLocked(1, func(int) error {
		later, err := tuple(rid)
		if err != nil {
			return err
		}
		e := ts.dir.get(later.ID)
		cur, err := tuple(e.rid())
		if err != nil {
			return err
		}
		loser, kept := rid, cur.States
		if noFiner(later.States, cur.States) {
			loser, kept, e.page, e.slot = e.rid(), later.States, rid.Page, rid.Slot
		}
		healed = HealedMove{Table: ts.tbl, Tuple: later.ID, States: kept}
		p, err := ts.runPage(loser.Page, true)
		if err != nil {
			return err
		}
		return ts.scrubSlotLocked(loser, p)
	})
	return healed, err
}

// noFiner reports whether state vector a is no finer than b, of the same
// table, in any position: each state equals b's or lies past it
// (StateAdvances).
func noFiner(a, b []uint8) bool {
	for i := range a {
		if a[i] != b[i] && !StateAdvances(b[i], a[i]) {
			return false
		}
	}
	return true
}

// scrubSlotLocked scrubs the slot rid of p, the run's copy of its page,
// and recycles the page if it became empty.
func (ts *TableStore) scrubSlotLocked(rid RID, p *runBuf) error {
	live, err := pageDelete(*p.buf, rid.Slot)
	if err != nil {
		return err
	}
	if live == 0 {
		return ts.recyclePageLocked(rid.Page)
	}
	p.dirty = true
	return nil
}

// recyclePageLocked takes an empty page out of its segment and the run,
// and frees it (zero-filled) for any table to allocate, this run
// included.
func (ts *TableStore) recyclePageLocked(pid PageID) error {
	key, ok := ts.pageSeg[pid]
	if ok {
		seg := ts.segs[key]
		delete(seg.pages, pid)
		for i, p := range seg.open {
			if p == pid {
				seg.open = append(seg.open[:i], seg.open[i+1:]...)
				break
			}
		}
		delete(ts.pageSeg, pid)
	}
	if i := slices.IndexFunc(ts.run, func(p runBuf) bool { return p.id == pid }); i >= 0 {
		pagePool.Put(ts.run[i].buf)
		ts.run = slices.Delete(ts.run, i, i+1)
	}
	return ts.mgr.freePage(pid)
}

// DegradeAttr applies one LCP transition to a tuple: the degradable
// column at position degPos (in DegradableColumns order) moves to state
// newState with stored form newStored. The previous stored form is
// physically scrubbed: overwritten in place when the layout allows it,
// otherwise deleted-and-rewritten in the target state segment. The
// transition also overwrites the column in every retained snapshot
// version of the tuple — version garbage collection of expired accuracy
// states is pinned to the LCP deadline that drives this call, never to
// reader lifetimes, so a snapshot reader straddling the deadline
// observes the degraded value (the documented deviation from classic
// snapshot isolation). Unknown ids are a no-op (idempotent redo). It is
// a run of one (DegradeRun).
//
// The record is patched, not re-encoded: the state byte and the one
// column are spliced into a copy of the stored bytes, and no other
// column is decoded.
func (ts *TableStore) DegradeAttr(id TupleID, degPos int, newStored value.Value, newState uint8) error {
	return ts.DegradeRun(degPos, []DegCell{{ID: id, State: newState, Stored: newStored}})
}

// DegradeRun applies DegradeAttr's transition to each tuple to[i].ID, in
// order, under one hold of the table lock: the degradable column at
// position degPos moves to state to[i].State with stored form
// to[i].Stored. Each page the run touches is read once and written back
// once (runPage), and every record is patched into one buffer; the
// monotone gate, the scrub and the version-chain overwrite stay per
// tuple. A transition that fails ends the run; the ones before it are
// applied.
func (ts *TableStore) DegradeRun(degPos int, to []DegCell) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var stack [256]byte
	buf := stack[:0]
	return ts.runLocked(len(to), func(i int) (err error) {
		buf, err = ts.degradeLocked(buf[:0], degPos, &to[i])
		return err
	})
}

// degradeLocked applies one transition of a run, patching the record
// into buf's space; it returns the buffer, whose space the run reuses.
func (ts *TableStore) degradeLocked(buf []byte, degPos int, to *DegCell) ([]byte, error) {
	e := ts.dir.get(to.ID)
	if e == nil {
		return buf, nil
	}
	p, err := ts.runPage(e.page, true)
	if err != nil {
		return buf, err
	}
	rec, err := ts.slotRecord(*p.buf, e.rid())
	if err != nil {
		return buf, err
	}
	off, nDeg, err := recordStatesAt(rec)
	if err != nil {
		return buf, err
	}
	if degPos < 0 || degPos >= nDeg {
		return buf, fmt.Errorf("storage: %s: degradable position %d out of %d", ts.tbl.Name, degPos, nDeg)
	}
	// Transitions are monotone down the generalization tree: a
	// transition the attribute has already made (or passed) is a no-op.
	// This is what makes a leader's degrade batch and a replica's
	// locally fired transition reconcile idempotently — whichever clock
	// fires first wins, and the late copy can never resurrect accuracy.
	if !StateAdvances(rec[off+degPos], to.State) {
		return buf, nil
	}
	col := ts.tbl.DegradableColumns()[degPos]
	patched, err := patchRecord(buf, rec, degPos, col, to.State, to.Stored)
	if err != nil {
		return buf, fmt.Errorf("storage: %s #%d: %w", ts.tbl.Name, to.ID, err)
	}
	for i := range ts.hist[to.ID] {
		v := &ts.hist[to.ID][i]
		if degPos < len(v.t.States) {
			v.t.States[degPos] = to.State
			v.t.Row[col] = to.Stored
		}
	}
	// The patch keeps rec's prefix, so its state vector is where rec's is.
	key := ts.segKeyFor(patched[off : off+nDeg])
	return patched, ts.replaceLocked(e, to.ID, p, patched, key)
}

// UpdateStable overwrites a stable column, retaining the superseded row
// image in the tuple's version chain for open snapshots. Degradable
// columns are immutable after insert (paper §II); callers enforce that
// rule — this method checks it defensively. It is a run of one
// (UpdateRun).
func (ts *TableStore) UpdateStable(id TupleID, col int, v value.Value) error {
	return ts.UpdateRun([]StableUpdate{{ID: id, Col: col, Val: v}})
}

// StableUpdate sets stable column Col of tuple ID to Val.
type StableUpdate struct {
	ID  TupleID
	Col int
	Val value.Value
}

// UpdateRun applies UpdateStable to each update of ups, in order, under
// one hold of the table lock: each page the run touches is read once and
// written back once (runPage), and every record is encoded into one
// buffer. An update that fails — an unknown id, a degradable column —
// ends the run; the ones before it are applied.
func (ts *TableStore) UpdateRun(ups []StableUpdate) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var stack [512]byte
	rec := stack[:0]
	return ts.runLocked(len(ups), func(i int) (err error) {
		rec, err = ts.updateLocked(rec[:0], &ups[i])
		return err
	})
}

// updateLocked applies one update of a run, encoding the record into
// rec's space; it returns the record, whose space the run reuses.
func (ts *TableStore) updateLocked(rec []byte, up *StableUpdate) ([]byte, error) {
	if ts.tbl.DegradablePos(up.Col) != -1 {
		return rec, fmt.Errorf("storage: %s: column %d is degradable and immutable", ts.tbl.Name, up.Col)
	}
	e := ts.dir.get(up.ID)
	if e == nil {
		return rec, fmt.Errorf("%w: %s #%d", ErrNoTuple, ts.tbl.Name, up.ID)
	}
	p, err := ts.runPage(e.page, true)
	if err != nil {
		return rec, err
	}
	t, err := ts.decodeSlot(*p.buf, e.rid())
	if err != nil {
		return rec, err
	}
	old := cloneTuple(t)
	t.Row[up.Col] = up.Val
	rec = encodeRecord(rec, pageFrame(*p.buf), t.ID, t.InsertedAt, t.States, t.Row)
	if err := ts.replaceLocked(e, up.ID, p, rec, ts.segKeyFor(t.States)); err != nil {
		return rec, err
	}
	ts.pushVersionLocked(old)
	return rec, nil
}

// cloneTuple deep-copies a tuple's slices so version-chain images and
// snapshot results never alias live storage state.
func cloneTuple(t Tuple) Tuple {
	t.States = append([]uint8(nil), t.States...)
	t.Row = append([]value.Value(nil), t.Row...)
	return t
}

// pushVersionLocked records the pre-update image of a tuple for
// snapshot readers, pruning versions no open snapshot can reach and
// truncating to MaxTupleVersions with birth-epoch merging. A stamp
// epoch of 0 (no epoch wiring) or a same-epoch rewrite (an intermediate
// image no snapshot can ever observe) keeps no version.
func (ts *TableStore) pushVersionLocked(old Tuple) {
	id, e := old.ID, ts.mgr.stamp.Load()
	born := ts.births.of(id)
	if e == 0 || born == e {
		return
	}
	chain := append(ts.hist[id], tupleVersion{born: born, died: e, t: old})
	ts.lastSupersede = e
	low := ts.mgr.lowWater.Load()
	for len(chain) > 0 && chain[0].died <= low {
		chain = chain[1:]
		ts.mgr.pruned.Add(1)
	}
	if len(chain) > MaxTupleVersions {
		drop := len(chain) - MaxTupleVersions
		chain[drop].born = chain[0].born
		chain = chain[drop:]
		ts.mgr.pruned.Add(uint64(drop))
	}
	if len(chain) == 0 {
		delete(ts.hist, id)
	} else {
		ts.hist[id] = chain
	}
	ts.bornLocked(id, e)
}

// replaceLocked makes rec the record of tuple id, whose directory entry
// is ent and whose page the run holds as p (rec must not alias it, and
// is encoded in its frame). It overwrites the old record in place when
// rec belongs to the same segment (key) and fits the old slot, and
// otherwise scrubs the old copy and places rec in key's segment. Either
// way the old bytes are gone from the page.
func (ts *TableStore) replaceLocked(ent *dirEntry, id TupleID, p *runBuf, rec []byte, key uint64) error {
	rid, from := ent.rid(), pageFrame(*p.buf)
	if ts.pageSeg[rid.Page] == key && pageOverwrite(*p.buf, rid.Slot, rec) {
		p.dirty = true
		return nil
	}
	// A record that fits no page fails before the old copy is scrubbed.
	if err := checkFits(rec); err != nil {
		return err
	}
	if err := ts.scrubSlotLocked(rid, p); err != nil {
		return err
	}
	newRID, err := ts.placeLocked(key, rec, from)
	if err != nil {
		return err
	}
	ent.page, ent.slot = newRID.Page, newRID.Slot
	if ts.scans > 0 {
		ts.relocated = append(ts.relocated, id)
	}
	return nil
}

// Scan calls fn with every live tuple, page by page in page order — for
// a table that was only ever appended to, ascending tuple ids, which is
// what lets recovery skip its sorts. fn returning false stops the scan.
// The scan holds the table read lock; concurrent writers block.
func (ts *TableStore) Scan(fn func(Tuple) bool) error {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	pids := make([]PageID, 0, len(ts.pageSeg))
	for pid := range ts.pageSeg {
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	for _, pid := range pids {
		stop, err := ts.scanPageLocked(pid, fn)
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// SnapshotGet materializes the version of a tuple visible to snapshot
// epoch snap: the current image if it was born at or before snap,
// otherwise the retained version covering snap. ErrNoTuple means the
// tuple does not exist at that snapshot — deleted (version chains are
// scrubbed on delete), or inserted after the snapshot was taken.
func (ts *TableStore) SnapshotGet(id TupleID, snap uint64) (Tuple, error) {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	e := ts.dir.get(id)
	if e == nil {
		return Tuple{}, fmt.Errorf("%w: %s #%d", ErrNoTuple, ts.tbl.Name, id)
	}
	t, err := ts.readLocked(e.rid())
	if err != nil {
		return Tuple{}, err
	}
	if v, ok := ts.visibleLocked(t, snap); ok {
		return v, nil
	}
	return Tuple{}, fmt.Errorf("%w: %s #%d at snapshot %d", ErrNoTuple, ts.tbl.Name, id, snap)
}

// visibleLocked resolves the image of a live tuple visible to snapshot
// snap: the current image when born at or before snap, else the version
// covering snap. ok=false means the tuple was inserted after the
// snapshot. Returned tuples never alias chain or page state.
func (ts *TableStore) visibleLocked(cur Tuple, snap uint64) (Tuple, bool) {
	if ts.births.of(cur.ID) <= snap {
		return cur, true
	}
	chain := ts.hist[cur.ID]
	for i := len(chain) - 1; i >= 0; i-- {
		v := &chain[i]
		if v.born <= snap && snap < v.died {
			return cloneTuple(v.t), true
		}
	}
	return Tuple{}, false
}

// SnapshotScan calls fn with the image of every tuple visible to
// snapshot epoch snap. Unlike Scan, it never holds the table lock
// across fn or across pages: the page list is snapshotted up front,
// each page is decoded under a short read lock, and tuples that moved
// to pages allocated mid-scan are picked up from the directory in a
// final sweep — so a slow consumer never delays writers, in particular
// the degradation engine's transition batches. Tuples inserted after
// the snapshot are invisible; tuples deleted mid-scan may or may not
// appear (their chains are scrubbed); degradable columns always carry
// their *current* accuracy state, whatever the snapshot (the documented
// deviation from classic snapshot isolation).
func (ts *TableStore) SnapshotScan(snap uint64, fn func(Tuple) bool) error {
	ts.mu.Lock()
	pids := make([]PageID, 0, len(ts.pageSeg))
	for pid := range ts.pageSeg {
		pids = append(pids, pid)
	}
	ts.scans++
	ts.mu.Unlock()
	defer func() {
		ts.mu.Lock()
		ts.scans--
		if ts.scans == 0 {
			ts.relocated = ts.relocated[:0]
		}
		ts.mu.Unlock()
	}()

	seen := make(map[TupleID]bool)
	var batch []Tuple
	for _, pid := range pids {
		batch = batch[:0]
		ts.mu.RLock()
		if _, live := ts.pageSeg[pid]; !live {
			ts.mu.RUnlock()
			continue // page recycled mid-scan; its tuples moved or died
		}
		err := ts.collectPageLocked(pid, snap, seen, &batch)
		ts.mu.RUnlock()
		if err != nil {
			return err
		}
		for i := range batch {
			if !fn(batch[i]) {
				return nil
			}
		}
	}
	// Tuples that moved between pages mid-scan may have dodged the page
	// loop (their new page postdates the page-list snapshot, or was
	// visited before they arrived). The relocation list records exactly
	// those ids — O(mid-scan churn), never O(table) — and they are
	// resolved in bounded chunks, so this sweep, like the page loop
	// above, never holds the table lock long enough to delay a
	// degradation transition batch.
	ts.mu.RLock()
	var missing []TupleID
	for _, id := range ts.relocated {
		if !seen[id] {
			missing = append(missing, id)
		}
	}
	ts.mu.RUnlock()
	const sweepChunk = 64
	for start := 0; start < len(missing); start += sweepChunk {
		end := start + sweepChunk
		if end > len(missing) {
			end = len(missing)
		}
		batch = batch[:0]
		ts.mu.RLock()
		for _, id := range missing[start:end] {
			if seen[id] {
				continue // a tuple that moved more than once
			}
			seen[id] = true
			e := ts.dir.get(id)
			if e == nil {
				continue // deleted since the id was collected
			}
			t, err := ts.readLocked(e.rid())
			if err != nil {
				ts.mu.RUnlock()
				return err
			}
			if v, ok := ts.visibleLocked(t, snap); ok {
				batch = append(batch, v)
			}
		}
		ts.mu.RUnlock()
		for i := range batch {
			if !fn(batch[i]) {
				return nil
			}
		}
	}
	return nil
}

// collectPageLocked decodes one page's live tuples, resolving each to
// its snapshot-visible image. Caller holds ts.mu (read).
func (ts *TableStore) collectPageLocked(pid PageID, snap uint64, seen map[TupleID]bool, out *[]Tuple) error {
	bufp := pagePool.Get().(*[]byte)
	defer pagePool.Put(bufp)
	buf := *bufp
	if err := ts.mgr.readPage(pid, buf); err != nil {
		return err
	}
	n, f := pageNumSlots(buf), pageFrame(buf)
	for s := uint16(0); s < n; s++ {
		rec, ok := pageRead(buf, s)
		if !ok {
			continue
		}
		t, err := decodeRecord(rec, f)
		if err != nil {
			return fmt.Errorf("storage: %s page %d slot %d: %w", ts.tbl.Name, pid, s, err)
		}
		if seen[t.ID] {
			continue // already emitted from a page it moved off of
		}
		seen[t.ID] = true
		if v, ok := ts.visibleLocked(t, snap); ok {
			*out = append(*out, v)
		}
	}
	return nil
}

// HasVisibleHistory reports whether some tuple's image at snapshot
// epoch snap may differ from its current image — true while the latest
// stable-column supersede postdates the snapshot. The planner uses it
// to decide whether secondary indexes on stable columns (which reflect
// only current images) can serve a snapshot read exactly; a snapshot
// taken at or after the last supersede can never observe a chain
// image, so indexes serve it even while old chains linger. Callers on
// the snapshot read path must re-check *after* probing an index: the
// supersede marker is set before the index is touched (applyUpdate
// updates storage first), so a probe that raced a concurrent update is
// always caught by the second check.
func (ts *TableStore) HasVisibleHistory(snap uint64) bool {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return ts.lastSupersede > snap
}

// ScanState calls fn with every live tuple in the given tuple state. On
// LayoutMove tables only the matching segment's pages are read; on
// LayoutInPlace the whole table is scanned and filtered — the cost
// difference is the point of experiment B-STORE.
func (ts *TableStore) ScanState(states []uint8, fn func(Tuple) bool) error {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	want := stateKey(states)
	filter := func(t Tuple) bool {
		if stateKey(t.States) != want {
			return true
		}
		return fn(t)
	}
	if ts.tbl.Layout == catalog.LayoutMove {
		seg, ok := ts.segs[want]
		if !ok {
			return nil
		}
		for pid := range seg.pages {
			stop, err := ts.scanPageLocked(pid, filter)
			if err != nil {
				return err
			}
			if stop {
				return nil
			}
		}
		return nil
	}
	for pid := range ts.pageSeg {
		stop, err := ts.scanPageLocked(pid, filter)
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

func (ts *TableStore) scanPageLocked(pid PageID, fn func(Tuple) bool) (stop bool, err error) {
	bufp := pagePool.Get().(*[]byte)
	defer pagePool.Put(bufp)
	buf := *bufp
	if err := ts.mgr.readPage(pid, buf); err != nil {
		return false, err
	}
	n, f := pageNumSlots(buf), pageFrame(buf)
	for s := uint16(0); s < n; s++ {
		rec, ok := pageRead(buf, s)
		if !ok {
			continue
		}
		t, err := decodeRecord(rec, f)
		if err != nil {
			return false, fmt.Errorf("storage: %s page %d slot %d: %w", ts.tbl.Name, pid, s, err)
		}
		if !fn(t) {
			return true, nil
		}
	}
	return false, nil
}

// Count returns the number of live tuples.
func (ts *TableStore) Count() int {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return ts.dir.n
}

// Stats summarizes physical occupancy for tooling and experiments.
type Stats struct {
	Tuples   int
	Pages    int
	Segments map[uint64]int // state key -> page count
	// Versions counts retained snapshot versions across all tuples.
	Versions int
	// DirectoryBytes is the heap the tuple directory's chunks and the
	// young tuples' births hold.
	DirectoryBytes int
	// Young counts the tuples whose birth epoch is kept: born above the
	// low-water mark, or not yet drained past it.
	Young int
}

// Stats returns current occupancy.
func (ts *TableStore) Stats() Stats {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	s := Stats{Tuples: ts.dir.n, Pages: len(ts.pageSeg), Segments: make(map[uint64]int),
		DirectoryBytes: ts.dir.bytes() + ts.births.bytes(), Young: len(ts.births.at)}
	for _, chain := range ts.hist {
		s.Versions += len(chain)
	}
	for key, seg := range ts.segs {
		if len(seg.pages) > 0 {
			s.Segments[key] = len(seg.pages)
		}
	}
	return s
}

// StateKeyOf exposes the state-vector packing for tools and tests.
func StateKeyOf(states []uint8) uint64 { return stateKey(states) }
