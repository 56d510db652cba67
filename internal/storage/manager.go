package storage

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"instantdb/internal/catalog"
)

// Manager owns one Store and hands out TableStores over it. It maintains
// the free-page list (scrubbed pages ready for reuse) and rebuilds all
// in-memory directories from raw pages at recovery. Every page read and
// write of its TableStores goes through it (readPage, writePage), which
// is what lets a page scope hold a commit batch's pages. It also carries
// the snapshot-epoch stamps of the MVCC-lite read path: the engine sets the
// stamping epoch before applying a commit batch, and every tuple written
// during the apply is born at that epoch (see table.go; epoch 0 — the
// default for callers that never wire epochs — disables versioning and
// makes every tuple visible to every snapshot).
type Manager struct {
	mu     sync.Mutex
	store  Store
	free   []PageID
	tables map[uint32]*TableStore

	// stamp is the epoch in-flight mutations are born at; lowWater is
	// the oldest snapshot epoch still open, below which superseded row
	// versions are unreachable and pruned.
	stamp    atomic.Uint64
	lowWater atomic.Uint64

	// pruned counts version-chain entries dropped (low-water or
	// MaxTupleVersions truncation); exposed as a metric by the engine.
	pruned atomic.Uint64

	// pmu guards the page scope (BeginPageScope): while scopeOpen, scope
	// holds the pages touched so far, each read from the store at most
	// once.
	pmu       sync.Mutex
	scopeOpen bool
	scope     pageSet
	// scopeErr is the first write-back of the open scope that failed,
	// whichever goroutine's page overflowed the scope: it fails every
	// later scoped access, so no one reads the store's stale copy of a
	// lost page, and EndPageScope reports it to the committer.
	scopeErr error
	// pageReads and pageWrites count the ReadPage and WritePage calls
	// this Manager issued to the store.
	pageReads, pageWrites atomic.Uint64
}

// scopePages bounds a pageSet: the first page past it writes the dirty
// ones back and empties the set, so a batch of any size holds at most
// scopePages pooled buffers (256 KiB) in the Manager's page scope, and as
// many in the run a TableStore is applying.
const scopePages = 64

// scopedPage is one page held by a pageSet, in a pagePool buffer.
type scopedPage struct {
	id    PageID
	buf   *[]byte
	dirty bool
}

// pageSet is a working set of at most scopePages pages, each read once
// and written back once: the Manager's page scope, and the pages of the
// run a TableStore is applying (see TableStore.runPage). A slice with
// linear search, not a map: it never holds more than scopePages entries,
// and an emptied map would keep its buckets.
type pageSet []scopedPage

// find returns pid's entry, nil when the set does not hold it. The
// pointer is valid until the set next changes.
func (s pageSet) find(pid PageID) *scopedPage {
	for i := range s {
		if s[i].id == pid {
			return &s[i]
		}
	}
	return nil
}

// add adds pid, which the set does not hold, in a pooled buffer that
// load fills; a nil load leaves the content to the caller. The set must
// have room: a full one is flushed first.
func (s *pageSet) add(pid PageID, load func(PageID, []byte) error) (*scopedPage, error) {
	bufp := pagePool.Get().(*[]byte)
	if load != nil {
		if err := load(pid, *bufp); err != nil {
			pagePool.Put(bufp)
			return nil, err
		}
	}
	*s = append(*s, scopedPage{id: pid, buf: bufp})
	return &(*s)[len(*s)-1], nil
}

// drop forgets pid without writing it back (a page freed meanwhile).
func (s *pageSet) drop(pid PageID) {
	if i := slices.IndexFunc(*s, func(p scopedPage) bool { return p.id == pid }); i >= 0 {
		pagePool.Put((*s)[i].buf)
		*s = slices.Delete(*s, i, i+1)
	}
}

// flush writes the dirty pages back through write in page id order,
// returns every buffer to the pool and empties the set. A failed write
// does not stop the others; the first error is returned.
func (s *pageSet) flush(write func(PageID, []byte) error) error {
	slices.SortFunc(*s, func(a, b scopedPage) int { return cmp.Compare(a.id, b.id) })
	var first error
	for _, p := range *s {
		if p.dirty {
			if err := write(p.id, *p.buf); err != nil && first == nil {
				first = err
			}
		}
		pagePool.Put(p.buf)
	}
	clear(*s)
	*s = (*s)[:0]
	return first
}

// zeroPage is what freePage writes over a released page. Never mutated.
var zeroPage [PageSize]byte

// PrunedVersions returns the total number of superseded row versions
// pruned from version chains since open.
func (m *Manager) PrunedVersions() uint64 { return m.pruned.Load() }

// NewManager wraps a raw page store.
func NewManager(store Store) *Manager {
	return &Manager{store: store, tables: make(map[uint32]*TableStore)}
}

// Store returns the underlying raw page store (the forensic scanner and
// checkpointing use it directly).
func (m *Manager) Store() Store { return m.store }

// SetStampEpoch sets the epoch subsequently applied mutations are born
// at, and the low-water mark of open snapshots for version pruning. The
// engine calls it under its commit mutex before applying each batch.
func (m *Manager) SetStampEpoch(stamp, lowWater uint64) {
	m.stamp.Store(stamp)
	m.lowWater.Store(lowWater)
}

// StampEpoch returns the current mutation-stamping epoch.
func (m *Manager) StampEpoch() uint64 { return m.stamp.Load() }

// Table returns the TableStore for a catalog table, creating it on first
// use.
func (m *Manager) Table(tbl *catalog.Table) *TableStore {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts, ok := m.tables[tbl.ID]
	if !ok {
		ts = newTableStore(m, tbl)
		m.tables[tbl.ID] = ts
	}
	return ts
}

// DropTable scrubs and releases every page of a table.
func (m *Manager) DropTable(tableID uint32) error {
	m.mu.Lock()
	ts, ok := m.tables[tableID]
	delete(m.tables, tableID)
	m.mu.Unlock()
	if !ok {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for pid := range ts.pageSeg {
		if err := m.freePage(pid); err != nil {
			return err
		}
	}
	ts.dir = newDirectory()
	ts.segs = make(map[uint64]*segment)
	ts.pageSeg = make(map[PageID]uint64)
	ts.hist = make(map[TupleID][]tupleVersion)
	ts.lastSupersede = 0
	return nil
}

// allocPage returns a fresh (or recycled) page id. Nothing is read or
// written: the caller initializes the page (initPage) and writes it after
// filling it.
func (m *Manager) allocPage() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.free); n > 0 {
		pid := m.free[n-1]
		m.free = m.free[:n-1]
		return pid, nil
	}
	return m.store.Allocate()
}

// freePage scrubs a page and returns it to the free list.
func (m *Manager) freePage(pid PageID) error {
	if err := m.writePage(pid, zeroPage[:]); err != nil {
		return err
	}
	m.mu.Lock()
	m.free = append(m.free, pid)
	m.mu.Unlock()
	return nil
}

// PageIO returns how many page reads and page writes this Manager has
// issued to its store since open: the physical I/O a page scope saves.
func (m *Manager) PageIO() (reads, writes uint64) {
	return m.pageReads.Load(), m.pageWrites.Load()
}

// BeginPageScope opens a write-back page scope. Until EndPageScope every
// page TableStore code touches is read from the store once, then read
// and modified in a pooled buffer; concurrent readers go through the
// same buffers, so they see the pages as modified so far. The engine
// opens a scope around each commit batch's apply, under its commit
// mutex, so a batch reads and writes each heap page once instead of
// once per tuple. Scopes do not nest.
func (m *Manager) BeginPageScope() {
	m.pmu.Lock()
	m.scopeOpen = true
	m.pmu.Unlock()
}

// EndPageScope writes the scope's dirty pages back to the store in page
// id order and closes the scope, which then holds no page. An error
// means some page of the scope may not have reached the store, now or
// when the scope filled up; the scope is closed regardless.
func (m *Manager) EndPageScope() error {
	m.pmu.Lock()
	defer m.pmu.Unlock()
	m.scopeOpen = false
	err := m.flushScopeLocked()
	if m.scopeErr != nil {
		err, m.scopeErr = m.scopeErr, nil
	}
	return err
}

// flushScopeLocked writes the dirty scope pages back to the store (see
// pageSet.flush). Caller holds pmu.
func (m *Manager) flushScopeLocked() error { return m.scope.flush(m.storeWrite) }

// storeRead and storeWrite are the store's page calls, counted.
func (m *Manager) storeRead(pid PageID, buf []byte) error {
	m.pageReads.Add(1)
	return m.store.ReadPage(pid, buf)
}

func (m *Manager) storeWrite(pid PageID, data []byte) error {
	m.pageWrites.Add(1)
	return m.store.WritePage(pid, data)
}

// readPage copies page pid into buf. Every page read of TableStore code
// goes through it: inside a page scope it copies the scope's buffer,
// loaded from the store on first touch; outside one it reads the store.
func (m *Manager) readPage(pid PageID, buf []byte) error {
	m.pmu.Lock()
	if !m.scopeOpen {
		m.pmu.Unlock()
		return m.storeRead(pid, buf)
	}
	defer m.pmu.Unlock()
	p, err := m.scopedLocked(pid, true)
	if err != nil {
		return err
	}
	copy(buf, *p.buf)
	return nil
}

// writePage overwrites page pid with data, the counterpart of readPage:
// inside a page scope the write lands in the scope's buffer and reaches
// the store when the scope ends (or fills); outside one it writes the
// store.
func (m *Manager) writePage(pid PageID, data []byte) error {
	m.pmu.Lock()
	if !m.scopeOpen {
		m.pmu.Unlock()
		return m.storeWrite(pid, data)
	}
	defer m.pmu.Unlock()
	p, err := m.scopedLocked(pid, false)
	if err != nil {
		return err
	}
	copy(*p.buf, data)
	p.dirty = true
	return nil
}

// scopedLocked returns pid's scope entry, adding it on first touch: read
// from the store when load is set, left for the caller to overwrite
// otherwise. Caller holds pmu with the scope open.
func (m *Manager) scopedLocked(pid PageID, load bool) (*scopedPage, error) {
	if m.scopeErr != nil {
		return nil, m.scopeErr
	}
	if p := m.scope.find(pid); p != nil {
		return p, nil
	}
	if len(m.scope) == scopePages {
		if err := m.flushScopeLocked(); err != nil {
			m.scopeErr = err
			return nil, err
		}
	}
	var read func(PageID, []byte) error
	if load {
		read = m.storeRead
	}
	return m.scope.add(pid, read)
}

// Sync flushes the page store (checkpoint support).
func (m *Manager) Sync() error { return m.store.Sync() }

// Rebuild reconstructs every table's in-memory state (tuple directory,
// segments, free list, next tuple id) from raw pages — the recovery path
// after reopening a file-backed database. Pages of tables absent from the
// catalog (dropped tables) are scrubbed and freed.
func (m *Manager) Rebuild(cat *catalog.Catalog) error {
	m.mu.Lock()
	m.free = nil
	m.tables = make(map[uint32]*TableStore)
	m.mu.Unlock()

	type orphan struct{ pid PageID }
	var orphans []orphan
	err := m.store.ForEachPage(func(pid PageID, data []byte) error {
		if !pageInUse(data) {
			m.mu.Lock()
			m.free = append(m.free, pid)
			m.mu.Unlock()
			return nil
		}
		tbl, err := cat.TableByID(pageTableID(data))
		if err != nil {
			orphans = append(orphans, orphan{pid})
			return nil
		}
		ts := m.Table(tbl)
		ts.mu.Lock()
		defer ts.mu.Unlock()
		n := pageNumSlots(data)
		var segKeySet bool
		var segKey uint64
		live := 0
		for s := uint16(0); s < n; s++ {
			rec, ok := pageRead(data, s)
			if !ok {
				continue
			}
			t, err := decodeRecord(rec)
			if err != nil {
				return fmt.Errorf("storage: rebuild %s page %d slot %d: %w", tbl.Name, pid, s, err)
			}
			live++
			if e := ts.dir.get(t.ID); e != nil {
				e.page, e.slot = pid, s // a second copy of the id: the later page wins
			} else {
				ts.dir.put(t.ID, RID{Page: pid, Slot: s}, 0)
			}
			if t.ID > ts.nextID {
				ts.nextID = t.ID
			}
			if !segKeySet {
				segKey = ts.segKeyFor(t.States)
				segKeySet = true
			}
		}
		if live == 0 {
			// In-use header but no live tuples (crash between scrub and
			// free): scrub fully and free.
			orphans = append(orphans, orphan{pid})
			return nil
		}
		seg, ok := ts.segs[segKey]
		if !ok {
			seg = newSegment()
			ts.segs[segKey] = seg
		}
		seg.pages[pid] = struct{}{}
		ts.pageSeg[pid] = segKey
		if pageFreeSpace(data) >= openSpaceThreshold {
			seg.open = append(seg.open, pid)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, o := range orphans {
		if err := m.freePage(o.pid); err != nil {
			return err
		}
	}
	return nil
}
