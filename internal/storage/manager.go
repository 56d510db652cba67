package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"instantdb/internal/catalog"
)

// Manager owns one Store and hands out TableStores over it. It maintains
// the free-page list (scrubbed pages ready for reuse) and rebuilds all
// in-memory directories from raw pages at recovery. Every page read and
// write of its TableStores goes through it (readPage, writePage), which
// counts them (PageIO). It also carries the snapshot-epoch stamps of the
// MVCC-lite read path: the engine sets the stamping epoch before applying
// a commit batch, and every tuple written during the apply is born at
// that epoch (see table.go; epoch 0 — the default for callers that never
// wire epochs — disables versioning and makes every tuple visible to
// every snapshot).
type Manager struct {
	mu     sync.Mutex
	store  Store
	free   []PageID
	tables map[uint32]*TableStore

	// stamp is the epoch in-flight mutations are born at; lowWater is
	// the oldest snapshot epoch still open, below which superseded row
	// versions are unreachable and pruned, and at or below which a birth
	// is one every snapshot sees.
	stamp    atomic.Uint64
	lowWater atomic.Uint64

	// pruned counts version-chain entries dropped (low-water or
	// MaxTupleVersions truncation); exposed as a metric by the engine.
	pruned atomic.Uint64

	// pageReads and pageWrites count the ReadPage and WritePage calls
	// this Manager issued to the store.
	pageReads, pageWrites atomic.Uint64

	// healed lists the torn degradation moves the last Rebuild settled.
	healed []HealedMove
}

// HealedMove is a degradation move torn by a crash that Rebuild settled:
// the tuple was found twice in the page file, and States is the state
// vector of the copy kept.
type HealedMove struct {
	Table  *catalog.Table
	Tuple  TupleID
	States []uint8
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
// at, and the low-water mark of open snapshots (SetLowWater). The engine
// calls it under its commit mutex before applying each batch.
func (m *Manager) SetStampEpoch(stamp, lowWater uint64) {
	m.stamp.Store(stamp)
	m.SetLowWater(lowWater)
}

// SetLowWater sets the low-water mark: the oldest snapshot epoch a reader
// holds, and below which none can be taken any more. Superseded row
// versions below it are pruned as their tuples are next updated, and the
// births at or below it are forgotten, those tuples being visible to
// every snapshot as a tuple with no birth is: now, in each table no
// reader or writer holds, and in the others by their next write run.
// The mark must not fall. The engine calls it under its commit mutex,
// before a batch applies and once it is published.
func (m *Manager) SetLowWater(low uint64) {
	m.lowWater.Store(low)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ts := range m.tables {
		// Births are exact until drained, so a busy table costs only
		// memory until later; and m.mu must not wait for a table lock,
		// which is taken before m.mu.
		if ts.mu.TryLock() {
			ts.births.drain(low)
			ts.mu.Unlock()
		}
	}
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
	ts.births = births{}
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
// issued to its store since open: the physical I/O that applying writes
// in runs (see TableStore.runPage) keeps to one read and one write per
// page a run touches.
func (m *Manager) PageIO() (reads, writes uint64) {
	return m.pageReads.Load(), m.pageWrites.Load()
}

// readPage and writePage are the store's page calls, counted (PageIO).
// Every page read and write of TableStore code goes through them.
func (m *Manager) readPage(pid PageID, buf []byte) error {
	m.pageReads.Add(1)
	return m.store.ReadPage(pid, buf)
}

func (m *Manager) writePage(pid PageID, data []byte) error {
	m.pageWrites.Add(1)
	return m.store.WritePage(pid, data)
}

// Sync flushes the page store (checkpoint support).
func (m *Manager) Sync() error { return m.store.Sync() }

// Rebuild reconstructs every table's in-memory state (tuple directory,
// segments, free list, next tuple id) from raw pages — the recovery path
// after reopening a file-backed database. Only an all-zero header (magic
// 0) marks a free page; a page with any other magic than the in-use one
// fails the rebuild with ErrPageFormat. Pages of tables absent from the
// catalog (dropped tables) are scrubbed and freed. A tuple found twice —
// a degradation move torn by a crash, both halves in the page file — is
// settled by resolveCopy once every page is read, and recorded
// (HealedMoves).
func (m *Manager) Rebuild(cat *catalog.Catalog) error {
	m.mu.Lock()
	m.free, m.healed = nil, nil
	m.tables = make(map[uint32]*TableStore)
	m.mu.Unlock()

	// What waits for the scan to end: freeing orphan pages and settling
	// second copies.
	var after []func() error
	var healed []HealedMove
	err := m.store.ForEachPage(func(pid PageID, data []byte) error {
		if !pageInUse(data) {
			if magic := pageMagicOf(data); magic != 0 {
				return fmt.Errorf("%w: page %d has magic 0x%04x, this build reads 0x%04x (and 0 for a free page)",
					ErrPageFormat, pid, magic, pageMagic)
			}
			m.mu.Lock()
			m.free = append(m.free, pid)
			m.mu.Unlock()
			return nil
		}
		tbl, err := cat.TableByID(pageTableID(data))
		if err != nil {
			after = append(after, func() error { return m.freePage(pid) })
			return nil
		}
		ts := m.Table(tbl)
		ts.mu.Lock()
		defer ts.mu.Unlock()
		n, f := pageNumSlots(data), pageFrame(data)
		var segKeySet bool
		var segKey uint64
		live := 0
		for s := uint16(0); s < n; s++ {
			rec, ok := pageRead(data, s)
			if !ok {
				continue
			}
			t, err := decodeRecord(rec, f)
			if err != nil {
				return fmt.Errorf("storage: rebuild %s page %d slot %d: %w", tbl.Name, pid, s, err)
			}
			live++
			if rid := (RID{Page: pid, Slot: s}); ts.dir.get(t.ID) != nil {
				after = append(after, func() error {
					h, err := ts.resolveCopy(rid)
					if err == nil {
						healed = append(healed, h)
					}
					return err
				})
			} else {
				ts.dir.put(t.ID, rid)
			}
			ts.nextID = max(ts.nextID, t.ID)
			if !segKeySet {
				segKey = ts.segKeyFor(t.States)
				segKeySet = true
			}
		}
		if live == 0 {
			// In-use header but no live tuples (crash between scrub and
			// free): scrub fully and free.
			after = append(after, func() error { return m.freePage(pid) })
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
	for _, f := range after {
		if err := f(); err != nil {
			return err
		}
	}
	m.mu.Lock()
	m.healed = healed
	m.mu.Unlock()
	return nil
}

// HealedMoves returns the torn degradation moves the last Rebuild
// settled, in the order it settled them. The caller must not modify it.
func (m *Manager) HealedMoves() []HealedMove {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.healed
}
