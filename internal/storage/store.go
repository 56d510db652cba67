// Package storage implements InstantDB's degradation-aware storage
// engine: a raw page store (memory- or file-backed), slotted heap pages,
// and per-table tuple stores partitioned by tuple state (the paper's STk
// subsets). Its distinguishing requirement is *physical
// non-recoverability*: every byte of a tuple payload that leaves a slot —
// through deletion, degradation rewrite, or relocation — is zero-filled
// before the space is reused or abandoned, so a forensic scan of the raw
// store never recovers an expired accuracy state (paper §III, citing
// Stahlberg et al. on unintended retention).
//
// All page I/O of the tuple stores goes through their Manager, one
// counted store call per access. Every write method of a TableStore is a
// run — InsertRun, UpdateRun, DegradeRun, DeleteRun, or a run of one —
// which holds the table lock once, reads each page it touches from the
// store once, modifies it in a pooled buffer, and writes the dirty pages
// back, scrubs included, before it returns, so a batch pays per page
// instead of per tuple. A run holds at most 64 pages; the 65th writes
// them back first.
//
// A degradation transition (DegradeAttr) patches the stored record: it
// splices the new state byte and the column's new stored form between
// the record's untouched bytes, decoding no column, and the degrader reads
// only the column it degrades (DegradableMany).
//
// For the engine's lock-free snapshot reads, each TableStore also keeps
// a bounded in-memory version chain per tuple (SnapshotGet,
// SnapshotScan): stable-column updates retain the superseded image for
// open snapshots, while degradation transitions scrub the expired
// accuracy state out of every retained version at their LCP deadline
// and deletions drop the whole chain — version lifetime is bounded by
// deadlines and the MaxTupleVersions cap, never extended by readers.
package storage

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// PageSize is the fixed size of every page in bytes.
const PageSize = 4096

// PageID identifies a page within a Store. Page 0 is valid.
type PageID uint32

// ErrPageRange is returned for out-of-range page accesses.
var ErrPageRange = errors.New("storage: page id out of range")

// Store is raw page I/O. Implementations must zero-fill freed pages
// (scrub-on-free) and expose every raw byte to ForEachPage so the
// forensic scanner can audit them. Implementations are safe for
// concurrent use.
type Store interface {
	// ReadPage copies page id into buf (len PageSize).
	ReadPage(id PageID, buf []byte) error
	// WritePage overwrites page id with data (len PageSize).
	WritePage(id PageID, data []byte) error
	// Allocate extends the store by one zeroed page.
	Allocate() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() uint32
	// ForEachPage calls fn with every page's raw content, in id order.
	// The slice is only valid during the call.
	ForEachPage(fn func(id PageID, data []byte) error) error
	// Sync makes previous writes durable (no-op for memory stores).
	Sync() error
	// Close releases resources. The store is unusable afterwards.
	Close() error
}

// MemStore is an in-memory Store used by tests, benchmarks and
// ephemeral databases.
type MemStore struct {
	mu    sync.RWMutex
	pages [][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// ReadPage implements Store.
func (m *MemStore) ReadPage(id PageID, buf []byte) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: read %d of %d", ErrPageRange, id, len(m.pages))
	}
	copy(buf, m.pages[id])
	return nil
}

// WritePage implements Store.
func (m *MemStore) WritePage(id PageID, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: write %d of %d", ErrPageRange, id, len(m.pages))
	}
	copy(m.pages[id], data)
	return nil
}

// Allocate implements Store.
func (m *MemStore) Allocate() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages = append(m.pages, make([]byte, PageSize))
	return PageID(len(m.pages) - 1), nil
}

// NumPages implements Store.
func (m *MemStore) NumPages() uint32 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return uint32(len(m.pages))
}

// ForEachPage implements Store.
func (m *MemStore) ForEachPage(fn func(id PageID, data []byte) error) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i, p := range m.pages {
		if err := fn(PageID(i), p); err != nil {
			return err
		}
	}
	return nil
}

// Sync implements Store (no-op).
func (m *MemStore) Sync() error { return nil }

// Close implements Store.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages = nil
	return nil
}

// FileStore is a file-backed Store. Writes go to the OS immediately but
// are only durable after Sync; InstantDB's durability comes from the WAL,
// with page files synced at checkpoints.
type FileStore struct {
	mu   sync.Mutex
	f    *os.File
	n    uint32 // allocated pages
	path string
}

// OpenFileStore opens (or creates) the page file at path. An existing
// file must be a whole number of pages.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s: size %d is not page aligned", path, st.Size())
	}
	return &FileStore{f: f, n: uint32(st.Size() / PageSize), path: path}, nil
}

// Path returns the backing file path.
func (s *FileStore) Path() string { return s.path }

// ReadPage implements Store.
func (s *FileStore) ReadPage(id PageID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if uint32(id) >= s.n {
		return fmt.Errorf("%w: read %d of %d", ErrPageRange, id, s.n)
	}
	// A short read (the file truncated behind the store's back) is an
	// error: the rest of buf would be whatever page it held before.
	if n, err := s.f.ReadAt(buf[:PageSize], int64(id)*PageSize); n < PageSize {
		return fmt.Errorf("storage: read page %d: %d of %d bytes: %w", id, n, PageSize, err)
	}
	return nil
}

// WritePage implements Store.
func (s *FileStore) WritePage(id PageID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if uint32(id) >= s.n {
		return fmt.Errorf("%w: write %d of %d", ErrPageRange, id, s.n)
	}
	if _, err := s.f.WriteAt(data[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// Allocate implements Store.
func (s *FileStore) Allocate() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := PageID(s.n)
	zero := make([]byte, PageSize)
	if _, err := s.f.WriteAt(zero, int64(id)*PageSize); err != nil {
		return 0, fmt.Errorf("storage: allocate page %d: %w", id, err)
	}
	s.n++
	return id, nil
}

// NumPages implements Store.
func (s *FileStore) NumPages() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// ForEachPage implements Store.
func (s *FileStore) ForEachPage(fn func(id PageID, data []byte) error) error {
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	buf := make([]byte, PageSize)
	for id := PageID(0); id < PageID(n); id++ {
		if err := s.ReadPage(id, buf); err != nil {
			return err
		}
		if err := fn(id, buf); err != nil {
			return err
		}
	}
	return nil
}

// Sync implements Store.
func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync()
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

var (
	_ Store = (*MemStore)(nil)
	_ Store = (*FileStore)(nil)
)
