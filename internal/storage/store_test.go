package storage

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"instantdb/internal/catalog"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
)

func testStores(t *testing.T) map[string]func(t *testing.T) Store {
	t.Helper()
	return map[string]func(t *testing.T) Store{
		"mem": func(t *testing.T) Store { return NewMemStore() },
		"file": func(t *testing.T) Store {
			s, err := OpenFileStore(filepath.Join(t.TempDir(), "pages.db"))
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
}

func TestStoreBasics(t *testing.T) {
	for name, open := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			defer s.Close()
			if s.NumPages() != 0 {
				t.Fatal("new store not empty")
			}
			id, err := s.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if id != 0 || s.NumPages() != 1 {
				t.Fatalf("first page id=%d n=%d", id, s.NumPages())
			}
			data := make([]byte, PageSize)
			copy(data, "hello pages")
			if err := s.WritePage(id, data); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, PageSize)
			if err := s.ReadPage(id, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("read != write")
			}
			if err := s.ReadPage(99, got); err == nil {
				t.Fatal("out of range read should fail")
			}
			if err := s.WritePage(99, data); err == nil {
				t.Fatal("out of range write should fail")
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStoreAllocateZeroed(t *testing.T) {
	for name, open := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			defer s.Close()
			id, _ := s.Allocate()
			buf := make([]byte, PageSize)
			if err := s.ReadPage(id, buf); err != nil {
				t.Fatal(err)
			}
			for _, b := range buf {
				if b != 0 {
					t.Fatal("allocated page not zeroed")
				}
			}
		})
	}
}

func TestStoreForEachPage(t *testing.T) {
	for name, open := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			defer s.Close()
			for i := 0; i < 3; i++ {
				id, _ := s.Allocate()
				data := make([]byte, PageSize)
				data[0] = byte(i + 1)
				if err := s.WritePage(id, data); err != nil {
					t.Fatal(err)
				}
			}
			var seen []byte
			err := s.ForEachPage(func(id PageID, data []byte) error {
				seen = append(seen, data[0])
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(seen, []byte{1, 2, 3}) {
				t.Fatalf("seen=%v", seen)
			}
		})
	}
}

func TestFileStorePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Allocate()
	data := make([]byte, PageSize)
	copy(data, "durable bytes")
	if err := s.WritePage(id, data); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.NumPages() != 1 {
		t.Fatalf("reopened pages=%d", s2.NumPages())
	}
	got := make([]byte, PageSize)
	if err := s2.ReadPage(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content lost across reopen")
	}
	if s2.Path() != path {
		t.Fatalf("Path()=%q", s2.Path())
	}
}

// TestFileStoreShortReadFails truncates pages.db behind an open store:
// reading the cut page must fail, not hand back a buffer whose tail is
// whatever it held before.
func TestFileStoreShortReadFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2; i++ {
		if _, err := s.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(path, PageSize+100); err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0xAA}, PageSize)
	if err := s.ReadPage(0, buf); err != nil {
		t.Fatalf("whole page before the cut: %v", err)
	}
	if err := s.ReadPage(1, buf); err == nil {
		t.Fatal("read of a truncated page succeeded")
	}
}

func TestPageOps(t *testing.T) {
	p := make([]byte, PageSize)
	initPage(p, 42, frame{})
	if !pageInUse(p) || pageTableID(p) != 42 {
		t.Fatal("init header wrong")
	}
	rec1 := []byte("first record")
	s1, ok := pageInsert(p, rec1, frame{})
	if !ok {
		t.Fatal("insert failed")
	}
	rec2 := []byte("second, longer record payload")
	s2, ok := pageInsert(p, rec2, frame{})
	if !ok || s2 == s1 {
		t.Fatal("second insert failed")
	}
	got, ok := pageRead(p, s1)
	if !ok || !bytes.Equal(got, rec1) {
		t.Fatalf("read slot1=%q", got)
	}
	if pageLive(p) != 2 {
		t.Fatalf("live=%d", pageLive(p))
	}
	// Delete scrubs.
	live, err := pageDelete(p, s1)
	if err != nil || live != 1 {
		t.Fatalf("delete: live=%d err=%v", live, err)
	}
	if _, ok := pageRead(p, s1); ok {
		t.Fatal("dead slot readable")
	}
	if bytes.Contains(p, rec1) {
		t.Fatal("deleted payload bytes survive in page")
	}
	// Dead slot directory entry is recycled.
	s3, ok := pageInsert(p, []byte("third"), frame{})
	if !ok || s3 != s1 {
		t.Fatalf("dead slot not recycled: %d", s3)
	}
	// Overwrite in place with shrink scrubs the tail.
	if !pageOverwrite(p, s2, []byte("tiny")) {
		t.Fatal("overwrite failed")
	}
	got, _ = pageRead(p, s2)
	if !bytes.Equal(got, []byte("tiny")) {
		t.Fatalf("after overwrite: %q", got)
	}
	if bytes.Contains(p, []byte("longer record payload")) {
		t.Fatal("overwritten payload bytes survive")
	}
	// Overwrite that grows is refused.
	if pageOverwrite(p, s2, bytes.Repeat([]byte("x"), 200)) {
		t.Fatal("growing overwrite must be refused")
	}
	// Double delete is a no-op.
	if _, err := pageDelete(p, s2); err != nil {
		t.Fatal(err)
	}
	if _, err := pageDelete(p, s2); err != nil {
		t.Fatal("double delete must not error")
	}
	// Out-of-range slot errors.
	if _, err := pageDelete(p, 99); err == nil {
		t.Fatal("oob delete should fail")
	}
}

func TestPageFillsUp(t *testing.T) {
	p := make([]byte, PageSize)
	initPage(p, 1, frame{})
	rec := bytes.Repeat([]byte("z"), 100)
	count := 0
	for {
		if _, ok := pageInsert(p, rec, frame{}); !ok {
			break
		}
		count++
	}
	// 4096-32 bytes / (100+4) per record ≈ 39.
	if count < 35 || count > 40 {
		t.Fatalf("page held %d 100-byte records", count)
	}
	if pageFreeSpace(p) >= 104 {
		t.Fatal("free space inconsistent with failed insert")
	}
}

// TestPageRejectsOversized: a page takes a record of MaxRecordSize bytes
// in its frame and refuses one a byte longer, and it measures a record
// handed in another frame after rebasing it into its own.
func TestPageRejectsOversized(t *testing.T) {
	pf := frame{id: 100, nanos: vclock.Epoch.UnixNano()}
	record := func(f frame, textLen int) []byte {
		return encodeRecord(nil, f, 101, vclock.Epoch.Add(time.Millisecond), nil,
			[]value.Value{value.Text(strings.Repeat("x", textLen))})
	}
	fill := MaxRecordSize - (len(record(pf, 200)) - 200)
	for _, c := range []struct {
		name string
		rec  []byte
		from frame
		fits bool
	}{
		{"max size", record(pf, fill), pf, true},
		{"a byte over", record(pf, fill+1), pf, false},
		{"max size once rebased", record(frame{}, fill), frame{}, true},
		{"a byte over once rebased", record(frame{}, fill+1), frame{}, false},
	} {
		p := make([]byte, PageSize)
		initPage(p, 1, pf)
		slot, ok := pageInsert(p, c.rec, c.from)
		if ok != c.fits {
			t.Fatalf("%s: a %d-byte record: ok = %v, want %v", c.name, len(c.rec), ok, c.fits)
		}
		if got, _ := pageRead(p, slot); ok && !bytes.Equal(got, record(pf, fill)) {
			t.Fatalf("%s: the page holds\n%x\nwant the record in its frame", c.name, got)
		}
	}
	if n := len(record(frame{}, fill)); n <= MaxRecordSize {
		t.Fatalf("sanity: in the zero frame the record takes %d bytes, no more than MaxRecordSize", n)
	}
}

// TestCheckRecordSizeBoundsLifeCycle: a row CheckRecordSize accepts
// fits a page at every stored form its degradable column can take — the
// longest, an 11-byte INT — in the frame farthest from it, where both
// deltas take ten bytes; and the largest row it accepts then fills a
// page exactly.
func TestCheckRecordSizeBoundsLifeCycle(t *testing.T) {
	tbl, err := patchTable(2, 0b10, catalog.LayoutMove)
	if err != nil {
		t.Fatal(err)
	}
	id, at := TupleID(1), vclock.Epoch
	far := frame{id: id + 1<<63, nanos: at.UnixNano() + math.MinInt64}
	largest := 0
	for n := MaxRecordSize - 60; n <= MaxRecordSize; n++ {
		row := []value.Value{value.Text(strings.Repeat("x", n)), value.Int(0)}
		if err := CheckRecordSize(tbl, row); err != nil {
			if !errors.Is(err, ErrRecordTooLarge) {
				t.Fatal(err)
			}
			continue
		}
		largest = n
		row[1] = value.Int(math.MinInt64)
		if l := len(encodeRecord(nil, far, id, at, []uint8{0}, row)); l > MaxRecordSize {
			t.Errorf("a %d-byte name passes, and its record grows to %d bytes", n, l)
		}
	}
	row := []value.Value{value.Text(strings.Repeat("x", largest)), value.Int(math.MinInt64)}
	if l := len(encodeRecord(nil, far, id, at, []uint8{0}, row)); l != MaxRecordSize {
		t.Errorf("the largest row accepted grows to %d bytes, want exactly MaxRecordSize (%d)", l, MaxRecordSize)
	}
}

// TestPageDeadSlotCount: over random inserts, deletes and overwrites,
// the header's counts tell a dead slot exactly when the slot directory
// holds one, and an insert takes the first dead slot when there is one
// and a new slot otherwise.
func TestPageDeadSlotCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := make([]byte, PageSize)
	initPage(p, 1, frame{})
	for step := 0; step < 20000; step++ {
		n := pageNumSlots(p)
		firstDead := n
		for s := n; s > 0; s-- {
			if off, _ := slotEntry(p, s-1); off == 0 {
				firstDead = s - 1
			}
		}
		if got, want := pageHasDeadSlot(p), firstDead < n; got != want {
			t.Fatalf("step %d: pageHasDeadSlot = %v with %d slots, %d live, first dead slot %d",
				step, got, n, pageLive(p), firstDead)
		}
		rec := bytes.Repeat([]byte{byte(step)}, 1+rng.Intn(300))
		switch op := rng.Intn(3); {
		case op == 0 || n == 0:
			free := pageFreeSpace(p)
			slot, ok := pageInsert(p, rec, frame{})
			if ok != (len(rec) <= free) {
				t.Fatalf("step %d: a %d-byte insert with %d bytes free: ok = %v", step, len(rec), free, ok)
			}
			if ok && slot != firstDead {
				t.Fatalf("step %d: insert took slot %d, want %d", step, slot, firstDead)
			}
		case op == 1:
			if _, err := pageDelete(p, uint16(rng.Intn(int(n)))); err != nil {
				t.Fatal(err)
			}
		default:
			pageOverwrite(p, uint16(rng.Intn(int(n))), rec[:len(rec)/2])
		}
	}
}
