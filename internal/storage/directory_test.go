package storage

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"instantdb/internal/catalog"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
)

func dirBytes(ts *TableStore) int { return ts.Stats().DirectoryBytes }

// TestDirectorySparseOutOfOrderIDs inserts under caller-chosen ids the
// way WAL replay, replication, restore and shard bootstrap do: not in
// order, not dense.
func TestDirectorySparseOutOfOrderIDs(t *testing.T) {
	_, tbl, loc := personFixture(t, catalog.LayoutMove)
	ts := NewManager(NewMemStore()).Table(tbl)
	stored, err := loc.ResolveInsert(value.Text("Dam 1"))
	if err != nil {
		t.Fatal(err)
	}
	ids := []TupleID{1000, 3, 1 << 40, 129, 128, 127, 1<<40 + 1, 2}
	for _, id := range ids {
		row := []value.Value{value.Int(int64(id % 1e6)), value.Text(fmt.Sprint(id)), stored}
		if err := ts.InsertWithID(id, row, []uint8{0}, vclock.Epoch); err != nil {
			t.Fatal(err)
		}
		// Redo of the same record is a no-op.
		if err := ts.InsertWithID(id, row, []uint8{0}, vclock.Epoch); err != nil {
			t.Fatal(err)
		}
	}
	if ts.Count() != len(ids) {
		t.Fatalf("Count=%d want %d", ts.Count(), len(ids))
	}
	for _, id := range ids {
		got, err := ts.Get(id)
		if err != nil || got.ID != id || got.Row[1].Text() != fmt.Sprint(id) {
			t.Fatalf("Get(%d) = %+v, %v", id, got, err)
		}
	}
	for _, id := range []TupleID{0, 1, 4, 126, 130, 999, 1<<40 - 1, 1<<40 + 2} {
		if _, err := ts.Get(id); err == nil {
			t.Fatalf("Get(%d) found a tuple never inserted", id)
		}
	}
	// {2,3,127} {128,129} {1000} {1<<40, 1<<40+1}: four chunks.
	if got := dirBytes(ts); got != 4*dirChunkBytes {
		t.Fatalf("directory holds %d bytes, want 4 chunks of %d", got, dirChunkBytes)
	}
	// Fresh ids continue past the largest one seen.
	id, err := ts.Insert([]value.Value{value.Int(7), value.Text("next"), stored}, []uint8{0}, vclock.Epoch)
	if err != nil || id != 1<<40+2 {
		t.Fatalf("next id %d, %v", id, err)
	}
}

func TestDirectoryHugeIDCostsOneChunk(t *testing.T) {
	_, tbl, loc := personFixture(t, catalog.LayoutMove)
	ts := NewManager(NewMemStore()).Table(tbl)
	stored, _ := loc.ResolveInsert(value.Text("Dam 1"))
	if err := ts.InsertWithID(1<<60, []value.Value{value.Int(1), value.Text("far"), stored}, []uint8{0}, vclock.Epoch); err != nil {
		t.Fatal(err)
	}
	if got := dirBytes(ts); got != dirChunkBytes {
		t.Fatalf("id 1<<60 costs %d bytes of directory, want one chunk (%d)", got, dirChunkBytes)
	}
	if got, err := ts.Get(1 << 60); err != nil || got.Row[1].Text() != "far" {
		t.Fatalf("Get(1<<60) = %+v, %v", got, err)
	}
}

func TestDirectoryDeleteAllFreesEveryChunk(t *testing.T) {
	_, tbl, loc := personFixture(t, catalog.LayoutMove)
	ts := NewManager(NewMemStore()).Table(tbl)
	var ids []TupleID
	for i := 0; i < 1000; i++ {
		ids = append(ids, insertPerson(t, ts, loc, int64(i), "p", "Dam 1"))
	}
	if want := (1000/dirChunkSize + 1) * dirChunkBytes; dirBytes(ts) != want {
		t.Fatalf("1000 dense ids hold %d bytes, want %d", dirBytes(ts), want)
	}
	// Oldest first, as a life cycle policy deletes: chunks go one by one.
	for i, id := range ids[:dirChunkSize*3] {
		if err := ts.Delete(id); err != nil {
			t.Fatal(err)
		}
		if want := (1000/dirChunkSize + 1 - int(id+1)/dirChunkSize) * dirChunkBytes; dirBytes(ts) != want {
			t.Fatalf("after deleting the %d oldest: %d bytes, want %d", i+1, dirBytes(ts), want)
		}
	}
	rest := ids[dirChunkSize*3:]
	rand.New(rand.NewSource(1)).Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for _, id := range rest {
		if err := ts.Delete(id); err != nil {
			t.Fatal(err)
		}
		if err := ts.Delete(id); err != nil { // redo: no-op
			t.Fatal(err)
		}
	}
	if ts.Count() != 0 || dirBytes(ts) != 0 {
		t.Fatalf("after deleting all: %d tuples, %d directory bytes", ts.Count(), dirBytes(ts))
	}
}

func TestDirectoryResetByDropAndRebuild(t *testing.T) {
	cat, tbl, loc := personFixture(t, catalog.LayoutMove)
	m := NewManager(NewMemStore())
	ts := m.Table(tbl)
	for i := 0; i < 300; i++ {
		insertPerson(t, ts, loc, int64(i), "p", "Dam 1")
	}
	m.SetStampEpoch(5, 0)
	late := insertPerson(t, ts, loc, 300, "late", "Dam 1")
	if _, err := ts.SnapshotGet(late, 4); err == nil {
		t.Fatal("tuple born at epoch 5 visible at 4")
	}
	// Rebuild reads the pages afresh: same tuples, same chunks, and
	// every tuple visible to every snapshot again.
	if err := m.Rebuild(cat); err != nil {
		t.Fatal(err)
	}
	ts = m.Table(tbl)
	if ts.Count() != 301 || dirBytes(ts) != (301/dirChunkSize+1)*dirChunkBytes {
		t.Fatalf("rebuilt: %d tuples, %d directory bytes", ts.Count(), dirBytes(ts))
	}
	if _, err := ts.SnapshotGet(late, 0); err != nil {
		t.Fatalf("rebuilt tuple not visible at epoch 0: %v", err)
	}
	if err := m.DropTable(tbl.ID); err != nil {
		t.Fatal(err)
	}
	if ts.Count() != 0 || dirBytes(ts) != 0 {
		t.Fatalf("dropped table still holds %d tuples, %d directory bytes", ts.Count(), dirBytes(ts))
	}
	if fresh := m.Table(tbl); fresh.Count() != 0 || dirBytes(fresh) != 0 {
		t.Fatal("table recreated after drop is not empty")
	}
}

// TestBirthsDrainRebirths: a directory entry is 8 bytes because births
// live apart. A tuple born again before its first birth drains keeps the
// later birth until the mark passes that too; a deleted tuple's queued
// entry is skipped; the last drain releases the storage.
func TestBirthsDrainRebirths(t *testing.T) {
	if n := unsafe.Sizeof(dirEntry{}); n != 8 {
		t.Fatalf("a directory entry takes %d bytes, want 8", n)
	}
	var b births
	b.set(1, 5)
	b.set(2, 5)
	b.set(1, 7)
	b.set(3, 6)
	b.drop(2)
	want := func(step string, born map[TupleID]uint64) {
		t.Helper()
		for id := TupleID(1); id <= 3; id++ {
			if got := b.of(id); got != born[id] {
				t.Fatalf("%s: tuple %d born at %d, want %d", step, id, got, born[id])
			}
		}
		if len(b.at) != len(born) {
			t.Fatalf("%s: %d young tuples, want %d", step, len(b.at), len(born))
		}
	}
	want("before", map[TupleID]uint64{1: 7, 3: 6})
	b.drain(5)
	want("drain to 5", map[TupleID]uint64{1: 7, 3: 6})
	b.drain(6)
	want("drain to 6", map[TupleID]uint64{1: 7})
	b.drain(7)
	want("drain to 7", nil)
	if b.at != nil || b.fifo != nil || b.bytes() != 0 {
		t.Fatalf("drained births keep storage: %d queued, %d bytes", len(b.fifo), b.bytes())
	}
}
