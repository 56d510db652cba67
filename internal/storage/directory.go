package storage

import "unsafe"

// dirChunkBits sizes the tuple directory's chunks: 128 ids, 2 KiB.
// Tuple ids are handed out in insert order and a life cycle policy
// removes tuples in about that order, so dead ids cluster at the old end
// of the id space and whole chunks drain and are dropped; a chunk small
// enough to drain soon and large enough that the map over chunks stays
// negligible is all the choice asks for.
const (
	dirChunkBits = 7
	dirChunkSize = 1 << dirChunkBits
)

// dirEntry is what the store keeps on the heap per live tuple: where its
// record is, in 8 bytes. The epoch a tuple's current image became
// visible at is kept apart, and only while a snapshot can tell it from 0
// (births).
type dirEntry struct {
	page PageID
	slot uint16
	used bool
}

func (e *dirEntry) rid() RID { return RID{Page: e.page, Slot: e.slot} }

// dirChunk holds the entries of the ids sharing id >> dirChunkBits.
type dirChunk struct {
	ents *[dirChunkSize]dirEntry
	live int // entries in use; the chunk is dropped with its last
}

const dirChunkBytes = int(unsafe.Sizeof([dirChunkSize]dirEntry{}))

// directory maps tuple ids to their entries through fixed-size chunks.
// Chunks are found through a map, so an id far from all others (a
// replayed, replicated or restored id) costs one chunk, never memory in
// proportion to its value.
type directory struct {
	chunks map[TupleID]dirChunk
	n      int
}

func newDirectory() directory { return directory{chunks: make(map[TupleID]dirChunk)} }

// get returns id's entry, nil when the id is not live. The pointer is
// valid until the entry is deleted.
func (d *directory) get(id TupleID) *dirEntry {
	c, ok := d.chunks[id>>dirChunkBits]
	if !ok {
		return nil
	}
	if e := &c.ents[id&(dirChunkSize-1)]; e.used {
		return e
	}
	return nil
}

// put records a new live tuple; id must not be live.
func (d *directory) put(id TupleID, rid RID) {
	c := d.chunks[id>>dirChunkBits]
	if c.ents == nil {
		c.ents = new([dirChunkSize]dirEntry)
	}
	c.ents[id&(dirChunkSize-1)] = dirEntry{page: rid.Page, slot: rid.Slot, used: true}
	c.live++
	d.chunks[id>>dirChunkBits] = c
	d.n++
}

// del forgets id, and its chunk with the chunk's last entry.
func (d *directory) del(id TupleID) {
	c := d.chunks[id>>dirChunkBits]
	c.ents[id&(dirChunkSize-1)] = dirEntry{}
	if c.live--; c.live == 0 {
		delete(d.chunks, id>>dirChunkBits)
	} else {
		d.chunks[id>>dirChunkBits] = c
	}
	d.n--
}

// bytes returns the heap held by the chunks.
func (d *directory) bytes() int { return len(d.chunks) * dirChunkBytes }

// births holds the birth epochs of young tuples: those whose current
// image was written at an epoch above the Manager's low-water mark, so
// that a snapshot older than the image is open or may still be taken.
// Every other live tuple's image is visible to every snapshot any reader
// holds or can take, which is what a missing entry, born at 0, says.
// Entries sit in at for lookup and, in apply order, in fifo, from whose
// front a rising low-water mark drains them: an entry is queued once
// when its tuple turns young and requeued at most once per rebirth, so
// draining costs amortized O(1) per birth, never a sweep of the table.
type births struct {
	at   map[TupleID]uint64
	fifo []birth
}

type birth struct {
	born uint64
	id   TupleID
}

// birthMapBytes is what a young tuple costs in at, on top of its fifo
// entry: a key and value slot with its share of control bytes and of the
// slots a map keeps free.
const birthMapBytes = 32

// of returns id's birth epoch, 0 when it is not young.
func (b *births) of(id TupleID) uint64 { return b.at[id] }

// set records that id's current image was born at epoch born, above the
// low-water mark.
func (b *births) set(id TupleID, born uint64) {
	if _, young := b.at[id]; !young {
		if b.at == nil {
			b.at = make(map[TupleID]uint64)
		}
		b.fifo = append(b.fifo, birth{born: born, id: id})
	}
	b.at[id] = born
}

// drop forgets id's birth: the tuple is gone, or its image is old enough
// for every snapshot. A queued entry of id is skipped when drained.
func (b *births) drop(id TupleID) { delete(b.at, id) }

// drain forgets every birth at or below low, and releases the storage
// once no tuple is young.
func (b *births) drain(low uint64) {
	i := 0
	for ; i < len(b.fifo) && b.fifo[i].born <= low; i++ {
		id := b.fifo[i].id
		switch born, ok := b.at[id]; {
		case !ok:
		case born <= low:
			delete(b.at, id)
		default: // born again since it was queued: queue it again
			b.fifo = append(b.fifo, birth{born: born, id: id})
		}
	}
	if len(b.at) == 0 {
		*b = births{}
		return
	}
	b.fifo = b.fifo[i:]
}

// bytes returns the heap the young tuples hold.
func (b *births) bytes() int {
	return cap(b.fifo)*int(unsafe.Sizeof(birth{})) + len(b.at)*birthMapBytes
}
