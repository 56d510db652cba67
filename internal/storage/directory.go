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
// record is and the epoch its current image became visible at (0 =
// visible to every snapshot).
type dirEntry struct {
	born uint64
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
func (d *directory) put(id TupleID, rid RID, born uint64) {
	c := d.chunks[id>>dirChunkBits]
	if c.ents == nil {
		c.ents = new([dirChunkSize]dirEntry)
	}
	c.ents[id&(dirChunkSize-1)] = dirEntry{born: born, page: rid.Page, slot: rid.Slot, used: true}
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
