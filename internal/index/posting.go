package index

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"
	"unsafe"

	"instantdb/internal/storage"
)

// chunkIDs is the number of tuple ids a posting chunk holds at most.
const chunkIDs = 128

// chunk is a run of consecutive ids of one posting. Its first and last
// id are in the clear; enc holds the count less one, then every id after
// the first as a uvarint gap from its predecessor. Ids in a posting are
// sorted and unique, so every gap is at least 1 and takes one byte while
// neighbours are fewer than 128 apart.
type chunk struct {
	first, last storage.TupleID
	enc         []byte
}

const chunkBytes = int(unsafe.Sizeof(chunk{}))

func (c *chunk) len() int { return int(c.enc[0]) + 1 }

// appendIDs appends the chunk's ids to dst. Gaps of one and two bytes —
// ids less than 16 384 apart — decode without a branch on their length,
// which is what a posting whose gaps straddle 128 would mispredict.
func (c *chunk) appendIDs(dst []storage.TupleID) []storage.TupleID {
	id, enc := c.first, c.enc
	dst = append(dst, id)
	for off := 1; off < len(enc); {
		b0, b1 := uint64(enc[off]), uint64(0)
		if off+1 < len(enc) {
			b1 = uint64(enc[off+1])
		}
		more := b0 >> 7
		g, k := b0&0x7f|(b1&0x7f)<<7&-more, 1+int(more)
		if more&(b1>>7) != 0 {
			g, k = binary.Uvarint(enc[off:])
		}
		id += storage.TupleID(g)
		dst = append(dst, id)
		off += k
	}
	return dst
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// minEnc is the smallest byte array a chunk that changes with single
// adds and removes allocates. The allocator packs smaller ones into
// shared 16-byte blocks, which garbage allocated beside them keeps alive:
// a key built for one insert pins half a block.
const minEnc = 16

// pack encodes ids (sorted, unique, 1 to chunkIDs of them) into c: in
// place when they fit, zeroing the bytes they no longer use, else into an
// array of their size's class, least bytes at least. It returns the
// capacity gained.
func (c *chunk) pack(ids []storage.TupleID, least int) int {
	need := 1
	for k := 1; k < len(ids); k++ {
		need += uvarintLen(uint64(ids[k] - ids[k-1]))
	}
	before := cap(c.enc)
	if need > before {
		clear(c.enc)
		c.enc = alloc[byte](max(need, least))
	}
	enc := append(c.enc[:0], byte(len(ids)-1))
	for k := 1; k < len(ids); k++ {
		enc = binary.AppendUvarint(enc, uint64(ids[k]-ids[k-1]))
	}
	if len(enc) < len(c.enc) {
		clear(c.enc[len(enc):])
	}
	c.first, c.last, c.enc = ids[0], ids[len(ids)-1], enc
	return cap(enc) - before
}

// push appends tid, larger than every id held, and returns the capacity
// gained.
func (c *chunk) push(tid storage.TupleID) int {
	before := cap(c.enc)
	c.enc = binary.AppendUvarint(c.enc, uint64(tid-c.last))
	c.enc[0]++
	c.last = tid
	return cap(c.enc) - before
}

// popFirst drops the first id of a chunk holding several: the next gap
// becomes the new first id and the bytes behind it move down one gap.
func (c *chunk) popFirst() {
	g, k := binary.Uvarint(c.enc[1:])
	c.first += storage.TupleID(g)
	n := 1 + copy(c.enc[1:], c.enc[1+k:])
	clear(c.enc[n:])
	c.enc = c.enc[:n]
	c.enc[0]--
}

// insertChunk places c at index at of *tab and returns the capacity
// gained. A full table grows by a quarter.
func insertChunk(tab *[]chunk, at int, c chunk) int {
	cs, grown := *tab, 0
	if len(cs) == cap(cs) {
		bigger := append(alloc[chunk](len(cs)+len(cs)/4+1), cs...)
		grown = (cap(bigger) - cap(cs)) * chunkBytes
		cs = bigger
	}
	cs = cs[:len(cs)+1]
	copy(cs[at+1:], cs[at:])
	cs[at] = c
	*tab = cs
	return grown
}

// deleteChunk zeroes chunk at of *tab, removes it and returns the
// capacity gained (negative). The table is let go with its last chunk
// and moved to a smaller array when three quarters of it stand empty.
func deleteChunk(tab *[]chunk, at int) int {
	cs := *tab
	d := -cap(cs[at].enc)
	clear(cs[at].enc)
	copy(cs[at:], cs[at+1:])
	cs[len(cs)-1] = chunk{}
	cs = cs[:len(cs)-1]
	switch {
	case len(cs) == 0:
		d -= cap(cs) * chunkBytes
		cs = nil
	case len(cs) < cap(cs)/4:
		smaller := append(alloc[chunk](len(cs)+len(cs)/4+1), cs...)
		d -= (cap(cs) - cap(smaller)) * chunkBytes
		cs = smaller
	}
	*tab = cs
	return d
}

// posting is one sorted set of tuple ids: the chunks (*tab)[lo:hi] of a
// chunk table that may hold other postings before and after it — a
// B+tree leaf keeps the postings of all its keys in one table, in key
// order. add and remove touch one chunk, found by binary search over the
// chunks' first ids, update hi when the posting gains or loses a chunk,
// and return the capacity in bytes the table and its chunks gained.
type posting struct {
	tab    *[]chunk
	lo, hi int
}

// whole returns the posting that is all of *tab.
func whole(tab *[]chunk) posting { return posting{tab: tab, hi: len(*tab)} }

func (p *posting) chunks() []chunk { return (*p.tab)[p.lo:p.hi] }

// len returns the number of ids held.
func (p *posting) len() int {
	n := 0
	for _, c := range p.chunks() {
		n += c.len()
	}
	return n
}

// appendTo appends the ids, ascending, to dst.
func (p *posting) appendTo(dst []storage.TupleID) []storage.TupleID {
	cs := p.chunks()
	if len(cs) > 1 {
		dst = slices.Grow(dst, p.len())
	}
	for i := range cs {
		dst = cs[i].appendIDs(dst)
	}
	return dst
}

// find returns the chunk that holds tid if anything does: the last one
// whose first id is not above it (the first chunk for an id below all).
func (p *posting) find(tid storage.TupleID) int {
	cs := p.chunks()
	return max(sort.Search(len(cs), func(j int) bool { return cs[j].first > tid })-1, 0)
}

// add inserts tid and reports whether it was new. An id past the last one
// is appended to the last chunk, or opens a new chunk when that one is
// full; any other is inserted into the chunk it falls in, which splits in
// half when full.
func (p *posting) add(tid storage.TupleID) (bool, int) {
	cs := p.chunks()
	if len(cs) == 0 {
		var c chunk
		d := c.pack([]storage.TupleID{tid}, minEnc)
		p.hi++
		return true, d + insertChunk(p.tab, p.lo, c)
	}
	if tail := &cs[len(cs)-1]; tid > tail.last {
		if tail.len() < chunkIDs {
			return true, tail.push(tid)
		}
		// The tail is full: give back what append left over, and expect the
		// next one to come out the same size.
		d := 0
		if cap(tail.enc)-len(tail.enc) > len(tail.enc)/8 {
			enc := append(alloc[byte](len(tail.enc)), tail.enc...)
			d = cap(enc) - cap(tail.enc)
			clear(tail.enc)
			tail.enc = enc
		}
		enc := alloc[byte](len(tail.enc))[:1]
		d += cap(enc) + insertChunk(p.tab, p.hi, chunk{first: tid, last: tid, enc: enc})
		p.hi++
		return true, d
	}
	j := p.find(tid)
	c := &cs[j]
	if tid == c.first || tid == c.last {
		return false, 0
	}
	var buf [chunkIDs + 1]storage.TupleID
	ids := c.appendIDs(buf[:0])
	i, found := slices.BinarySearch(ids, tid)
	if found {
		return false, 0
	}
	ids = slices.Insert(ids, i, tid)
	if len(ids) <= chunkIDs {
		return true, c.pack(ids, minEnc)
	}
	half := len(ids) / 2
	d := c.pack(ids[:half], minEnc)
	var right chunk
	d += right.pack(ids[half:], minEnc)
	p.hi++
	return true, d + insertChunk(p.tab, p.lo+j+1, right)
}

// remove deletes tid and reports whether it was held. The chunk it leaves
// shrinks in place with its vacated bytes zeroed, and is dropped with its
// last id.
func (p *posting) remove(tid storage.TupleID) (bool, int) {
	cs := p.chunks()
	if len(cs) == 0 {
		return false, 0
	}
	j := p.find(tid)
	c := &cs[j]
	switch {
	case tid < c.first || tid > c.last:
		return false, 0
	case c.len() == 1:
		p.hi--
		return true, deleteChunk(p.tab, p.lo+j)
	case tid == c.first: // expiry order: the oldest id leaves first
		c.popFirst()
		return true, 0
	}
	var buf [chunkIDs]storage.TupleID
	ids := c.appendIDs(buf[:0])
	i, found := slices.BinarySearch(ids, tid)
	if !found {
		return false, 0
	}
	return true, c.pack(slices.Delete(ids, i, i+1), minEnc)
}
