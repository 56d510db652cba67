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

// appendIDs appends the chunk's ids to dst.
func (c *chunk) appendIDs(dst []storage.TupleID) []storage.TupleID {
	return appendGaps(append(dst, c.first), c.first, c.enc[1:])
}

// appendGaps appends to dst the ids that the uvarint gaps in enc lead to
// from id. Gaps of one and two bytes — ids less than 16 384 apart —
// decode without a branch on their length, which is what a posting whose
// gaps straddle 128 would mispredict.
func appendGaps(dst []storage.TupleID, id storage.TupleID, enc []byte) []storage.TupleID {
	for off := 0; off < len(enc); {
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

// sumGaps returns the sum of the uvarint gaps in enc and how many there
// are: the distance from a posting's first id to its last, and its
// length less one. It adds eight bytes at a time while the gaps take one
// or two bytes each (ids under 16 384 apart) and decodes a longer one,
// or one that a word would cut, on its own.
func sumGaps(enc []byte) (sum uint64, n int) {
	const (
		flags = 0x8080808080808080 // each byte's continuation bit
		low7  = 0x7f7f7f7f7f7f7f7f
	)
	for len(enc) > 0 {
		if len(enc) >= 8 {
			w := binary.LittleEndian.Uint64(enc)
			more := w & flags
			if more == 0 { // eight one-byte gaps
				sum += laneSum(w)
				n += 8
				enc = enc[8:]
				continue
			}
			// Byte j+1 ends a two-byte gap when byte j continues.
			second := more >> 7 << 8
			if more>>63 == 0 && more&(second<<7) == 0 {
				// Every gap in w starts and ends in it, none is longer
				// than two bytes: add the first bytes, and the second
				// ones times 128.
				hi := second * 0xff
				sum += laneSum(w&low7&^hi) + laneSum(w&low7&hi)<<7
				n += 8 - bits.OnesCount64(more)
				enc = enc[8:]
				continue
			}
		}
		g, k := binary.Uvarint(enc)
		sum += g
		n++
		enc = enc[k:]
	}
	return sum, n
}

// laneSum adds up the eight bytes of w, each under 128.
func laneSum(w uint64) uint64 {
	w = w&0x00ff00ff00ff00ff + w>>8&0x00ff00ff00ff00ff // four 16-bit lanes, each ≤ 254
	return w * 0x0001000100010001 >> 48
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
