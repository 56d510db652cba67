package degrade

import (
	"encoding/binary"
	"slices"
	"unsafe"

	"instantdb/internal/storage"
)

// task is one tuple waiting for one transition.
type task struct {
	tid        storage.TupleID
	insertNano int64
}

// chunkTasks is the number of tasks a chunk is filled to before the next
// push opens a new one.
const chunkTasks = 256

// chunk is a run of consecutive tasks of one queue: the first in the
// clear, each later one as two zigzag varints — its tuple id and insert
// instant less its predecessor's. Neighbours in a degradation queue
// differ by one id and a few microseconds, so a pair takes 2–5 bytes;
// either delta may be negative (sessions commit out of stamp order).
type chunk struct {
	first task
	// minNano is a lower bound on every stamp in the chunk — exact until
	// tasks are popped off its front, when it may stay lower than what is
	// left. insertSorted skips chunks it rules out.
	minNano int64
	n       int
	enc     []byte
}

// next decodes the task that follows prev, whose pair starts at off.
func (c *chunk) next(prev task, off int) (task, int) {
	dt, a := binary.Varint(c.enc[off:])
	dn, b := binary.Varint(c.enc[off+a:])
	return task{prev.tid + storage.TupleID(dt), prev.insertNano + dn}, off + a + b
}

// appendDelta encodes t as the successor of prev.
func appendDelta(enc []byte, prev, t task) []byte {
	enc = binary.AppendVarint(enc, int64(t.tid-prev.tid))
	return binary.AppendVarint(enc, t.insertNano-prev.insertNano)
}

// packChunk encodes ts (not empty) into a chunk of exactly their size.
func packChunk(ts []task) *chunk {
	c := &chunk{first: ts[0], minNano: ts[0].insertNano, n: len(ts)}
	var enc []byte
	for i := 1; i < len(ts); i++ {
		enc = appendDelta(enc, ts[i-1], ts[i])
		c.minNano = min(c.minNano, ts[i].insertNano)
	}
	c.enc = slices.Clone(enc)
	return c
}

// packed is an append-only run of chunks, each filled to chunkTasks
// before the next push opens another.
type packed struct {
	chunks []*chunk
	// last is the newest task: the next push is encoded against it.
	last task
}

// push appends t behind every task packed and reports whether it opened
// a new chunk.
func (p *packed) push(t task) bool {
	k, prev := len(p.chunks), p.last
	p.last = t
	if k > 0 && p.chunks[k-1].n < chunkTasks {
		c := p.chunks[k-1]
		c.enc = appendDelta(c.enc, prev, t)
		c.minNano = min(c.minNano, t.insertNano)
		c.n++
		return false
	}
	// The chunk before is full: give back what append left over, and
	// expect this one to come out the same size. Only a first chunk grows
	// from nothing.
	c := &chunk{first: t, minNano: t.insertNano, n: 1}
	if k > 0 {
		full := p.chunks[k-1]
		if cap(full.enc)-len(full.enc) > len(full.enc)/8 {
			full.enc = slices.Clone(full.enc)
		}
		c.enc = make([]byte, 0, len(full.enc))
	}
	p.chunks = append(p.chunks, c)
	return true
}

// bytes returns the heap the chunks hold.
func (p *packed) bytes() int {
	n := cap(p.chunks) * int(unsafe.Sizeof((*chunk)(nil)))
	for _, c := range p.chunks {
		n += int(unsafe.Sizeof(*c)) + cap(c.enc)
	}
	return n
}

// taskFIFO is a queue's private backlog — the tuples that reached its
// state out of arrival order, kept in stamp order by insertSorted, or in
// the order Reseed pushed them, which is stamp order — packed into
// chunks. The oldest task
// is kept decoded, so reading it costs nothing and popping decodes one
// pair; a chunk is let go as the head leaves it, and a drained queue
// holds no chunk at all.
type taskFIFO struct {
	packed
	n int
	// head is the oldest task, the idx-th of chunks[0]; the pair of the
	// task after it starts at off.
	head task
	idx  int
	off  int
}

func (f *taskFIFO) len() int { return f.n }

// peek returns the oldest task.
func (f *taskFIFO) peek() (task, bool) { return f.head, f.n > 0 }

// push appends t behind every task queued.
func (f *taskFIFO) push(t task) {
	if f.packed.push(t) && len(f.chunks) == 1 {
		f.enter(f.chunks[0])
	}
	f.n++
}

// enter puts the head on the first task of c, the chunk now in front.
func (f *taskFIFO) enter(c *chunk) { f.head, f.idx, f.off = c.first, 0, 0 }

// pop discards the oldest task.
func (f *taskFIFO) pop() {
	c := f.chunks[0]
	f.n--
	f.idx++
	if f.idx < c.n {
		f.head, f.off = c.next(f.head, f.off)
		return
	}
	f.chunks[0] = nil
	f.chunks = f.chunks[1:]
	if len(f.chunks) == 0 {
		*f = taskFIFO{}
		return
	}
	f.enter(f.chunks[0])
}

// popWhile moves the oldest tasks to dst, at most max of them, for as
// long as due holds for the oldest.
func (f *taskFIFO) popWhile(dst []task, max int, due func(task) bool) []task {
	for ; max > 0 && f.n > 0 && due(f.head); max-- {
		dst = append(dst, f.head)
		f.pop()
	}
	return dst
}

// each calls yield for every queued task, oldest first.
func (f *taskFIFO) each(yield func(task)) {
	for i := range f.chunks {
		f.walk(i, yield)
	}
}

// walk calls yield for the queued tasks of chunks[i]: all of them but
// for the front chunk, which starts at the head.
func (f *taskFIFO) walk(i int, yield func(task)) {
	c := f.chunks[i]
	t, idx, off := c.first, 0, 0
	if i == 0 {
		t, idx, off = f.head, f.idx, f.off
	}
	for yield(t); idx+1 < c.n; idx++ {
		t, off = c.next(t, off)
		yield(t)
	}
}

// insertSorted places t behind the newest task stamped no later than it
// (in front of all if there is none), which keeps a queue that is in
// stamp order in stamp order. Only the chunk t lands in is decoded and
// packed again, into two when it was full.
func (f *taskFIFO) insertSorted(t task) {
	if f.n == 0 || f.last.insertNano <= t.insertNano {
		f.push(t)
		return
	}
	at, pos := 0, 0
	ts := make([]task, 0, chunkTasks+1)
	for i := len(f.chunks) - 1; i >= 0; i-- {
		if i > 0 && f.chunks[i].minNano > t.insertNano {
			continue
		}
		ts = ts[:0]
		f.walk(i, func(q task) { ts = append(ts, q) })
		j := len(ts)
		for j > 0 && ts[j-1].insertNano > t.insertNano {
			j--
		}
		if j > 0 || i == 0 {
			at, pos = i, j
			break
		}
	}
	ts = slices.Insert(ts, pos, t)
	if len(ts) <= chunkTasks {
		f.chunks[at] = packChunk(ts)
	} else {
		half := len(ts) / 2
		f.chunks = slices.Insert(f.chunks, at+1, packChunk(ts[half:]))
		f.chunks[at] = packChunk(ts[:half])
	}
	if at == 0 {
		f.enter(f.chunks[0])
	}
	f.n++
}
