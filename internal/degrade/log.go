package degrade

// arrivalLog is a table's pending tuples in arrival order — insert-run
// order live, stamp order after Reseed — packed once, however many
// queues wait on them. Every queue of the table reads it through its own
// cursor: under one hold per state all of a table's queues list the same
// tuples in the same order, so a queue's backlog is the stretch of the
// log between its cursor and the cursor of the state before it (the
// log's tail for a first state and for the tuple deletion). A tuple that
// fires in order thereby becomes the newest member of the next state's
// stretch without being stored again.
//
// Positions count tasks from the log's creation. Every chunk but the
// newest holds chunkTasks tasks, so a position names its chunk and its
// index there; a chunk is let go once every cursor has passed it.
type arrivalLog struct {
	packed
	// first is the position of chunks[0]'s first task, tail the position
	// the next push takes.
	first, tail int64
	// holes marks, per chunk (keyed by the position of its first task) and
	// per degradable column, the tasks a cursor of that column's chain
	// passed without firing them in order: the cursors behind it skip
	// them. A chunk without holes has no entry.
	holes  map[int64][]uint64
	nattrs int
	// readers are the queues whose cursors read the log.
	readers []*transQueue
}

// holeWords is the length of one column's hole bitmap in a chunk.
const holeWords = chunkTasks / 64

// cursor is a read position in an arrival log.
type cursor struct {
	// pos is the position of the next task to read.
	pos int64
	// off is where that task's pair starts in its chunk, and prev the task
	// before it, which the pair is a delta against (both unused for a
	// chunk's first task).
	off  int
	prev task
}

func (l *arrivalLog) push(t task) {
	l.packed.push(t)
	l.tail++
}

// locate returns the chunk holding position pos and pos's index in it.
func (l *arrivalLog) locate(pos int64) (*chunk, int) {
	i := (pos - l.first) / chunkTasks
	return l.chunks[i], int((pos - l.first) % chunkTasks)
}

// head decodes the task at c.pos (which must be before the tail) and
// returns it with the offset of the pair after it.
func (l *arrivalLog) head(c *cursor) (task, int) {
	ch, idx := l.locate(c.pos)
	if idx == 0 {
		return ch.first, 0
	}
	return ch.next(c.prev, c.off)
}

// advance moves c past the task at c.pos.
func (l *arrivalLog) advance(c *cursor) {
	c.prev, c.off = l.head(c)
	c.pos++
}

// cursorAt returns a cursor at position pos, decoding its chunk from the
// front.
func (l *arrivalLog) cursorAt(pos int64) cursor {
	c := cursor{pos: pos}
	if (pos-l.first)%chunkTasks == 0 {
		return c
	}
	ch, idx := l.locate(pos - 1)
	c.prev = ch.first
	for k := 0; k < idx; k++ {
		c.prev, c.off = ch.next(c.prev, c.off)
	}
	return c
}

// hole reports whether the cursors of column attr's chain skip the task
// at pos.
func (l *arrivalLog) hole(pos int64, attr int) bool {
	if l.holes == nil || attr < 0 {
		return false
	}
	bm := l.holes[pos-(pos-l.first)%chunkTasks]
	if bm == nil {
		return false
	}
	bit := attr*chunkTasks + int((pos-l.first)%chunkTasks)
	return bm[bit/64]&(1<<(bit%64)) != 0
}

// setHole makes the cursors of column attr's chain that have not reached
// pos yet skip it.
func (l *arrivalLog) setHole(pos int64, attr int) {
	if pos < l.first {
		return // every cursor is past it
	}
	start := pos - (pos-l.first)%chunkTasks
	if l.holes == nil {
		l.holes = make(map[int64][]uint64)
	}
	bm := l.holes[start]
	if bm == nil {
		bm = make([]uint64, l.nattrs*holeWords)
		l.holes[start] = bm
	}
	bit := attr*chunkTasks + int((pos-l.first)%chunkTasks)
	bm[bit/64] |= 1 << (bit % 64)
}

// release lets go of the chunks every cursor has passed.
func (l *arrivalLog) release() {
	low := l.tail
	for _, q := range l.readers {
		low = min(low, q.cur.pos)
	}
	for len(l.chunks) > 0 && l.first+int64(l.chunks[0].n) <= low {
		delete(l.holes, l.first)
		l.first += int64(l.chunks[0].n)
		l.chunks[0] = nil
		l.chunks = l.chunks[1:]
	}
	if len(l.chunks) == 0 {
		l.packed = packed{}
	}
}

// each calls yield for every task from c up to end that column attr's
// chain has not marked a hole, oldest first.
func (l *arrivalLog) each(c cursor, end int64, attr int, yield func(task)) {
	for c.pos < end {
		if !l.hole(c.pos, attr) {
			t, _ := l.head(&c)
			yield(t)
		}
		l.advance(&c)
	}
}

// bytes returns the heap the log holds: its chunks and hole bitmaps.
func (l *arrivalLog) bytes() int {
	n := l.packed.bytes()
	for _, bm := range l.holes {
		n += 8 * cap(bm)
	}
	return n
}
