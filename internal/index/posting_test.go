package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"instantdb/internal/storage"
)

// checkChunks decodes cs, a posting's chunks, without trusting the count
// bytes, and holds the chunk invariants: 1 to chunkIDs ids each, the
// count byte and the first and last ids in the clear agreeing with the
// gaps, ids ascending within and across chunks, bytes past a chunk's
// length zero. It returns the ids and the capacity of the chunks' arrays.
func checkChunks(cs []chunk) ([]storage.TupleID, int, error) {
	var ids []storage.TupleID
	bytes := 0
	for j := range cs {
		c := &cs[j]
		if len(c.enc) == 0 {
			return nil, 0, fmt.Errorf("chunk %d has no count byte", j)
		}
		if len(ids) > 0 && c.first <= ids[len(ids)-1] {
			return nil, 0, fmt.Errorf("chunk %d starts at %d, not above %d", j, c.first, ids[len(ids)-1])
		}
		n, id := 1, c.first
		ids = append(ids, id)
		for off := 1; off < len(c.enc); n++ {
			g, k := binary.Uvarint(c.enc[off:])
			if k <= 0 || g == 0 {
				return nil, 0, fmt.Errorf("chunk %d: bad gap at byte %d", j, off)
			}
			id += storage.TupleID(g)
			if id <= ids[len(ids)-1] {
				return nil, 0, fmt.Errorf("chunk %d: id %d wraps below %d", j, id, ids[len(ids)-1])
			}
			ids = append(ids, id)
			off += k
		}
		if n > chunkIDs || n != c.len() || id != c.last {
			return nil, 0, fmt.Errorf("chunk %d: %d ids up to %d, header says %d up to %d", j, n, id, c.len(), c.last)
		}
		for _, b := range c.enc[len(c.enc):cap(c.enc)] {
			if b != 0 {
				return nil, 0, fmt.Errorf("chunk %d: vacated bytes not zeroed", j)
			}
		}
		bytes += cap(c.enc)
	}
	return ids, bytes, nil
}

// checkVacatedChunks holds that a chunk table's slots past its length are
// zero.
func checkVacatedChunks(cs []chunk) error {
	for _, c := range cs[len(cs):cap(cs)] {
		if c.first != 0 || c.last != 0 || c.enc != nil {
			return errors.New("vacated chunk slot not zeroed")
		}
	}
	return nil
}

// runPostingOps interprets ops as a stream of posting operations and
// applies each to a posting and to a sorted-slice model, comparing them
// after every step. The posting sits between two others in one chunk
// table, as in a B+tree leaf, and must leave them as they are. An
// operation is an opcode byte and up to three argument bytes (missing
// ones read as zero).
func runPostingOps(ops []byte) error {
	var before, after chunk
	before.pack([]storage.TupleID{7, 9}, minEnc)
	after.pack([]storage.TupleID{5}, minEnc)
	tab := []chunk{before, after}
	p := posting{tab: &tab, lo: 1, hi: 1}
	held := cap(tab)*chunkBytes + cap(before.enc) + cap(after.enc) // what the table holds, by the returned deltas
	var m []storage.TupleID
	cur := storage.TupleID(1000) // the largest id added so far
	arg := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	add := func(tid storage.TupleID) error {
		i, found := slices.BinarySearch(m, tid)
		added, d := p.add(tid)
		held += d
		if added == found {
			return fmt.Errorf("add(%d) = %v, model holds it: %v", tid, added, found)
		}
		if !found {
			m = slices.Insert(m, i, tid)
		}
		return nil
	}
	remove := func(tid storage.TupleID) error {
		i, found := slices.BinarySearch(m, tid)
		removed, d := p.remove(tid)
		held += d
		if removed != found {
			return fmt.Errorf("remove(%d) = %v, model holds it: %v", tid, removed, found)
		}
		if found {
			m = slices.Delete(m, i, i+1)
		}
		return nil
	}
	run := func(n int, gap func() storage.TupleID) (err error) {
		for ; n > 0 && err == nil; n-- {
			cur += gap()
			err = add(cur)
		}
		return err
	}
	for step := 0; len(ops) > 0; step++ {
		op := arg()
		var err error
		switch op % 10 {
		case 0, 1: // a tail run of +1 steps
			err = run(arg()+1, func() storage.TupleID { return 1 })
		case 2: // a tail run of small steps
			n, g := arg()+1, arg()
			err = run(n, func() storage.TupleID { return storage.TupleID(1 + g%64) })
		case 3: // a tail run 2⁴⁰ apart, as after a restore
			err = run(arg()%8+1, func() storage.TupleID { return 1 << 40 })
		case 4: // ids with the top bit set
			if cur < 1<<63 {
				cur = 1<<63 | storage.TupleID(arg())
			}
			err = run(arg()%16+1, func() storage.TupleID { return storage.TupleID(1 + arg()) })
		case 5: // a duplicate
			if len(m) > 0 {
				err = add(m[(arg()<<8|arg())%len(m)])
			}
		case 6: // an id anywhere near the held ones, held or not
			base := storage.TupleID(0)
			if len(m) > 0 && m[0] > 300 {
				base = m[0] - 300
			}
			err = add(base + storage.TupleID(arg()<<8|arg()))
		case 7: // expiry order: the oldest ids, up to and across the end of the first chunk
			k := arg() % 3
			if cs := p.chunks(); len(cs) > 0 {
				k += cs[0].len() - 1
			}
			for ; k > 0 && len(m) > 0 && err == nil; k-- {
				err = remove(m[0])
			}
		case 8: // a middle id, then one not held
			if len(m) > 0 {
				at := (arg()<<8 | arg()) % len(m)
				if err = remove(m[at]); err == nil && len(m) > 0 {
					err = remove(m[min(at, len(m)-1)] + 1)
				}
			}
		case 9: // drain, oldest or newest first
			back := arg()%2 == 1
			for len(m) > 0 && err == nil {
				if back {
					err = remove(m[len(m)-1])
				} else {
					err = remove(m[0])
				}
			}
		}
		if err == nil {
			err = checkPosting(&p, m, held)
		}
		if err != nil {
			return fmt.Errorf("step %d (op %d): %w", step, op%10, err)
		}
	}
	return nil
}

// checkPosting compares p with the model and holds the chunk invariants,
// the neighbours' chunks and the byte count.
func checkPosting(p *posting, m []storage.TupleID, held int) error {
	tab := *p.tab
	if p.lo != 1 || p.hi != len(tab)-1 {
		return fmt.Errorf("posting spans [%d, %d) of a %d-chunk table", p.lo, p.hi, len(tab))
	}
	if ids, _, err := checkChunks(tab[:1]); err != nil || !slices.Equal(ids, []storage.TupleID{7, 9}) {
		return fmt.Errorf("the posting before changed: %v %v", ids, err)
	}
	if ids, _, err := checkChunks(tab[p.hi:]); err != nil || !slices.Equal(ids, []storage.TupleID{5}) {
		return fmt.Errorf("the posting after changed: %v %v", ids, err)
	}
	ids, bytes, err := checkChunks(p.chunks())
	if err != nil {
		return err
	}
	if !slices.Equal(ids, m) || p.len() != len(m) || !slices.Equal(p.appendTo(nil), m) {
		return fmt.Errorf("posting holds %d ids (len %d), model %d", len(ids), p.len(), len(m))
	}
	if err := checkVacatedChunks(tab); err != nil {
		return err
	}
	neighbours := cap(tab[0].enc) + cap(tab[p.hi].enc)
	if got := cap(tab)*chunkBytes + bytes + neighbours; got != held {
		return fmt.Errorf("the table holds %d bytes, the returned deltas add up to %d", got, held)
	}
	return nil
}

// TestPostingModel drives a posting and the sorted-slice model with the
// same random operation stream, one stream per seed; a failure names the
// seed, and -run 'TestPostingModel/seed=N' replays it.
func TestPostingModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 1500)
			rng.Read(ops)
			if err := runPostingOps(ops); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzPosting is the model test with the operation stream chosen by the
// fuzzer.
func FuzzPosting(f *testing.F) {
	f.Add([]byte{0, 255, 0, 200, 7, 0, 7, 1, 7, 2, 9, 0})
	f.Add([]byte{2, 200, 9, 3, 5, 4, 0, 20, 6, 0, 0, 6, 3, 255, 8, 0, 7, 9, 1})
	f.Add([]byte{1, 130, 6, 0, 40, 6, 0, 41, 8, 0, 64, 5, 0, 3, 7, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := runPostingOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// Property: posting add/remove keeps sorted uniqueness.
func TestQuickPosting(t *testing.T) {
	if err := quick.Check(func(ids []uint8) bool {
		var tab []chunk
		p := whole(&tab)
		model := map[storage.TupleID]bool{}
		for _, id := range ids {
			tid := storage.TupleID(id % 32)
			if id%2 == 0 {
				p.add(tid)
				model[tid] = true
			} else {
				p.remove(tid)
				delete(model, tid)
			}
		}
		got, _, err := checkChunks(p.chunks())
		if err != nil || len(got) != len(model) || p.lo != 0 || p.hi != len(tab) {
			return false
		}
		for _, id := range got {
			if !model[id] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Posting budgets: heap bytes per id, chunk table included. One long
// posting of ids 1–50 apart measured 1.33 B per id built and 1.41 grown;
// 7 000 postings of 14 ids about 100 apart, inline in their leaves, 0.99
// both ways, 4.1 built and 4.6 grown when each took chunks of its own. A
// posting of 8-byte ids took 8 exactly sized, up to 16 grown by append,
// and 24 B more per key for its slice header.
const (
	postingBudgetLong  = 2.0
	postingBudgetShort = 1.1
)

// TestPostingSizeBudget holds the heap postings keep per id, built by
// BuildBTree and grown by Add, to the committed budget. The heap of a
// tree of the same keys with one id each, built the same way, is
// subtracted, so what is left is the ids' bytes — in chunks and chunk
// tables for the long posting, in the leaves' id arenas for the short
// ones — and their slack.
func TestPostingSizeBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget float64
		keys   int
		ids    int // per key
		gap    func(*rand.Rand) storage.TupleID
	}{
		{"one posting, gaps 1-50", postingBudgetLong, 1, 100_000, func(r *rand.Rand) storage.TupleID { return 1 + storage.TupleID(r.Intn(50)) }},
		{"7000 postings of 14, gaps ~100", postingBudgetShort, 7000, 14, func(r *rand.Rand) storage.TupleID { return 75 + storage.TupleID(r.Intn(51)) }},
	} {
		// ids[k] is key k's posting, ascending; ids of different keys are
		// disjoint and interleave.
		rng := rand.New(rand.NewSource(1))
		ids := make([][]storage.TupleID, tc.keys)
		for k := range ids {
			id := storage.TupleID(k)
			for range tc.ids {
				id += tc.gap(rng)
				ids[k] = append(ids[k], id)
			}
		}
		key := func(k int) []byte { return binary.BigEndian.AppendUint32([]byte{3}, uint32(k)) }
		total := tc.keys * tc.ids
		// built bulk-builds the tree of the first n ids of every key.
		built := func(n int) *BTree {
			run := make([]Entry, 0, tc.keys*n)
			for k := range ids {
				for _, id := range ids[k][:n] {
					run = append(run, Entry{Key: key(k), TID: id})
				}
			}
			bt, err := BuildBTree(run)
			if err != nil {
				t.Fatal(err)
			}
			return bt
		}
		// added grows the tree id by id, the ids of all keys interleaved
		// as they arrive from inserts: every key gets its first id before
		// any key gets a second.
		added := func(n int) *BTree {
			bt := NewBTree()
			for i := range n {
				for k := range ids {
					bt.Add(key(k), ids[k][i])
				}
			}
			return bt
		}
		for _, how := range []struct {
			name  string
			build func(n int) *BTree
		}{{"built", built}, {"added", added}} {
			// What the runtime allocates for itself while a tree is built
			// (a new thread's m when the machine is busy) only ever adds
			// to a reading, and it comes once: the smallest of a few
			// readings is the tree's.
			heap := func(n int) (int64, Stats) {
				used, st := int64(math.MaxInt64), Stats{}
				for range 3 {
					before := heapInUse()
					bt := how.build(n)
					used = min(used, heapInUse()-before)
					st = bt.Stats()
					runtime.KeepAlive(bt)
				}
				return used, st
			}
			base, baseSt := heap(1)
			full, st := heap(tc.ids)
			if st.Entries != total || st.Keys != tc.keys || st.Leaves != baseSt.Leaves {
				t.Fatalf("%s, %s: %+v, the one-id tree %+v", tc.name, how.name, st, baseSt)
			}
			per := float64(full-base) / float64(total)
			gauge := float64(st.Bytes-baseSt.Bytes) / float64(total)
			t.Logf("%s, %s: %.2f B per id (budget %.1f), Stats %.2f", tc.name, how.name, per, tc.budget, gauge)
			if per > tc.budget {
				t.Errorf("%s, %s: postings keep %.2f B per id, budget %.1f", tc.name, how.name, per, tc.budget)
			}
			// Stats counts capacities; the allocator rounds them up to its
			// size classes.
			if gauge > per || gauge < 0.85*per {
				t.Errorf("%s, %s: Stats counts %.2f B per id, the heap grew by %.2f", tc.name, how.name, gauge, per)
			}
		}
	}
}

func heapInUse() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkPostingFIFOChurn keeps one key at 10 000 ids: each op adds the
// next id at the tail and removes the oldest at the head — a degradable
// column's coarse key under FIFO expiry.
func BenchmarkPostingFIFOChurn(b *testing.B) {
	const window = 10_000
	bt, key := NewBTree(), []byte("range1000")
	for i := 1; i <= window; i++ {
		bt.Add(key, storage.TupleID(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		bt.Add(key, storage.TupleID(window+i))
		bt.Remove(key, storage.TupleID(i))
	}
	b.StopTimer()
	if bt.Len() != window {
		b.Fatalf("%d ids under the key, want %d", bt.Len(), window)
	}
}

// TestSumGaps holds sumGaps to a plain decode of the same gaps: one-,
// two- and longer-byte gaps mixed at random, every length and offset a
// word can start at.
func TestSumGaps(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		var enc []byte
		var ids []storage.TupleID
		id := storage.TupleID(0)
		for range r.Intn(40) {
			var g uint64
			switch r.Intn(8) {
			case 0:
				g = uint64(r.Int63n(1 << 14))
			case 1:
				g = r.Uint64() >> r.Intn(64)
			default:
				g = uint64(r.Intn(128))
			}
			g = max(g, 1)
			enc = binary.AppendUvarint(enc, g)
			id += storage.TupleID(g)
			ids = append(ids, id)
		}
		sum, n := sumGaps(enc)
		want := uint64(0)
		if len(ids) > 0 {
			want = uint64(ids[len(ids)-1])
		}
		if n != len(ids) || sum != want {
			t.Fatalf("gaps % x: sum %d over %d, want %d over %d", enc, sum, n, want, len(ids))
		}
	}
}
