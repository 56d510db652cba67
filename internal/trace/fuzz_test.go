package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// runStrings are the texts the op stream draws table, attribute and
// detail from: empty, short, and one of 3 000 bytes (a two-byte length).
var runStrings = []string{"", "person", "location", "state 0→1", "tuple-delete", strings.Repeat("long detail ", 250)}

// runAuditOps interprets ops as a stream of audit events built to make
// and break runs, feeds them through a block the way Audit does — sealed
// when full and on a seal op — and checks that every sealed block decodes
// to exactly the events that went in. It returns the events in order. An
// op is an opcode byte and its argument bytes (missing ones read as
// zero).
func runAuditOps(ops []byte) ([]Event, error) {
	arg := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	// The next event: kind and strings in cur, numeric fields (time,
	// tuple id, deadline, actual) in v, each advancing by its step.
	cur := Event{Kind: EvFired, Table: "person", Attr: "location"}
	const now = 1_700_000_000_000_000_000
	v := [4]int64{now, 1, now, now}
	step := [4]int64{0, 1, 0, 0}
	var b block
	var all, pending []Event
	seal := func() error {
		if b.n == 0 {
			return nil
		}
		got, err := decodeAuditBlock(b.appendBody(nil))
		b.reset()
		if err != nil {
			return err
		}
		if len(got) != len(pending) {
			return fmt.Errorf("block decodes to %d events, want %d", len(got), len(pending))
		}
		for i := range got {
			if got[i] != pending[i] {
				return fmt.Errorf("event %d of the block decodes as %+v, want %+v", i, got[i], pending[i])
			}
		}
		pending = pending[:0]
		return nil
	}
	for k := 0; len(ops) > 0; k++ {
		op := arg()
		var err error
		switch op % 8 {
		case 0, 1, 2: // a run of 1 to 256 events, each field advancing by its step
			for n := arg() + 1; n > 0 && err == nil; n-- {
				ev := cur
				ev.Seq, ev.UnixNano, ev.Tuple, ev.Deadline, ev.Actual = uint64(len(all))+1, v[0], uint64(v[1]), v[2], v[3]
				b.add(&ev)
				all, pending = append(all, ev), append(pending, ev)
				for i := range step {
					v[i] += step[i]
				}
				if b.full() {
					err = seal()
				}
			}
		case 3: // a string changes
			s := runStrings[arg()%len(runStrings)]
			switch arg() % 3 {
			case 0:
				cur.Table = s
			case 1:
				cur.Attr = s
			case 2:
				cur.Detail = s
			}
		case 4: // the kind changes
			cur.Kind = Kind(arg())
		case 5: // a step changes: none, small either way, large either way
			i, d := arg(), int64(arg()-128)
			switch arg() % 3 {
			case 0:
				d = 0
			case 2:
				d <<= 40
			}
			step[i%4] = d
		case 6: // a field jumps
			i, d := arg(), int64(arg()-128)
			p := &v[i%4]
			switch arg() % 8 {
			case 0: // unset
				*p = 0
			case 1: // near the time
				*p = v[0] + d
			case 2: // a small step off
				*p += d
			case 3: // at and past 1<<63, as a tuple id
				*p = math.MinInt64 + d
			case 4:
				*p = math.MaxInt64 - d
			case 5: // v−t at and next to math.MinInt64, the largest zig-zag code
				*p = v[0] + math.MinInt64 + d%2
			case 6: // near 0, where relCode's shift starts
				*p = d
			case 7: // anywhere
				var w [8]byte
				for j := range w {
					w[j] = byte(arg())
				}
				*p = int64(binary.LittleEndian.Uint64(w[:]))
			}
		case 7: // a Sync
			err = seal()
		}
		if err != nil {
			return nil, fmt.Errorf("op %d (%d): %w", k, op%8, err)
		}
	}
	if err := seal(); err != nil {
		return nil, err
	}
	return all, nil
}

// TestAuditRunsModel drives the block encoder with a random op stream
// per seed and checks encode∘decode is the identity block by block; the
// same events appended to a trail on disk must verify to the same count
// and reopen at the same sequence number. A failure names the seed, and
// -run 'TestAuditRunsModel/seed=N' replays it.
func TestAuditRunsModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 600)
			rng.Read(ops)
			evs, err := runAuditOps(ops)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			a, err := OpenAudit(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(evs); i += 100 {
				a.Append(evs[i:min(i+100, len(evs))]...)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if n, err := Verify(dir); err != nil || n != len(evs) {
				t.Fatalf("verify: %d events (want %d), err %v", n, len(evs), err)
			}
			a, err = OpenAudit(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			if a.Seq() != uint64(len(evs)) {
				t.Fatalf("reopened at seq %d, want %d", a.Seq(), len(evs))
			}
		})
	}
}

// FuzzDecodeAuditBlock hammers the block decoder — the one piece of the
// trail reader that parses bytes a CRC and a hash have vouched for but
// an attacker with the directory may have produced: it must never
// panic, and whatever it accepts must survive a re-encode. The same
// bytes then drive the run model's op stream.
func FuzzDecodeAuditBlock(f *testing.F) {
	batch := make([]Event, 256)
	for i := range batch {
		batch[i] = Event{Kind: EvFired, UnixNano: 77, Table: "person", Tuple: uint64(300 + i), Attr: "location",
			Deadline: 70, Actual: 77, Detail: "state 0→1"}
	}
	var insert []Event // a 100-row insert commit, queue-major
	for _, q := range []struct{ attr, detail string }{{"location", ""}, {"salary", ""}, {"", "tuple-delete"}} {
		for i := 0; i < 100; i++ {
			insert = append(insert, Event{Kind: EvScheduled, UnixNano: 1000, Table: "person", Tuple: uint64(i + 1),
				Attr: q.attr, Detail: q.detail, Deadline: 901000})
		}
	}
	seeds := [][]Event{batch, insert, {
		{Kind: EvScheduled, UnixNano: 1000, Table: "person", Tuple: 1, Attr: "location", Deadline: 901000},
		{Kind: EvKeyShredded, UnixNano: 78, Table: "person", Attr: "salary", Detail: "1 epoch keys"},
		{Kind: EvCheckpoint, UnixNano: 5}}}
	for _, evs := range seeds {
		var b block
		for i := range evs {
			evs[i].Seq = 10 + uint64(i)
			b.add(&evs[i])
		}
		enc := b.appendBody(nil)
		f.Add(enc)
		f.Add(enc[:len(enc)-3]) // truncated tail
		mutated := append([]byte(nil), enc...)
		mutated[len(mutated)/2] ^= 0x41
		f.Add(mutated)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x41})
	// Counts the decoder must refuse before it allocates or indexes: a
	// run of two in a block of one, a run of none, a block of 2⁶² events.
	var b block
	for i := uint64(1); i <= 2; i++ {
		b.add(&Event{Seq: 10, Kind: EvFired, UnixNano: 5, Tuple: i})
	}
	two := b.appendBody(nil) // seq, base time, event count: one byte each
	for _, patch := range []func(enc []byte) []byte{
		func(enc []byte) []byte { enc[2] = 1; return enc },
		func(enc []byte) []byte { enc[8] = 0; return enc[:len(enc)-4] }, // kind, 3 strings, count
		func(enc []byte) []byte { return append(binary.AppendUvarint([]byte{10, 5}, 1<<62), enc[3:]...) },
	} {
		f.Add(patch(append([]byte(nil), two...)))
	}
	// Op streams: a run of 256, a negative tuple step, a jump past 1<<63.
	f.Add([]byte{0, 255, 5, 1, 0, 1, 0, 9, 3, 5, 2, 0, 20, 6, 1, 0, 3, 0, 30})
	f.Add([]byte{6, 2, 128, 0, 1, 3, 7, 6, 3, 0, 5, 2, 4, 9, 0, 40, 7, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		if evs, err := decodeAuditBlock(data); err == nil {
			var b block
			for i := range evs {
				b.add(&evs[i])
			}
			again, err := decodeAuditBlock(b.appendBody(nil))
			if err != nil {
				t.Fatalf("decoded block does not re-encode: %v", err)
			}
			if !reflect.DeepEqual(again, evs) {
				t.Fatalf("re-encode changed the events:\n got %+v\nwant %+v", again, evs)
			}
		}
		if _, err := runAuditOps(data); err != nil {
			t.Fatal(err)
		}
	})
}
