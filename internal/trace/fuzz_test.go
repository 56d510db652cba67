package trace

import (
	"reflect"
	"testing"
)

// FuzzDecodeAuditBlock hammers the block decoder — the one piece of the
// trail reader that parses bytes a CRC and a hash have vouched for but
// an attacker with the directory may have produced: it must never
// panic, and whatever it accepts must survive a re-encode.
func FuzzDecodeAuditBlock(f *testing.F) {
	seeds := [][]Event{
		{{Kind: EvScheduled, UnixNano: 1000, Table: "person", Tuple: 1, Attr: "location", Deadline: 901000},
			{Kind: EvScheduled, UnixNano: 1000, Table: "person", Tuple: 1, Detail: "tuple-delete", Deadline: 5000000}},
		{{Kind: EvFired, UnixNano: 77, Table: "person", Tuple: 300, Attr: "salary", Deadline: 70, Actual: 77, Detail: "erased"},
			{Kind: EvKeyShredded, UnixNano: 78, Table: "person", Attr: "salary", Detail: "1 epoch keys"}},
		{{Kind: EvCheckpoint, UnixNano: 5}},
	}
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

	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := decodeAuditBlock(data)
		if err != nil {
			return
		}
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
	})
}
