package storage

import (
	"encoding/binary"
	"fmt"
	"time"

	"instantdb/internal/value"
)

// TupleID is the stable logical identifier of a tuple within its table.
// It survives degradation moves between state segments; secondary indexes
// reference tuples by TupleID, never by physical location.
type TupleID uint64

// RID is a physical record location.
type RID struct {
	Page PageID
	Slot uint16
}

// StateErased marks a degradable attribute that passed its horizon: the
// stored value is NULL and the original is physically gone.
const StateErased = 0xFF

// StateAdvances reports whether moving a degradable attribute from cur
// to next goes strictly down the generalization ladder (states increase
// toward coarser accuracy; StateErased is terminal). Transitions that do
// not advance — re-applying the transition the attribute already made,
// or an older transition arriving after a newer one (replication
// reconciliation) — must be no-ops: accuracy is never resurrected.
func StateAdvances(cur, next uint8) bool {
	if cur == StateErased {
		return false
	}
	if next == StateErased {
		return true
	}
	return next > cur
}

// Tuple is a materialized record: the stored (not rendered) forms of all
// columns plus degradation metadata.
type Tuple struct {
	ID TupleID
	// InsertedAt anchors every LCP deadline of this tuple.
	InsertedAt time.Time
	// States holds the LCP state index of each degradable column (in
	// catalog DegradableColumns order); StateErased past the horizon.
	States []uint8
	// Row holds the stored form of every column in declaration order.
	// Degradable columns hold their domain's stored representation at
	// the current state's level.
	Row []value.Value
}

// Record layout: tupleID u64 | insertNano i64 | nDeg u8 | states nDeg |
// EncodeRow(row). Self-delimiting, so in-place shrink with zero-fill is
// safe. recordHeader is the fixed prefix before the state vector.
const recordHeader = 17

func encodeRecord(dst []byte, id TupleID, at time.Time, states []uint8, row []value.Value) []byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(id))
	binary.LittleEndian.PutUint64(b[8:], uint64(at.UTC().UnixNano()))
	dst = append(dst, b[:]...)
	dst = append(dst, byte(len(states)))
	dst = append(dst, states...)
	return value.EncodeRow(dst, row)
}

func decodeRecord(src []byte) (Tuple, error) {
	states, err := recordStates(src)
	if err != nil {
		return Tuple{}, err
	}
	t := Tuple{
		ID:         recordID(src),
		InsertedAt: time.Unix(0, int64(binary.LittleEndian.Uint64(src[8:]))).UTC(),
		States:     append([]uint8(nil), states...),
	}
	row, _, err := value.DecodeRow(src[recordHeader+len(states):])
	if err != nil {
		return Tuple{}, fmt.Errorf("storage: record row: %w", err)
	}
	t.Row = row
	return t, nil
}

// recordID returns the tuple id of a record at least recordHeader long.
func recordID(rec []byte) TupleID { return TupleID(binary.LittleEndian.Uint64(rec)) }

// recordStates returns the state vector of a record, aliasing it.
func recordStates(rec []byte) ([]uint8, error) {
	if len(rec) < recordHeader {
		return nil, fmt.Errorf("storage: record too short (%d bytes)", len(rec))
	}
	n := int(rec[16])
	if len(rec) < recordHeader+n {
		return nil, fmt.Errorf("storage: record truncated in state vector")
	}
	return rec[recordHeader : recordHeader+n], nil
}

// recordColumn locates column col of a record without decoding any
// column: its encoded value is rec[start:end].
func recordColumn(rec []byte, col int) (start, end int, err error) {
	states, err := recordStates(rec)
	if err != nil {
		return 0, 0, err
	}
	off := recordHeader + len(states)
	n, sz := binary.Uvarint(rec[off:])
	if sz <= 0 || col < 0 || uint64(col) >= n {
		return 0, 0, fmt.Errorf("storage: record has no column %d", col)
	}
	off += sz
	for i := 0; ; i++ {
		l, err := value.Skip(rec[off:])
		if err != nil {
			return 0, 0, fmt.Errorf("storage: record row: field %d: %w", i, err)
		}
		if i == col {
			return off, off + l, nil
		}
		off += l
	}
}

// patchRecord appends to dst a copy of rec whose degradable position
// degPos is in state st and whose column col holds stored form v — the
// bytes encodeRecord gives the decoded tuple so modified — splicing the
// new value between the untouched bytes around the old one.
func patchRecord(dst, rec []byte, degPos, col int, st uint8, v value.Value) ([]byte, error) {
	start, end, err := recordColumn(rec, col)
	if err != nil {
		return nil, err
	}
	if degPos < 0 || degPos >= int(rec[16]) {
		return nil, fmt.Errorf("storage: record has no degradable position %d", degPos)
	}
	base := len(dst)
	dst = append(dst, rec[:start]...)
	dst[base+recordHeader+degPos] = st
	dst = value.Encode(dst, v)
	return append(dst, rec[end:]...), nil
}

// stateKey packs a state vector into a comparable key. At most
// catalog.MaxDegradableColumns (8) states fit.
func stateKey(states []uint8) uint64 {
	var k uint64
	for i, s := range states {
		k |= uint64(s) << (8 * i)
	}
	return k
}
