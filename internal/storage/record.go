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

// frame is a page's frame of reference: the tuple id and insert time
// that its records store theirs as deltas from. The first record placed
// on a fresh page sets it (placeLocked), so the records that share a
// page — inserted together, or carried together by one degradation wave
// — store deltas of a byte or two. A record built before its page is
// known — an insert, in its own frame; a degradation patch or an
// update, in its source page's frame — is rebased on placement
// (pageInsert); a record overwritten in place stays in its page's frame.
type frame struct {
	id    TupleID
	nanos int64
}

// Record layout: zigzag(id − frame id) varint | zigzag(insertNano −
// frame nanos) varint | nDeg u8 | states nDeg | EncodeRow(row). The
// deltas wrap modulo 2⁶⁴, so any record can be rebased to any frame.
// Self-delimiting, so in-place shrink with zero-fill is safe.
// maxRecordPrefix is the longest the two deltas can take.
const maxRecordPrefix = 2 * binary.MaxVarintLen64

func encodeRecord(dst []byte, f frame, id TupleID, at time.Time, states []uint8, row []value.Value) []byte {
	dst = appendDeltas(dst, f, id, at.UTC().UnixNano())
	dst = append(dst, byte(len(states)))
	dst = append(dst, states...)
	return value.EncodeRow(dst, row)
}

// appendDeltas appends the record prefix of tuple id inserted at nanos
// in frame f.
func appendDeltas(dst []byte, f frame, id TupleID, nanos int64) []byte {
	dst = binary.AppendVarint(dst, int64(id-f.id))
	return binary.AppendVarint(dst, nanos-f.nanos)
}

// recordOrigin reads the prefix of a record encoded in frame f: the
// tuple's id and insert time, and the bytes the prefix takes. Only the
// minimal varints appendDeltas writes are accepted, so a rebase round
// trip gives back the bytes it started from.
func recordOrigin(rec []byte, f frame) (id TupleID, nanos int64, n int, err error) {
	dID, a := binary.Varint(rec)
	if a <= 0 || (a > 1 && rec[a-1] == 0) {
		return 0, 0, 0, fmt.Errorf("storage: record id delta malformed")
	}
	dNanos, b := binary.Varint(rec[a:])
	if b <= 0 || (b > 1 && rec[a+b-1] == 0) {
		return 0, 0, 0, fmt.Errorf("storage: record time delta malformed")
	}
	return f.id + TupleID(dID), f.nanos + dNanos, a + b, nil
}

// rebaseRecord re-encodes rec, a record in frame from, in frame to. Only
// the delta prefix changes: head is dst with the prefix in frame to
// appended, body aliases the rest of rec, and the rebased record is head
// followed by body.
func rebaseRecord(dst, rec []byte, from, to frame) (head, body []byte, err error) {
	id, nanos, n, err := recordOrigin(rec, from)
	if err != nil {
		return nil, nil, err
	}
	return appendDeltas(dst, to, id, nanos), rec[n:], nil
}

// checkFits fails with ErrRecordTooLarge when rec fits no page, not even
// a fresh one, whose frame it sets and where its delta prefix takes two
// bytes. The prefix takes at least two bytes in any frame, so a record
// of at most MaxRecordSize bytes fits without a look at it.
func checkFits(rec []byte) error {
	if len(rec) <= MaxRecordSize {
		return nil
	}
	_, _, n, err := recordOrigin(rec, frame{})
	if err != nil {
		return err
	}
	if size := len(rec) - n + 2; size > MaxRecordSize {
		return fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, size)
	}
	return nil
}

func decodeRecord(src []byte, f frame) (Tuple, error) {
	id, nanos, _, err := recordOrigin(src, f)
	if err != nil {
		return Tuple{}, err
	}
	off, n, err := recordStatesAt(src)
	if err != nil {
		return Tuple{}, err
	}
	t := Tuple{
		ID:         id,
		InsertedAt: time.Unix(0, nanos).UTC(),
		States:     append([]uint8(nil), src[off:off+n]...),
	}
	row, _, err := value.DecodeRow(src[off+n:])
	if err != nil {
		return Tuple{}, fmt.Errorf("storage: record row: %w", err)
	}
	t.Row = row
	return t, nil
}

// recordID returns the tuple id of a record encoded in frame f, one
// recordStatesAt accepts: only the first delta is decoded.
func recordID(rec []byte, f frame) TupleID {
	dID, _ := binary.Varint(rec)
	return f.id + TupleID(dID)
}

// recordStatesAt locates the state vector of a record: it is
// rec[off:off+n].
func recordStatesAt(rec []byte) (off, n int, err error) {
	_, _, off, err = recordOrigin(rec, frame{})
	if err != nil {
		return 0, 0, err
	}
	if len(rec) <= off {
		return 0, 0, fmt.Errorf("storage: record too short (%d bytes)", len(rec))
	}
	n = int(rec[off])
	off++
	if len(rec) < off+n {
		return 0, 0, fmt.Errorf("storage: record truncated in state vector")
	}
	return off, n, nil
}

// recordColumn locates column col of a record whose row starts at
// offset row, past the state vector, without decoding any column: its
// encoded value is rec[start:end].
func recordColumn(rec []byte, row, col int) (start, end int, err error) {
	off := row
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
// bytes encodeRecord gives the decoded tuple so modified, in the same
// frame — splicing the new value between the untouched bytes around the
// old one.
func patchRecord(dst, rec []byte, degPos, col int, st uint8, v value.Value) ([]byte, error) {
	off, nDeg, err := recordStatesAt(rec)
	if err != nil {
		return nil, err
	}
	if degPos < 0 || degPos >= nDeg {
		return nil, fmt.Errorf("storage: record has no degradable position %d", degPos)
	}
	start, end, err := recordColumn(rec, off+nDeg, col)
	if err != nil {
		return nil, err
	}
	base := len(dst)
	dst = append(dst, rec[:start]...)
	dst[base+off+degPos] = st
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
