// Package wal implements InstantDB's redo-only write-ahead log and the
// two degradation-aware log-scrubbing strategies the engine ablates
// (experiment B-LOG):
//
//   - Vacuum: whole log segments are periodically rewritten, marking
//     degradable payloads that have outlived their accuracy state as
//     lost; the original segment file is zero-overwritten before removal.
//   - Key-shred: degradable payloads are AES-CTR-encrypted under epoch
//     keys scoped to (table, column, LCP state, insert-time bucket) and
//     kept in a separate key store; once every tuple of a bucket has left
//     a state, the degradation engine's tick destroys that epoch key
//     (zero-overwrite + sync), making every log copy of the expired
//     accuracy state permanently undecipherable without touching the log
//     files themselves.
//
// The log is logical-redo only: the engine applies a transaction's
// operations to the (no-steal) storage layer only after the commit batch
// is durable, so recovery replays complete batches in order with
// idempotent per-record application and never needs undo.
//
// A commit batch is one CRC-framed payload holding a sequence of runs:
// consecutive records that share a type and table (and, where payloads
// are sealed, a state and key bucket) are written under one header with
// their fields laid out column by column — see EncodeRecords.
package wal

import (
	"bytes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"instantdb/internal/catalog"
	"instantdb/internal/storage"
	"instantdb/internal/value"
)

// RecType enumerates logical redo record types.
type RecType uint8

// Record types.
const (
	RecInsert RecType = iota + 1
	RecDelete
	RecUpdateStable
	RecDegrade
	// RecReplMark records, on a replica, the leader log position one
	// past the replicated batch it closes. It rides in the same commit
	// batch as the replicated records, so the follower's resume position
	// is durable exactly when the batch is — crash recovery replays the
	// mark and resumes tailing without re-applying or skipping batches.
	// Leader logs never contain marks, and a replica relaying to a
	// downstream replica strips them from the stream (they address the
	// wrong leader's log).
	RecReplMark
)

// Record is one logical redo operation. Degradable payloads (DegVals for
// inserts, NewStored for degradations) are sealed through the log's
// Codec; a Lost flag marks a payload that is gone — its epoch key was
// shredded, or it was written as lost in the first place — which is
// exactly the guarantee the paper asks for.
type Record struct {
	Type  RecType
	Table uint32
	Tuple storage.TupleID

	// InsertNano (insert, degrade) anchors epoch-key buckets and, on
	// replay of inserts, the tuple's LCP deadlines.
	InsertNano int64
	// States (insert) is the degradable state vector at insert
	// (normally all zeros: the most accurate state).
	States []uint8
	// StableRow (insert) is the full row with degradable columns NULLed.
	StableRow []value.Value
	// DegVals (insert) holds the stored forms of the degradable columns,
	// in DegradableColumns order.
	DegVals []value.Value
	// DegLost (insert) marks degradable positions whose payload is gone:
	// decoding sets it where a sealed payload could not be opened, and
	// encoding writes such a position as lost (no material) — it also
	// sets the flag itself where the codec answers ErrSealLost.
	DegLost []bool

	// Col and Val (update-stable).
	Col uint16
	Val value.Value

	// DegPos, NewState, NewStored (degrade). NewLost is DegLost's
	// counterpart for the one payload of a degradation.
	DegPos    uint8
	NewState  uint8
	NewStored value.Value
	NewLost   bool

	// ReplSeg and ReplOff (repl-mark) are the leader log position one
	// past the replicated batch this mark closes.
	ReplSeg int
	ReplOff int64
}

// Run layout. Every run opens with
//
//	type u8 | table uvarint | count uvarint | tuple ids: seq
//
// and continues by type:
//
//	insert:  insert times: seq | key bucket (zigzag) | states |
//	         payload column count uvarint | stable width uvarint |
//	         one stable column per stable position |
//	         one payload column per degradable column
//	degrade: insert times: seq | key bucket | column position u8 |
//	         new state u8 | one payload column
//	update:  per record: column uvarint | value
//	mark:    per record: segment uvarint | offset uvarint
//	delete:  nothing more
//
// A seq is an integer column of one value per record (appendSeq): the
// value alone in a run of one; otherwise a mode byte, the first value,
// and the common step of an arithmetic progression or, when the steps
// differ, every delta (zigzag varints, wrapping). Tuple ids and lengths
// write their first value as a uvarint, insert times and INTs as a
// zigzag varint, TIMEs as value.Encode does, in 8 bytes.
//
// states is len<<1|nonzero as a uvarint, followed by the vector only
// when some state is nonzero. A stable column is one kind byte when
// every record holds a value of that kind — NULL: nothing more; INT and
// TIME: a seq; TEXT: a seq of lengths, then the bytes; FLOAT: 8 bytes
// each; BOOL: a byte each — or colMixed followed by value.Encode of
// every value. A payload column is a status byte — plain, encrypted or
// lost for the whole column, or statusMixed followed by two status bits
// per record — then a seq of the lengths of the payloads that are not
// lost, then their bytes.
const (
	statusPlain = iota
	statusEnc
	statusLost
	statusMixed
)

// Seq modes: the column after the first value is one step, or deltas
// that are not all equal, so every column has exactly one encoding.
const (
	seqStep = iota
	seqDeltas
)

// seqForm is how a seq writes its first value.
type seqForm uint8

const (
	seqUvarint seqForm = iota // tuple ids, lengths
	seqVarint                 // insert times, INTs
	seqFixed                  // TIMEs: 8 bytes big-endian
)

// colMixed opens a stable column whose values are not all of one kind.
const colMixed = 0xFF

// A run holds at most maxRun records, and an insert run at most
// maxRunCells stable values; EncodeRecords starts a new run at either
// bound. A progression-coded id column and NULL stable columns cost no
// bytes per record, so these bounds, not the input's length, are what
// keep a claimed count from sizing a large allocation. A row that fits
// a page has far fewer than maxRunCells columns.
const (
	maxRun      = 1 << 10
	maxRunCells = 1 << 14
)

// maxSealedLen bounds one encrypted payload: the keystream counter is
// the last two bytes of the 16-byte nonce block.
const maxSealedLen = 16 << 16

// scratch is the working memory of one encode or decode, reused across
// its runs. It XORs AES-CTR keystreams into payloads in place: the
// counter block is tuple id | table | column | state | block counter, so
// no two payloads sealed under one key ever share a keystream, and
// sealing the same payload again — a retried commit, a replica
// re-sealing a shipped batch, the same transition in a differently
// composed run — yields the same ciphertext. The blocks live here
// because slices handed to a cipher.Block escape.
type scratch struct {
	ctr, pad [16]byte
	// plain receives a payload being opened: the input stays ciphertext.
	plain []byte
	// seq holds the integer column being encoded or decoded.
	seq []uint64
}

func (sc *scratch) xor(block cipher.Block, buf []byte, tuple storage.TupleID, table uint32, col, state uint8) {
	binary.LittleEndian.PutUint64(sc.ctr[0:], uint64(tuple))
	binary.LittleEndian.PutUint32(sc.ctr[8:], table)
	sc.ctr[12], sc.ctr[13] = col, state
	for n := 0; len(buf) > 0; n++ {
		binary.BigEndian.PutUint16(sc.ctr[14:], uint16(n))
		block.Encrypt(sc.pad[:], sc.ctr[:])
		buf = buf[subtle.XORBytes(buf, buf, sc.pad[:]):]
	}
}

// ints returns the seq scratch, empty, with room for n values.
func (sc *scratch) ints(n int) []uint64 {
	if cap(sc.seq) < n {
		sc.seq = make([]uint64, 0, n)
	}
	return sc.seq[:0]
}

// column fills the seq scratch with f of every record of run.
func (sc *scratch) column(run []*Record, f func(*Record) uint64) []uint64 {
	vs := sc.ints(len(run))
	for _, r := range run {
		vs = append(vs, f(r))
	}
	return vs
}

// appendSeq appends the integer column vs (one value per record of a
// run; signed values pass as their two's complement, and steps wrap).
func appendSeq(dst []byte, vs []uint64, form seqForm) []byte {
	mode, step := byte(seqStep), uint64(0)
	if len(vs) > 1 {
		step = vs[1] - vs[0]
		for i := 2; i < len(vs); i++ {
			if vs[i]-vs[i-1] != step {
				mode = seqDeltas
				break
			}
		}
		dst = append(dst, mode)
	}
	switch form {
	case seqUvarint:
		dst = binary.AppendUvarint(dst, vs[0])
	case seqVarint:
		dst = binary.AppendVarint(dst, int64(vs[0]))
	case seqFixed:
		dst = binary.BigEndian.AppendUint64(dst, vs[0])
	}
	if len(vs) < 2 {
		return dst
	}
	if mode == seqStep {
		return binary.AppendVarint(dst, int64(step))
	}
	for i := 1; i < len(vs); i++ {
		dst = binary.AppendVarint(dst, int64(vs[i]-vs[i-1]))
	}
	return dst
}

// payload returns the degradable payload of r in column col and whether
// it is flagged lost.
func payload(r *Record, col int) (value.Value, bool) {
	if r.Type == RecDegrade {
		return r.NewStored, r.NewLost
	}
	return r.DegVals[col], col < len(r.DegLost) && r.DegLost[col]
}

// markLost flags the payload of r in column col as lost.
func markLost(r *Record, col int) {
	if r.Type == RecDegrade {
		r.NewLost = true
		return
	}
	if len(r.DegLost) < len(r.DegVals) {
		r.DegLost = append(r.DegLost, make([]bool, len(r.DegVals)-len(r.DegLost))...)
	}
	r.DegLost[col] = true
}

// stateOf returns the state of degradable column col in an insert's
// state vector (missing entries are state 0).
func stateOf(states []uint8, col int) uint8 {
	if col < len(states) {
		return states[col]
	}
	return 0
}

// sealed reports whether records of this type carry sealed payloads and
// therefore belong to one key bucket per run.
func (t RecType) sealed() bool { return t == RecInsert || t == RecDegrade }

// sameRun reports whether r may join the run head opens.
func sameRun(head, r *Record, bucket int64, codec Codec) bool {
	if r.Type != head.Type || r.Table != head.Table {
		return false
	}
	switch head.Type {
	case RecInsert:
		return len(r.DegVals) == len(head.DegVals) && len(r.StableRow) == len(head.StableRow) &&
			bytes.Equal(r.States, head.States) && codec.Bucket(r.InsertNano) == bucket
	case RecDegrade:
		return r.DegPos == head.DegPos && r.NewState == head.NewState &&
			codec.Bucket(r.InsertNano) == bucket
	}
	return true
}

// runCap returns the most records the run head opens may hold.
func runCap(head *Record) int {
	if w := len(head.StableRow); head.Type == RecInsert && w > 0 {
		return max(1, min(maxRun, maxRunCells/w))
	}
	return maxRun
}

// EncodeRecords appends the run encoding of recs to dst: the payload of
// one commit batch, and the form replication batches cross the wire in
// (with PlainCodec: the leader unseals payloads while tailing, and the
// follower re-seals them under its own epoch keys when it logs the
// batch locally). Consecutive records of one type and table — for
// inserts also one state vector and row width, for degradations one
// (column, new state), for both one key bucket — share a run, up to
// maxRun records, so callers should hand over whole batches rather than
// single records. Payloads flagged lost are written as lost; where the
// codec answers ErrSealLost the flag is set on the record as well.
func EncodeRecords(dst []byte, recs []*Record, codec Codec) ([]byte, error) {
	dst = slices.Grow(dst, sizeHint(recs))
	var sc scratch
	for len(recs) > 0 {
		head := recs[0]
		var bucket int64
		if head.Type.sealed() {
			bucket = codec.Bucket(head.InsertNano)
		}
		n, limit := 1, min(len(recs), runCap(head))
		for n < limit && sameRun(head, recs[n], bucket, codec) {
			n++
		}
		var err error
		if dst, err = encodeRun(dst, recs[:n], bucket, codec, &sc); err != nil {
			return nil, err
		}
		recs = recs[n:]
	}
	return dst, nil
}

// sizeHint estimates the encoded size of recs so one allocation holds
// the batch.
func sizeHint(recs []*Record) int {
	n := 0
	for _, r := range recs {
		n += 4
		switch r.Type {
		case RecInsert:
			n += value.RowEncodedSize(r.StableRow) + 2
			for _, v := range r.DegVals {
				n += value.EncodedSize(v) + 1
			}
		case RecUpdateStable:
			n += value.EncodedSize(r.Val)
		case RecDegrade:
			n += value.EncodedSize(r.NewStored) + 3
		case RecReplMark:
			n += 8
		}
	}
	return n + 48
}

func encodeRun(dst []byte, run []*Record, bucket int64, codec Codec, sc *scratch) ([]byte, error) {
	head := run[0]
	dst = append(dst, byte(head.Type))
	dst = binary.AppendUvarint(dst, uint64(head.Table))
	dst = binary.AppendUvarint(dst, uint64(len(run)))
	dst = appendSeq(dst, sc.column(run, func(r *Record) uint64 { return uint64(r.Tuple) }), seqUvarint)
	if head.Type.sealed() {
		dst = appendSeq(dst, sc.column(run, func(r *Record) uint64 { return uint64(r.InsertNano) }), seqVarint)
		dst = binary.AppendVarint(dst, bucket)
	}
	var err error
	switch head.Type {
	case RecInsert:
		if max(len(head.DegVals), len(head.States)) > catalog.MaxDegradableColumns {
			return nil, fmt.Errorf("wal: insert carries %d degradable payloads and %d states (max %d)",
				len(head.DegVals), len(head.States), catalog.MaxDegradableColumns)
		}
		if len(head.StableRow) > maxRunCells {
			return nil, fmt.Errorf("wal: insert row of %d columns (max %d)", len(head.StableRow), maxRunCells)
		}
		nonzero := slices.ContainsFunc(head.States, func(s uint8) bool { return s != 0 })
		if nonzero {
			dst = binary.AppendUvarint(dst, uint64(len(head.States))<<1|1)
			dst = append(dst, head.States...)
		} else {
			dst = binary.AppendUvarint(dst, uint64(len(head.States))<<1)
		}
		dst = binary.AppendUvarint(dst, uint64(len(head.DegVals)))
		dst = binary.AppendUvarint(dst, uint64(len(head.StableRow)))
		for j := range head.StableRow {
			dst = appendStable(dst, run, j, sc)
		}
		for col := range head.DegVals {
			if dst, err = sealColumn(dst, run, col, stateOf(head.States, col), bucket, codec, sc); err != nil {
				return nil, err
			}
		}
	case RecDelete:
	case RecUpdateStable:
		for _, r := range run {
			dst = binary.AppendUvarint(dst, uint64(r.Col))
			dst = value.Encode(dst, r.Val)
		}
	case RecDegrade:
		dst = append(dst, head.DegPos, head.NewState)
		if dst, err = sealColumn(dst, run, int(head.DegPos), head.NewState, bucket, codec, sc); err != nil {
			return nil, err
		}
	case RecReplMark:
		for _, r := range run {
			dst = binary.AppendUvarint(dst, uint64(r.ReplSeg))
			dst = binary.AppendUvarint(dst, uint64(r.ReplOff))
		}
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", head.Type)
	}
	return dst, nil
}

// appendStable appends stable column j of an insert run: one kind byte
// and the column in that kind's form, or colMixed and every value.
func appendStable(dst []byte, run []*Record, j int, sc *scratch) []byte {
	kind := run[0].StableRow[j].Kind()
	for _, r := range run[1:] {
		if r.StableRow[j].Kind() != kind {
			dst = append(dst, colMixed)
			for _, r := range run {
				dst = value.Encode(dst, r.StableRow[j])
			}
			return dst
		}
	}
	dst = append(dst, byte(kind))
	switch kind {
	case value.KindInt:
		dst = appendSeq(dst, sc.column(run, func(r *Record) uint64 { return uint64(r.StableRow[j].Int()) }), seqVarint)
	case value.KindTime:
		dst = appendSeq(dst, sc.column(run, func(r *Record) uint64 { return uint64(r.StableRow[j].Time().UnixNano()) }), seqFixed)
	case value.KindText:
		dst = appendSeq(dst, sc.column(run, func(r *Record) uint64 { return uint64(len(r.StableRow[j].Text())) }), seqUvarint)
		for _, r := range run {
			dst = append(dst, r.StableRow[j].Text()...)
		}
	case value.KindFloat:
		for _, r := range run {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.StableRow[j].Float()))
		}
	case value.KindBool:
		for _, r := range run {
			b := byte(0)
			if r.StableRow[j].Bool() {
				b = 1
			}
			dst = append(dst, b)
		}
	}
	return dst
}

// sealColumn appends one payload column of a run: the degradable values
// of column col, all in state and bucket. The key is resolved once, and
// only when some payload is still there to seal.
func sealColumn(dst []byte, run []*Record, col int, state uint8, bucket int64, codec Codec, sc *scratch) ([]byte, error) {
	lost := 0
	for _, r := range run {
		if _, gone := payload(r, col); gone {
			lost++
		}
	}
	var block cipher.Block
	if lost < len(run) {
		var err error
		block, err = codec.SealKey(run[0].Table, uint8(col), state, bucket)
		if errors.Is(err, ErrSealLost) {
			for _, r := range run {
				markLost(r, col)
			}
			lost = len(run)
		} else if err != nil {
			return nil, err
		}
	}
	live := byte(statusPlain)
	if block != nil {
		live = statusEnc
	}
	switch lost {
	case 0:
		dst = append(dst, live)
	case len(run):
		return append(dst, statusLost), nil
	default:
		dst = append(dst, statusMixed)
		at := len(dst)
		dst = append(dst, make([]byte, (len(run)+3)/4)...)
		for i, r := range run {
			st := live
			if _, gone := payload(r, col); gone {
				st = statusLost
			}
			dst[at+i/4] |= st << (i % 4 * 2)
		}
	}
	lens := sc.ints(len(run))
	for _, r := range run {
		v, gone := payload(r, col)
		if gone {
			continue
		}
		n := value.EncodedSize(v)
		if block != nil && n > maxSealedLen {
			return nil, fmt.Errorf("wal: %d-byte payload of tuple %d exceeds the %d a keystream covers", n, r.Tuple, maxSealedLen)
		}
		lens = append(lens, uint64(n))
	}
	dst = appendSeq(dst, lens, seqUvarint)
	for _, r := range run {
		v, gone := payload(r, col)
		if gone {
			continue
		}
		at := len(dst)
		dst = value.Encode(dst, v)
		if block != nil {
			sc.xor(block, dst[at:], r.Tuple, r.Table, uint8(col), state)
		}
	}
	return dst, nil
}

// reader consumes a run; the first malformed field latches err and
// every later read returns zero values.
type reader struct {
	p   []byte
	err error
}

func (rd *reader) fail(format string, args ...any) {
	if rd.err == nil {
		rd.err = fmt.Errorf("wal: "+format, args...)
	}
	rd.p = nil
}

func (rd *reader) byte() byte {
	if len(rd.p) == 0 {
		rd.fail("run truncated")
		return 0
	}
	b := rd.p[0]
	rd.p = rd.p[1:]
	return b
}

func (rd *reader) uvarint() uint64 {
	v, n := binary.Uvarint(rd.p)
	if n <= 0 {
		rd.fail("bad uvarint")
		return 0
	}
	rd.p = rd.p[n:]
	return v
}

func (rd *reader) varint() int64 {
	v, n := binary.Varint(rd.p)
	if n <= 0 {
		rd.fail("bad varint")
		return 0
	}
	rd.p = rd.p[n:]
	return v
}

func (rd *reader) bytes(n uint64) []byte {
	if n > uint64(len(rd.p)) {
		rd.fail("field of %d bytes in %d remaining", n, len(rd.p))
		return nil
	}
	b := rd.p[:n]
	rd.p = rd.p[n:]
	return b
}

// value reads one self-delimiting encoded value.
func (rd *reader) value() value.Value {
	if rd.err != nil {
		return value.Null()
	}
	v, n, err := value.Decode(rd.p)
	if err != nil {
		rd.fail("%v", err)
		return value.Null()
	}
	rd.p = rd.p[n:]
	return v
}

// seq reads an n-value integer column written by appendSeq into the seq
// scratch (n is at most maxRun). It refuses deltas that are all equal:
// that column is a progression, written as its step.
func (rd *reader) seq(sc *scratch, n int, form seqForm) []uint64 {
	mode := byte(seqStep)
	if n > 1 {
		if mode = rd.byte(); mode > seqDeltas {
			rd.fail("sequence mode %d", mode)
		}
	}
	var first uint64
	switch form {
	case seqUvarint:
		first = rd.uvarint()
	case seqVarint:
		first = uint64(rd.varint())
	case seqFixed:
		if b := rd.bytes(8); b != nil {
			first = binary.BigEndian.Uint64(b)
		}
	}
	vs := append(sc.ints(n), first)
	switch {
	case n < 2:
	case mode == seqStep:
		step := uint64(rd.varint())
		for i := 1; i < n; i++ {
			vs = append(vs, vs[i-1]+step)
		}
	default:
		uniform := true
		for i := 1; i < n; i++ {
			vs = append(vs, vs[i-1]+uint64(rd.varint()))
			uniform = uniform && (i == 1 || vs[i]-vs[i-1] == vs[1]-vs[0])
		}
		if uniform {
			rd.fail("a progression of %d values written as deltas", n)
		}
	}
	if rd.err != nil {
		return nil
	}
	return vs
}

// decodeRun parses the run at the start of p into records of its own
// (one backing array per run) and returns the remaining input. Payloads
// that cannot be opened decode as NULL with their Lost flag set.
func decodeRun(p []byte, codec Codec, sc *scratch) ([]Record, []byte, error) {
	rd := &reader{p: p}
	typ := RecType(rd.byte())
	table := rd.uvarint()
	count := rd.uvarint()
	if rd.err == nil {
		switch {
		case typ < RecInsert || typ > RecReplMark:
			rd.fail("unknown record type %d", typ)
		case table > 1<<32-1:
			rd.fail("table id %d out of range", table)
		// A progression costs no bytes per record, so the input cannot
		// bound the count: maxRun does, before anything is sized by it.
		case count == 0 || count > maxRun:
			rd.fail("run of %d records (max %d)", count, maxRun)
		}
	}
	if rd.err != nil {
		return nil, nil, rd.err
	}
	recs := make([]Record, count)
	ids := rd.seq(sc, len(recs), seqUvarint)
	for i := range ids {
		recs[i] = Record{Type: typ, Table: uint32(table), Tuple: storage.TupleID(ids[i])}
	}
	var bucket int64
	if typ.sealed() {
		for i, nano := range rd.seq(sc, len(recs), seqVarint) {
			recs[i].InsertNano = int64(nano)
		}
		bucket = rd.varint()
	}
	switch typ {
	case RecInsert:
		decodeInserts(rd, recs, bucket, codec, sc)
	case RecUpdateStable:
		for i := range recs {
			col := rd.uvarint()
			if col > 1<<16-1 {
				rd.fail("column %d out of range", col)
			}
			recs[i].Col = uint16(col)
			recs[i].Val = rd.value()
		}
	case RecDegrade:
		pos, state := rd.byte(), rd.byte()
		for i := range recs {
			recs[i].DegPos, recs[i].NewState = pos, state
		}
		openColumn(rd, recs, int(pos), state, bucket, codec, sc)
	case RecReplMark:
		for i := range recs {
			seg, off := rd.uvarint(), rd.uvarint()
			if seg > 1<<31-1 || off > 1<<63-1 {
				rd.fail("replication mark %d:%d out of range", seg, off)
			}
			recs[i].ReplSeg, recs[i].ReplOff = int(seg), int64(off)
		}
	}
	if rd.err != nil {
		return nil, nil, rd.err
	}
	return recs, rd.p, nil
}

// decodeInserts reads the insert-specific part of a run into recs.
func decodeInserts(rd *reader, recs []Record, bucket int64, codec Codec, sc *scratch) {
	sh := rd.uvarint()
	nStates := sh >> 1
	if nStates > catalog.MaxDegradableColumns {
		rd.fail("insert run with a %d-entry state vector (max %d)", nStates, catalog.MaxDegradableColumns)
	}
	var states []uint8 // all zero unless the vector is spelled out
	if sh&1 != 0 {
		states = rd.bytes(nStates)
	}
	cols := rd.uvarint()
	if cols > catalog.MaxDegradableColumns {
		rd.fail("insert run with %d degradable columns (max %d)", cols, catalog.MaxDegradableColumns)
	}
	width := rd.uvarint()
	// Every stable column costs at least its kind byte, and a run holds
	// at most maxRunCells stable values.
	if width > uint64(len(rd.p)) || width*uint64(len(recs)) > maxRunCells {
		rd.fail("insert run of %d rows %d columns wide in %d bytes", len(recs), width, len(rd.p))
	}
	if rd.err != nil {
		return
	}
	// One backing array per field for the whole run; every width was
	// checked against its limit before sizing anything by it.
	n, w, sw := len(recs), int(cols), int(width)
	allStates := make([]uint8, n*int(nStates))
	vals := make([]value.Value, n*w)
	lost := make([]bool, n*w)
	stable := make([]value.Value, n*sw)
	for i := range recs {
		r := &recs[i]
		r.States = allStates[i*int(nStates) : (i+1)*int(nStates) : (i+1)*int(nStates)]
		copy(r.States, states)
		r.DegVals = vals[i*w : (i+1)*w : (i+1)*w]
		r.DegLost = lost[i*w : (i+1)*w : (i+1)*w]
		r.StableRow = stable[i*sw : (i+1)*sw : (i+1)*sw]
	}
	for j := 0; j < sw; j++ {
		decodeStable(rd, recs, j, sc)
	}
	for col := 0; col < w; col++ {
		openColumn(rd, recs, col, stateOf(states, col), bucket, codec, sc)
	}
}

// decodeStable reads stable column j of an insert run into recs. Text is
// copied out of the input, so no decoded value aliases it.
func decodeStable(rd *reader, recs []Record, j int, sc *scratch) {
	n := len(recs)
	kind := rd.byte()
	if rd.err != nil {
		return
	}
	switch kind {
	case colMixed:
		uniform := true
		for i := range recs {
			recs[i].StableRow[j] = rd.value()
			uniform = uniform && recs[i].StableRow[j].Kind() == recs[0].StableRow[j].Kind()
		}
		if uniform && rd.err == nil {
			rd.fail("stable column %d of one kind written value by value", j)
		}
	case byte(value.KindNull):
	case byte(value.KindInt):
		for i, x := range rd.seq(sc, n, seqVarint) {
			recs[i].StableRow[j] = value.Int(int64(x))
		}
	case byte(value.KindTime):
		for i, x := range rd.seq(sc, n, seqFixed) {
			recs[i].StableRow[j] = value.Time(time.Unix(0, int64(x)))
		}
	case byte(value.KindText):
		lens := rd.seq(sc, n, seqUvarint)
		var total uint64
		for _, l := range lens {
			if l > uint64(len(rd.p)) || total+l > uint64(len(rd.p)) {
				rd.fail("text column %d longer than the %d bytes left", j, len(rd.p))
				return
			}
			total += l
		}
		text := rd.bytes(total)
		for i, l := range lens {
			recs[i].StableRow[j] = value.Text(string(text[:l]))
			text = text[l:]
		}
	case byte(value.KindFloat):
		b := rd.bytes(8 * uint64(n))
		for i := 0; i < n && b != nil; i++ {
			recs[i].StableRow[j] = value.Float(math.Float64frombits(binary.BigEndian.Uint64(b[8*i:])))
		}
	case byte(value.KindBool):
		b := rd.bytes(uint64(n))
		for i := 0; i < n && b != nil; i++ {
			if b[i] > 1 {
				rd.fail("BOOL byte 0x%02x", b[i])
				return
			}
			recs[i].StableRow[j] = value.Bool(b[i] == 1)
		}
	default:
		rd.fail("stable column %d of unknown kind 0x%02x", j, kind)
	}
}

// openColumn reads one payload column of a run into recs, resolving the
// key once and only when the column holds ciphertext.
func openColumn(rd *reader, recs []Record, col int, state uint8, bucket int64, codec Codec, sc *scratch) {
	mode := rd.byte()
	var bitmap []byte
	switch {
	case mode == statusMixed:
		bitmap = rd.bytes(uint64(len(recs)+3) / 4)
	case mode > statusMixed:
		rd.fail("payload column status %d", mode)
	}
	if rd.err != nil {
		return
	}
	status := func(i int) byte {
		if bitmap == nil {
			return mode
		}
		return bitmap[i/4] >> (i % 4 * 2) & 3
	}
	live := 0
	for i := range recs {
		switch status(i) {
		case statusMixed:
			rd.fail("payload status 3 in a mixed column")
			return
		case statusLost:
		default:
			live++
		}
	}
	var lens []uint64
	if live > 0 {
		if lens = rd.seq(sc, live, seqUvarint); rd.err != nil {
			return
		}
	}
	var block cipher.Block
	keyed := false
	for i := range recs {
		r := &recs[i]
		st := status(i)
		var raw []byte
		if st != statusLost {
			raw, lens = rd.bytes(lens[0]), lens[1:]
		}
		if rd.err != nil {
			return
		}
		if st == statusEnc {
			if !keyed {
				var err error
				if block, err = codec.OpenKey(r.Table, uint8(col), state, bucket); err != nil {
					rd.err = err
					return
				}
				keyed = true
			}
			if block == nil {
				st = statusLost // key shredded: irrecoverable by design
			} else if len(raw) > maxSealedLen {
				rd.fail("%d-byte sealed payload", len(raw))
				return
			} else {
				sc.plain = append(sc.plain[:0], raw...)
				raw = sc.plain
				sc.xor(block, raw, r.Tuple, r.Table, uint8(col), state)
			}
		}
		v := value.Null()
		if st != statusLost {
			var used int
			var err error
			if v, used, err = value.Decode(raw); err != nil || used != len(raw) {
				rd.fail("degradable payload of tuple %d: %d of %d bytes decoded: %v", r.Tuple, used, len(raw), err)
				return
			}
		}
		if r.Type == RecDegrade {
			r.NewStored, r.NewLost = v, st == statusLost
		} else {
			r.DegVals[col], r.DegLost[col] = v, st == statusLost
		}
	}
}

// DecodeRecords parses a run sequence produced by EncodeRecords,
// consuming the whole input.
func DecodeRecords(p []byte, codec Codec) ([]*Record, error) {
	var recs []*Record
	err := decodeRuns(p, codec, func(r *Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// decodeRuns hands fn every record of the run sequence p, in order.
func decodeRuns(p []byte, codec Codec, fn func(*Record) error) error {
	var sc scratch
	for len(p) > 0 {
		run, rest, err := decodeRun(p, codec, &sc)
		if err != nil {
			return err
		}
		for i := range run {
			if err := fn(&run[i]); err != nil {
				return err
			}
		}
		p = rest
	}
	return nil
}
