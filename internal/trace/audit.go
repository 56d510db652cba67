package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// The degradation audit trail: an append-only, CRC-framed,
// hash-chained event log proving WHICH attribute of WHICH tuple
// degraded WHEN and how far from its deadline. Events are written in
// blocks: they accumulate in one open block and are sealed into a
// single frame
//
//	len u32 | crc u32 | body ‖ chain      chain = SHA-256(prev chain ‖ body)
//
// so the frame, the hash link and the repeated table/attribute strings
// are paid once per block instead of once per event. The trail stays
// tamper evident end to end at block granularity: flipping a byte
// breaks that block's CRC, and rewriting a block with a recomputed CRC
// breaks the chain of every block after it — either way `degradectl
// audit -chain` fails loud. Segments rotate like the WAL
// (audit-XXXXXXXX.log); each starts with a header naming its first
// sequence number and the chain value it continues from, so opening
// reads the newest segment only while Verify checks every header
// against the tail of the segment before it. Unlike the WAL the trail
// is never scrubbed by a checkpoint: it records that degradation
// happened, which is exactly what must survive the data it describes.
//
// Appends never fsync — the trail rides the hot path (three scheduled
// events per degradable insert) and must stay cheap. A block is sealed
// and written when it is full; Sync, Checkpoint and Close seal what is
// open and fsync, so the trail is durable whenever the page store is.
// A crash loses at most the open block and may leave the last frame
// torn; the next open cuts the file back to the last whole block.

// Kind discriminates audit events.
type Kind uint8

// Audit event kinds.
const (
	// EvScheduled records a degradable attribute entering the
	// transition queues at insert (deadline = insert + hold).
	EvScheduled Kind = 1
	// EvFired records an enforced transition; Actual-Deadline is the
	// enforcement lag the paper's timeliness claim rests on.
	EvFired Kind = 2
	// EvRetried records a transition deferred past its deadline (row
	// lock held, predicate not satisfied) and requeued.
	EvRetried Kind = 3
	// EvKeyShredded records epoch-key destruction making expired log
	// and backup ciphertext permanently unreadable.
	EvKeyShredded Kind = 4
	// EvLostServed records a sealed payload surfacing as Lost because
	// its epoch key was already shredded (restore/replay).
	EvLostServed Kind = 5
	// EvExternal records a transition applied from a replicated leader
	// batch rather than fired by the local clock.
	EvExternal Kind = 6
	// EvBackupLostSeal records a backup writer sealing a payload as
	// permanently Lost because its key was already gone.
	EvBackupLostSeal Kind = 7
	// EvCheckpoint marks a database checkpoint (the trail's fsync
	// points; also proves the trail was intact up to here).
	EvCheckpoint Kind = 8
)

// String names an event kind for rendering.
func (k Kind) String() string {
	switch k {
	case EvScheduled:
		return "scheduled"
	case EvFired:
		return "fired"
	case EvRetried:
		return "retried"
	case EvKeyShredded:
		return "key-shredded"
	case EvLostServed:
		return "lost-served"
	case EvExternal:
		return "external-transition"
	case EvBackupLostSeal:
		return "backup-lost-seal"
	case EvCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("kind-%d", uint8(k))
	}
}

// Event is one audit record. Deadline and Actual are UnixNano (0 when
// not applicable); for EvFired, Actual-Deadline is the enforcement
// delta the trail exists to prove. Tuple is the storage tuple id (0
// for events about no single tuple).
type Event struct {
	Seq      uint64
	Kind     Kind
	UnixNano int64
	Table    string
	Tuple    uint64
	Attr     string
	Deadline int64
	Actual   int64
	Detail   string
}

// Delta returns Actual-Deadline as a duration (how far past its
// deadline the event ran; 0 when either side is unset).
func (e *Event) Delta() time.Duration {
	if e.Deadline == 0 || e.Actual == 0 {
		return 0
	}
	return time.Duration(e.Actual - e.Deadline)
}

// String renders one event for degradectl events and /debug output.
func (e *Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s %s", e.Seq, time.Unix(0, e.UnixNano).UTC().Format(time.RFC3339Nano), e.Kind)
	if e.Table != "" {
		fmt.Fprintf(&b, " %s", e.Table)
		if e.Tuple != 0 {
			fmt.Fprintf(&b, "[%d]", e.Tuple)
		}
		if e.Attr != "" {
			fmt.Fprintf(&b, ".%s", e.Attr)
		}
	}
	if e.Deadline != 0 && e.Actual != 0 {
		fmt.Fprintf(&b, " delta=%v", e.Delta())
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " (%s)", e.Detail)
	}
	return b.String()
}

const (
	auditPrefix  = "audit-"
	auditSuffix  = ".log"
	frameHdrSize = 8 // uint32 len + uint32 crc
	chainSize    = sha256.Size
	// auditRingCap bounds the in-memory tail served over OpAuditTail
	// (kept even for ephemeral databases with no directory).
	auditRingCap = 256
	// auditRotateBytes rotates a segment past this size.
	auditRotateBytes = 1 << 20
	// A block is sealed at blockMaxEvents events or blockMaxBytes encoded
	// bytes, whichever comes first: one degrader batch fills one block,
	// and an oversized Detail cannot grow the open block without bound.
	blockMaxEvents = 256
	blockMaxBytes  = 32 << 10
	// minEventSize is the shortest event encoding (eight one-byte
	// fields); it bounds the event count a block body can claim.
	minEventSize = 8

	// Segment header: magic, format version, first sequence number, chain
	// value the segment continues from.
	segMagic   = "IAUD"
	segVersion = 2
	segHdrSize = 4 + 4 + 8 + chainSize
)

// block is the open, not yet sealed block. Events are encoded as they
// arrive, each timestamp and the tuple id as a zig-zag delta from the
// same field of the event before (the block's base time and 0 for the
// first), strings as indexes into the block's table (0 = empty).
type block struct {
	firstSeq uint64
	baseNano int64
	n        int
	strs     []string
	strBytes int
	evs      []byte
	// Delta state: the previous event's fields.
	nano, deadline, actual int64
	tuple                  uint64
}

func (b *block) add(ev *Event) {
	if b.n == 0 {
		b.firstSeq, b.baseNano = ev.Seq, ev.UnixNano
		b.nano, b.deadline, b.actual, b.tuple = ev.UnixNano, ev.UnixNano, ev.UnixNano, 0
	}
	p := append(b.evs, byte(ev.Kind))
	p = binary.AppendVarint(p, ev.UnixNano-b.nano)
	p = binary.AppendUvarint(p, b.intern(ev.Table))
	p = binary.AppendVarint(p, int64(ev.Tuple-b.tuple))
	p = binary.AppendUvarint(p, b.intern(ev.Attr))
	p = binary.AppendUvarint(p, b.intern(ev.Detail))
	p = binary.AppendVarint(p, ev.Deadline-b.deadline)
	p = binary.AppendVarint(p, ev.Actual-b.actual)
	b.evs = p
	b.nano, b.deadline, b.actual, b.tuple = ev.UnixNano, ev.Deadline, ev.Actual, ev.Tuple
	b.n++
}

// intern returns s's index in the block's string table, adding it on
// first use. Tables hold a handful of names (table, attributes, a few
// detail texts), so a linear scan beats hashing.
func (b *block) intern(s string) uint64 {
	if s == "" {
		return 0
	}
	for i, t := range b.strs {
		if t == s {
			return uint64(i + 1)
		}
	}
	b.strs = append(b.strs, s)
	b.strBytes += len(s) + 1
	return uint64(len(b.strs))
}

func (b *block) full() bool {
	return b.n >= blockMaxEvents || len(b.evs)+b.strBytes >= blockMaxBytes
}

// appendBody appends the block's body: header (first seq, base time,
// event count, string count), string table, events.
func (b *block) appendBody(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, b.firstSeq)
	dst = binary.AppendUvarint(dst, uint64(b.baseNano))
	dst = binary.AppendUvarint(dst, uint64(b.n))
	dst = binary.AppendUvarint(dst, uint64(len(b.strs)))
	for _, s := range b.strs {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return append(dst, b.evs...)
}

func (b *block) reset() {
	for i := range b.strs {
		b.strs[i] = "" // drop the callers' strings
	}
	b.strs, b.strBytes, b.evs, b.n = b.strs[:0], 0, b.evs[:0], 0
}

// Audit is the append-only hash-chained event log. All methods are
// nil-safe (a nil *Audit drops events), so subsystems hold a sink
// unconditionally.
type Audit struct {
	mu      sync.Mutex
	dir     string // "" = in-memory ring only
	f       *os.File
	segID   int
	segSize int64
	seq     uint64
	chain   [chainSize]byte // after the last sealed block
	blk     block
	frame   []byte // seal scratch, reused
	h       hash.Hash
	ring    []Event
	rpos    int
	broken  error
}

// OpenAudit opens (or starts) the audit trail in dir; dir "" keeps an
// in-memory ring only (ephemeral databases still serve OpAuditTail).
// Reopening reads the newest segment alone: its header and blocks give
// the sequence number and chain value to continue from, and a torn
// final block — a crash mid-append — is cut off.
func OpenAudit(dir string) (*Audit, error) {
	a := &Audit{dir: dir, ring: make([]Event, 0, auditRingCap)}
	if dir == "" {
		return a, nil
	}
	a.h = sha256.New()
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("audit: mkdir: %w", err)
	}
	ids, err := auditSegmentIDs(dir)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		a.segID = 1
		if err := a.startSegment(); err != nil {
			return nil, err
		}
		return a, nil
	}
	a.segID = ids[len(ids)-1]
	path := auditSegPath(dir, a.segID)
	seg, err := readSegment(path)
	if err != nil {
		return nil, err
	}
	if seg.torn {
		if err := os.Truncate(path, seg.size); err != nil {
			return nil, fmt.Errorf("audit: cut torn tail: %w", err)
		}
	}
	a.chain, a.seq = seg.chain, seg.nextSeq-1
	if err := a.restoreRing(seg.bodies); err != nil {
		return nil, fmt.Errorf("audit: %s: %w", filepath.Base(path), err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("audit: open segment: %w", err)
	}
	a.f, a.segSize = f, seg.size
	return a, nil
}

// restoreRing refills the in-memory tail from the newest blocks.
func (a *Audit) restoreRing(bodies [][]byte) error {
	var tail [][]Event
	for i, n := len(bodies)-1, 0; i >= 0 && n < auditRingCap; i-- {
		evs, err := decodeAuditBlock(bodies[i])
		if err != nil {
			return err
		}
		tail = append(tail, evs)
		n += len(evs)
	}
	for i := len(tail) - 1; i >= 0; i-- {
		for _, ev := range tail[i] {
			a.push(ev)
		}
	}
	return nil
}

func auditSegPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", auditPrefix, id, auditSuffix))
}

func auditSegmentIDs(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ids []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, auditPrefix) || !strings.HasSuffix(name, auditSuffix) {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(name, auditPrefix+"%08d"+auditSuffix, &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// startSegment creates segment a.segID continuing from a.seq and
// a.chain, and makes it the active one. The header is written and
// fsynced under a temporary name first, so a file named like a segment
// always starts with a whole header.
func (a *Audit) startSegment() error {
	hdr := make([]byte, 0, segHdrSize)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, segVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, a.seq+1)
	hdr = append(hdr, a.chain[:]...)
	path := auditSegPath(a.dir, a.segID)
	f, err := os.OpenFile(path+".tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("audit: create segment: %w", err)
	}
	if _, err = f.Write(hdr); err == nil {
		if err = f.Sync(); err == nil {
			err = os.Rename(path+".tmp", path)
		}
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("audit: create segment: %w", err)
	}
	a.f, a.segSize = f, segHdrSize
	return nil
}

// Append records events in order as one batch — one lock acquisition,
// and one frame and hash link per block the batch fills (Seq, and
// UnixNano when zero, are filled in). Errors latch: a trail that failed
// to persist refuses further appends rather than recording a gap, and
// the error surfaces on the next Sync/Close.
func (a *Audit) Append(evs ...Event) {
	a.AppendN(len(evs), func(i int) Event { return evs[i] })
}

// AppendN is Append of the n events ev(0), …, ev(n-1), for a caller that
// would otherwise collect many events only to hand them over. ev runs
// under the trail's lock: it must not block or use the trail.
func (a *Audit) AppendN(n int, ev func(i int) Event) {
	if a == nil || n == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.broken != nil {
		return
	}
	var now int64
	for i := range n {
		ev := ev(i)
		if ev.UnixNano == 0 {
			if now == 0 {
				now = time.Now().UnixNano()
			}
			ev.UnixNano = now
		}
		a.seq++
		ev.Seq = a.seq
		a.push(ev)
		if a.f == nil {
			continue
		}
		a.blk.add(&ev)
		if a.blk.full() {
			a.sealLocked()
		}
	}
}

// sealLocked frames the open block, links it into the chain and writes
// it with one write call; a full segment rotates.
func (a *Audit) sealLocked() {
	if a.blk.n == 0 || a.broken != nil {
		return
	}
	out := append(a.frame[:0], make([]byte, frameHdrSize)...)
	out = a.blk.appendBody(out)
	a.blk.reset()
	a.h.Reset()
	a.h.Write(a.chain[:])
	a.h.Write(out[frameHdrSize:])
	a.h.Sum(a.chain[:0])
	out = append(out, a.chain[:]...)
	binary.LittleEndian.PutUint32(out[0:], uint32(len(out)-frameHdrSize))
	binary.LittleEndian.PutUint32(out[4:], crc32.ChecksumIEEE(out[frameHdrSize:]))
	a.frame = out
	if _, err := a.f.Write(out); err != nil {
		a.broken = err
		return
	}
	a.segSize += int64(len(out))
	if a.segSize >= auditRotateBytes {
		a.rotateLocked()
	}
}

// rotateLocked makes the active segment durable, closes it and starts
// the next; the new header carries the chain across the boundary.
func (a *Audit) rotateLocked() {
	if err := a.f.Sync(); err != nil {
		a.broken = err
		return
	}
	if err := a.f.Close(); err != nil {
		a.broken = err
		return
	}
	a.segID++
	if err := a.startSegment(); err != nil {
		a.broken = err
	}
}

func (a *Audit) syncLocked() error {
	if a.f == nil {
		return a.broken
	}
	a.sealLocked()
	if a.broken == nil {
		a.broken = a.f.Sync()
	}
	return a.broken
}

// Sync seals the open block and fsyncs the active segment.
func (a *Audit) Sync() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.syncLocked()
}

// Checkpoint appends a checkpoint marker and makes the trail durable —
// called from the engine's checkpoint alongside the page-store sync.
func (a *Audit) Checkpoint() error {
	if a == nil {
		return nil
	}
	a.Append(Event{Kind: EvCheckpoint})
	return a.Sync()
}

// Close makes the trail durable and closes the active segment.
func (a *Audit) Close() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		return a.broken
	}
	err := a.syncLocked()
	if cerr := a.f.Close(); err == nil {
		err = cerr
	}
	a.f = nil
	return err
}

// push appends into the in-memory tail ring. Caller holds a.mu (or is
// still constructing).
func (a *Audit) push(ev Event) {
	if len(a.ring) < auditRingCap {
		a.ring = append(a.ring, ev)
		return
	}
	a.ring[a.rpos] = ev
	a.rpos = (a.rpos + 1) % auditRingCap
}

// Tail returns the newest n events, oldest first (n <= 0 or > ring:
// everything retained in memory). Events still in the open block are
// included.
func (a *Audit) Tail(n int) []Event {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	total := len(a.ring)
	if n <= 0 || n > total {
		n = total
	}
	out := make([]Event, 0, n)
	for i := total - n; i < total; i++ {
		out = append(out, a.ring[(a.rpos+i)%total])
	}
	return out
}

// Seq returns the sequence number of the last appended event.
func (a *Audit) Seq() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seq
}

// blockHead parses a block body's header: first sequence number, base
// time, event count and string-table size; rest is what follows.
func blockHead(body []byte) (firstSeq uint64, baseNano int64, n, nstr uint64, rest []byte, err error) {
	var hdr [4]uint64
	rest = body
	for i := range hdr {
		v, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return 0, 0, 0, 0, nil, errors.New("audit: truncated block header")
		}
		hdr[i], rest = v, rest[sz:]
	}
	if hdr[2] == 0 || hdr[2] > uint64(len(rest))/minEventSize {
		return 0, 0, 0, 0, nil, fmt.Errorf("audit: block claims %d events in %d bytes", hdr[2], len(rest))
	}
	if hdr[3] > uint64(len(rest)) {
		return 0, 0, 0, 0, nil, fmt.Errorf("audit: block claims %d strings in %d bytes", hdr[3], len(rest))
	}
	return hdr[0], int64(hdr[1]), hdr[2], hdr[3], rest, nil
}

// decodeAuditBlock parses one block body (everything the chain covers)
// back into its events.
func decodeAuditBlock(body []byte) ([]Event, error) {
	firstSeq, baseNano, n, nstr, p, err := blockHead(body)
	if err != nil {
		return nil, err
	}
	strs := make([]string, nstr+1) // index 0 is the empty string
	for i := uint64(1); i <= nstr; i++ {
		l, sz := binary.Uvarint(p)
		if sz <= 0 || l > uint64(len(p)-sz) {
			return nil, errors.New("audit: truncated string table")
		}
		strs[i], p = string(p[sz:sz+int(l)]), p[sz+int(l):]
	}
	if n > uint64(len(p))/minEventSize {
		return nil, fmt.Errorf("audit: block claims %d events in %d bytes", n, len(p))
	}
	delta := func(prev *int64) bool {
		d, sz := binary.Varint(p)
		if sz <= 0 {
			return false
		}
		*prev, p = *prev+d, p[sz:]
		return true
	}
	str := func(dst *string) bool {
		i, sz := binary.Uvarint(p)
		if sz <= 0 || i > nstr {
			return false
		}
		*dst, p = strs[i], p[sz:]
		return true
	}
	evs := make([]Event, n)
	nano, deadline, actual, tuple := baseNano, baseNano, baseNano, int64(0)
	for i := range evs {
		ev := &evs[i]
		if len(p) == 0 {
			return nil, errors.New("audit: truncated event")
		}
		ev.Seq, ev.Kind, p = firstSeq+uint64(i), Kind(p[0]), p[1:]
		if !delta(&nano) || !str(&ev.Table) || !delta(&tuple) || !str(&ev.Attr) ||
			!str(&ev.Detail) || !delta(&deadline) || !delta(&actual) {
			return nil, fmt.Errorf("audit: malformed event %d of block at seq %d", i, firstSeq)
		}
		ev.UnixNano, ev.Tuple, ev.Deadline, ev.Actual = nano, uint64(tuple), deadline, actual
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("audit: block has %d trailing bytes", len(p))
	}
	return evs, nil
}

// segment is what readSegment learned from one file.
type segment struct {
	firstSeq uint64          // from the header
	start    [chainSize]byte // from the header
	bodies   [][]byte        // whole, CRC- and chain-checked blocks
	chain    [chainSize]byte // after the last whole block
	nextSeq  uint64          // after the last whole block
	size     int64           // header + whole frames
	// torn: bytes past size form no whole frame — a short frame, or a
	// CRC mismatch on the frame that ends the file. That is what an
	// interrupted append leaves; damage anywhere else is an error.
	torn bool
}

// readSegment reads one segment, checking the header, every frame's CRC,
// the hash chain from the header's starting value, and that block
// sequence numbers run on from the header's. On error the segment holds
// what was verified before the failure.
func readSegment(path string) (*segment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := filepath.Base(path)
	if len(data) < segHdrSize || string(data[:4]) != segMagic {
		return nil, fmt.Errorf("audit: %s: no segment header (a format version 1 trail? this build reads version %d only)", name, segVersion)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != segVersion {
		return nil, fmt.Errorf("audit: %s: unsupported format version %d (want %d)", name, v, segVersion)
	}
	seg := &segment{firstSeq: binary.LittleEndian.Uint64(data[8:]), size: segHdrSize}
	copy(seg.start[:], data[16:])
	seg.chain, seg.nextSeq = seg.start, seg.firstSeq
	h := sha256.New()
	for off := segHdrSize; off < len(data); off = int(seg.size) {
		if len(data)-off < frameHdrSize {
			seg.torn = true
			return seg, nil
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		end := off + frameHdrSize + n
		if n <= chainSize {
			return seg, fmt.Errorf("audit: %s: bad frame length %d at offset %d", name, n, off)
		}
		if end > len(data) {
			seg.torn = true
			return seg, nil
		}
		payload := data[off+frameHdrSize : end]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:]) {
			if end == len(data) {
				seg.torn = true
				return seg, nil
			}
			return seg, fmt.Errorf("audit: %s: CRC mismatch at offset %d", name, off)
		}
		body, stored := payload[:n-chainSize], payload[n-chainSize:]
		h.Reset()
		h.Write(seg.chain[:])
		h.Write(body)
		if !bytes.Equal(h.Sum(nil), stored) {
			return seg, fmt.Errorf("audit: %s: hash chain broken at offset %d", name, off)
		}
		firstSeq, _, count, _, _, err := blockHead(body)
		if err != nil {
			return seg, fmt.Errorf("audit: %s: offset %d: %w", name, off, err)
		}
		if firstSeq != seg.nextSeq {
			return seg, fmt.Errorf("audit: %s: sequence gap: block at offset %d starts at %d, want %d", name, off, firstSeq, seg.nextSeq)
		}
		copy(seg.chain[:], stored)
		seg.nextSeq += count
		seg.bodies = append(seg.bodies, body)
		seg.size = int64(end)
	}
	return seg, nil
}

// Verify recomputes the hash chain of every audit segment in dir from
// genesis and returns the verified event count. Any CRC failure, chain
// mismatch, sequence gap, segment header that does not continue the
// segment before it, or torn tail fails loud — the trail was tampered
// with, damaged, or cut by a crash and not reopened since.
func Verify(dir string) (int, error) {
	ids, err := auditSegmentIDs(dir)
	if err != nil {
		return 0, err
	}
	var chain [chainSize]byte
	next := uint64(1)
	count := 0
	for _, id := range ids {
		seg, err := readSegment(auditSegPath(dir, id))
		if seg == nil {
			return count, err
		}
		if seg.firstSeq != next || seg.start != chain {
			return count, fmt.Errorf("audit: segment %d does not continue the trail before it: header starts at seq %d, want %d with the previous tail's chain value",
				id, seg.firstSeq, next)
		}
		for _, body := range seg.bodies {
			evs, derr := decodeAuditBlock(body)
			if derr != nil {
				return count, fmt.Errorf("audit: segment %d: %w", id, derr)
			}
			count += len(evs)
		}
		if err != nil {
			return count, err
		}
		if seg.torn {
			return count, fmt.Errorf("audit: segment %d: torn tail at offset %d (an interrupted append; the next open cuts it off)", id, seg.size)
		}
		chain, next = seg.chain, seg.nextSeq
	}
	return count, nil
}
