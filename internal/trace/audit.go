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
// are paid once per block instead of once per event; inside a block, a
// run of like events (a degrader batch, one queue's share of an insert
// commit) is stored once. The trail stays tamper evident end to end at
// block granularity: flipping a byte breaks that block's CRC, and
// rewriting a block with a recomputed CRC breaks the chain of every
// block after it — either way `degradectl audit -chain` fails loud.
// Segments rotate like the WAL
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
	// EvTornMoveHealed records recovery settling a degradation move a
	// crash tore in two: the tuple was found twice in the page file and
	// the copy no finer in any position was kept (Detail names its
	// states).
	EvTornMoveHealed Kind = 9
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
	case EvTornMoveHealed:
		return "torn-move-healed"
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
	// Also the most events a block body may claim, which bounds what a
	// decoder allocates before it has parsed a run.
	blockMaxEvents = 256
	blockMaxBytes  = 32 << 10

	// Segment header: magic, format version, first sequence number, chain
	// value the segment continues from.
	segMagic   = "IAUD"
	segVersion = 3
	segHdrSize = 4 + 4 + 8 + chainSize
)

// block is the open, not yet sealed block. Events are encoded in runs as
// they arrive: a run is a stretch of consecutive events with one kind,
// table, attribute and detail whose time, tuple id, deadline and actual
// each advance by a constant step, and it is written once — its first
// event, its count and the four steps. Strings are indexes into the
// block's table (0 = empty).
type block struct {
	firstSeq uint64
	baseNano int64
	n        int
	strs     []string
	strBytes int
	runs     []byte // the closed runs, encoded
	run      run    // the open run, closed by the next event it cannot take
	// The time and tuple id of the last event of the last closed run (the
	// base time and 0 before the first): a run's first time and tuple id
	// are deltas from them.
	nano, tuple int64
}

// run is the open run: n events of one kind and string triple whose
// numeric fields (time, tuple id, deadline, actual) are first + i·step.
type run struct {
	n                   int
	kind                Kind
	table, attr, detail string
	strs                [3]uint64 // table, attr and detail interned
	first, last, step   [4]int64
}

// numeric returns an event's run-encoded fields: time, tuple id,
// deadline, actual.
func numeric(ev *Event) [4]int64 {
	return [4]int64{ev.UnixNano, int64(ev.Tuple), ev.Deadline, ev.Actual}
}

// extends reports whether the event with numeric fields v continues the
// run. A second event fixes the steps.
func (r *run) extends(ev *Event, v [4]int64) bool {
	if r.n == 0 || ev.Kind != r.kind || ev.Table != r.table || ev.Attr != r.attr || ev.Detail != r.detail {
		return false
	}
	if r.n == 1 {
		for i := range v {
			r.step[i] = v[i] - r.last[i]
		}
		return true
	}
	for i := range v {
		if v[i] != r.last[i]+r.step[i] {
			return false
		}
	}
	return true
}

func (b *block) add(ev *Event) {
	if b.n == 0 {
		b.firstSeq, b.baseNano = ev.Seq, ev.UnixNano
		b.nano, b.tuple = ev.UnixNano, 0
	}
	b.n++
	v := numeric(ev)
	if !b.run.extends(ev, v) {
		b.closeRun()
		b.run = run{kind: ev.Kind, table: ev.Table, attr: ev.Attr, detail: ev.Detail, first: v,
			strs: [3]uint64{b.intern(ev.Table), b.intern(ev.Attr), b.intern(ev.Detail)}}
	}
	b.run.last = v
	b.run.n++
}

// closeRun encodes the open run onto the block's runs: kind, the three
// string indexes, count, the first event's time and tuple id as zig-zag
// deltas from the previous run's last, its deadline and actual relative
// to its own time (relCode), and, past one event, the four steps.
func (b *block) closeRun() {
	r := &b.run
	if r.n == 0 {
		return
	}
	p := append(b.runs, byte(r.kind))
	for _, s := range r.strs {
		p = binary.AppendUvarint(p, s)
	}
	p = binary.AppendUvarint(p, uint64(r.n))
	p = binary.AppendVarint(p, r.first[0]-b.nano)
	p = binary.AppendVarint(p, r.first[1]-b.tuple)
	p = binary.AppendUvarint(p, relCode(r.first[2], r.first[0]))
	p = binary.AppendUvarint(p, relCode(r.first[3], r.first[0]))
	if r.n > 1 {
		for _, s := range r.step {
			p = binary.AppendVarint(p, s)
		}
	}
	b.runs = p
	b.nano, b.tuple = r.last[0], r.last[1]
	*r = run{} // drop the callers' strings
}

// relCode encodes a deadline or actual v of an event at time t: 0 when v
// is unset (0), else the zig-zag form of v−t. Codes below that of −t —
// the difference an unset v would have, so never needed — are shifted
// up by one to make room for 0, which keeps every int64 v encodable.
func relCode(v, t int64) uint64 {
	if v == 0 {
		return 0
	}
	z := zigzag(v - t)
	if z < zigzag(-t) {
		z++
	}
	return z
}

// relValue inverts relCode.
func relValue(c uint64, t int64) int64 {
	if c == 0 {
		return 0
	}
	if c <= zigzag(-t) {
		c--
	}
	return t + (int64(c>>1) ^ -int64(c&1))
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

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
	return b.n >= blockMaxEvents || len(b.runs)+b.strBytes >= blockMaxBytes
}

// appendBody closes the open run and appends the block's body: header
// (first seq, base time, event count, string count), string table, runs.
func (b *block) appendBody(dst []byte) []byte {
	b.closeRun()
	dst = binary.AppendUvarint(dst, b.firstSeq)
	dst = binary.AppendUvarint(dst, uint64(b.baseNano))
	dst = binary.AppendUvarint(dst, uint64(b.n))
	dst = binary.AppendUvarint(dst, uint64(len(b.strs)))
	for _, s := range b.strs {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return append(dst, b.runs...)
}

func (b *block) reset() {
	for i := range b.strs {
		b.strs[i] = "" // drop the callers' strings
	}
	b.strs, b.strBytes, b.runs, b.run, b.n = b.strs[:0], 0, b.runs[:0], run{}, 0
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
	// openSeq is seq at open, and written the segment bytes (headers and
	// frames) written since: what Written reports.
	openSeq, written uint64
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
	a.openSeq = a.seq
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
	a.written += segHdrSize
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
	a.written += uint64(len(out))
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

// Written returns the events appended since open and the bytes written
// to segments since open, segment headers and block frames both, so
// bytes÷events is what the trail costs per event on disk. Events in the
// open block count as appended but are not written yet; an in-memory
// trail writes no bytes.
func (a *Audit) Written() (events, bytes uint64) {
	if a == nil {
		return 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seq - a.openSeq, a.written
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
	if hdr[2] == 0 || hdr[2] > blockMaxEvents {
		return 0, 0, 0, 0, nil, fmt.Errorf("audit: block claims %d events (1 to %d)", hdr[2], blockMaxEvents)
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
	uv := func(dst *uint64) bool {
		v, sz := binary.Uvarint(p)
		if sz <= 0 {
			return false
		}
		*dst, p = v, p[sz:]
		return true
	}
	sv := func(dst *int64) bool {
		v, sz := binary.Varint(p)
		if sz <= 0 {
			return false
		}
		*dst, p = v, p[sz:]
		return true
	}
	var idx [3]uint64
	str := func(i int) bool { return uv(&idx[i]) && idx[i] <= nstr }
	malformed := func(i int) error {
		return fmt.Errorf("audit: malformed run at event %d of block at seq %d", i, firstSeq)
	}
	evs := make([]Event, n)
	nano, tuple := baseNano, int64(0)
	for i := 0; i < len(evs); {
		if len(p) == 0 {
			return nil, malformed(i)
		}
		kind := Kind(p[0])
		p = p[1:]
		var count, dc, ac uint64
		if !str(0) || !str(1) || !str(2) || !uv(&count) {
			return nil, malformed(i)
		}
		if count == 0 || count > uint64(len(evs)-i) {
			return nil, fmt.Errorf("audit: run of %d events at event %d of a %d-event block at seq %d", count, i, n, firstSeq)
		}
		var dt, dtuple int64
		var step [4]int64
		if !sv(&dt) || !sv(&dtuple) || !uv(&dc) || !uv(&ac) ||
			count > 1 && (!sv(&step[0]) || !sv(&step[1]) || !sv(&step[2]) || !sv(&step[3])) {
			return nil, malformed(i)
		}
		v := [4]int64{nano + dt, tuple + dtuple}
		v[2], v[3] = relValue(dc, v[0]), relValue(ac, v[0])
		for j := uint64(0); j < count; j++ {
			if j > 0 {
				for k := range v {
					v[k] += step[k]
				}
			}
			evs[i] = Event{Seq: firstSeq + uint64(i), Kind: kind, UnixNano: v[0], Table: strs[idx[0]],
				Tuple: uint64(v[1]), Attr: strs[idx[1]], Deadline: v[2], Actual: v[3], Detail: strs[idx[2]]}
			i++
		}
		nano, tuple = v[0], v[1]
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
		what := ""
		if v == 2 {
			what = ", a per-event block trail"
		}
		return nil, fmt.Errorf("audit: %s: unsupported format version %d%s (this build reads version %d, run-encoded blocks, only)", name, v, what, segVersion)
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
