package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"instantdb/internal/metrics"
)

const (
	// batchMagic opens every batch frame of format 4: runs whose
	// per-record columns — ids, insert times, payload lengths, stable
	// values — are written column by column (see EncodeRecords). Format
	// 3 wrote stable rows row by row and every id and time as a delta
	// under batchMagicV3, format 2 the same runs with fixed-width INTs
	// under batchMagicV2, format 1 per-record payloads under
	// batchMagicV1; Open refuses such a log instead of mistaking it for
	// a torn tail.
	batchMagic      = 0x34415749 // "IWA4"
	batchMagicV3    = 0x33415749 // "IWA3"
	batchMagicV2    = 0x32415749 // "IWA2"
	batchMagicV1    = 0x4C415749 // "IWAL"
	batchHeaderSize = 12
	segPrefix       = "wal-"
	segSuffix       = ".log"
	tmpSuffix       = ".tmp"
)

// Options configures a Log.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size.
	// Default 1 MiB.
	SegmentBytes int64
	// Sync fsyncs every commit batch. Default true; benchmarks may
	// disable it to isolate CPU cost.
	Sync bool
	// Codec seals degradable payloads. Default PlainCodec.
	Codec Codec
	// Metrics receives WAL instrumentation (fsync latency, rotations,
	// appended bytes). nil disables it at zero cost.
	Metrics *metrics.Registry
	// OpenSegment, when non-nil, intercepts every segment-file open
	// (active segment at Open, rotation, reset). It exists for the
	// crash-injection test harness — a wrapper can buffer writes and
	// drop them at a simulated power cut; see FaultInjector. Production
	// code leaves it nil (plain os.OpenFile).
	OpenSegment func(path string) (SegmentFile, error)
}

// SegmentFile is the write handle a Log holds on its active segment:
// appends, fsync, close. *os.File satisfies it; the crash-injection
// harness substitutes a fault-point wrapper via Options.OpenSegment.
type SegmentFile interface {
	io.Writer
	Sync() error
	Close() error
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.Codec == nil {
		o.Codec = PlainCodec{}
	}
	return o
}

// Log is a segmented redo-only write-ahead log. Commit batches are
// appended atomically (length + CRC framing) by the group committer
// (GroupAppend); replay applies complete batches in order and stops
// cleanly at a torn tail. All methods are safe for concurrent use.
type Log struct {
	mu         sync.Mutex
	dir        string
	opts       Options
	active     SegmentFile
	activeID   int
	activeSize int64
	// broken latches the first append-path write/sync failure: the
	// on-disk tail state is unknown past it, so every later append is
	// refused rather than risking frames stacked on torn bytes.
	broken error
	// notify is closed and replaced on every append/reset, broadcasting
	// "new batches may exist" to tailers (AppendNotify).
	notify chan struct{}

	// Group-commit state (see group.go). gmu orders the waiter queue and
	// leadership flag; it is always taken without l.mu held.
	gmu       sync.Mutex
	gcond     *sync.Cond
	gqueue    []*groupWaiter
	gflushing bool

	// Commit-path tallies, maintained even with metrics disabled so
	// tests and benchmarks can assert fsync amortization.
	statFsyncs  atomic.Uint64 // fsyncs issued for commit batches
	statBatches atomic.Uint64 // commit batches appended
	statGroups  atomic.Uint64 // group flushes (each one fsync)

	// Instrumentation (nil-safe no-ops when Options.Metrics is nil).
	fsyncSeconds  *metrics.Histogram
	rotations     *metrics.Counter
	appendedBytes *metrics.Counter
	groupSize     *metrics.Histogram
}

// Pos addresses a batch boundary in the log: a segment id and a byte
// offset within that segment. The zero Pos means "from the beginning of
// the oldest retained segment". Positions handed out by TailRaw always
// sit on batch boundaries; replication followers persist them to resume
// tailing exactly where they stopped.
type Pos struct {
	// Seg is the segment id (wal-XXXXXXXX.log).
	Seg int
	// Off is the byte offset of the next batch within the segment.
	Off int64
}

// IsZero reports whether p is the "from the start" position.
func (p Pos) IsZero() bool { return p.Seg == 0 && p.Off == 0 }

// Before reports whether p addresses log material strictly before q.
func (p Pos) Before(q Pos) bool {
	if p.Seg != q.Seg {
		return p.Seg < q.Seg
	}
	return p.Off < q.Off
}

// String renders a position as seg:off.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Seg, p.Off) }

// ErrPosGone reports a tail position whose log material no longer
// exists — the segment was discarded by a checkpoint Reset (or rewritten
// by Vacuum, which replication does not support). The follower cannot
// catch up from the log alone and must be reseeded from a fresh copy of
// the leader directory.
var ErrPosGone = errors.New("wal: position no longer exists in the log")

// Open opens (or creates) a log directory. An interrupted vacuum is
// completed, and a torn tail in the newest segment is truncated away.
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	l := &Log{dir: dir, opts: opts.withDefaults()}
	if err := l.recoverTmp(); err != nil {
		return nil, err
	}
	ids, err := l.segmentIDs()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if err := checkSegmentFormat(l.segPath(id)); err != nil {
			return nil, err
		}
	}
	l.activeID = 1
	if len(ids) > 0 {
		l.activeID = ids[len(ids)-1]
		// Truncate a torn tail so future appends stay readable.
		path := l.segPath(l.activeID)
		valid, err := validPrefixLen(path)
		if err != nil {
			return nil, err
		}
		if err := os.Truncate(path, valid); err != nil {
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	f, err := l.openSegment(l.segPath(l.activeID))
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	st, err := os.Stat(l.segPath(l.activeID))
	if err != nil {
		f.Close()
		return nil, err
	}
	l.active, l.activeSize = f, st.Size()
	l.notify = make(chan struct{})
	l.gcond = sync.NewCond(&l.gmu)
	reg := l.opts.Metrics
	l.fsyncSeconds = reg.Histogram("instantdb_wal_fsync_seconds",
		"Latency of WAL fsync calls on commit batches.", nil)
	l.rotations = reg.Counter("instantdb_wal_segment_rotations_total",
		"WAL segment rotations (seal + new segment).")
	l.appendedBytes = reg.Counter("instantdb_wal_appended_bytes_total",
		"Bytes appended to the WAL, including batch framing.")
	l.groupSize = reg.Histogram("instantdb_wal_group_size",
		"Commit batches flushed per WAL group fsync (bucket bounds are batch counts, not seconds).",
		[]float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128})
	reg.CounterFunc("instantdb_wal_fsyncs_total",
		"Fsyncs issued for commit batches (group commit amortizes several batches per fsync).",
		func() float64 { return float64(l.statFsyncs.Load()) })
	reg.CounterFunc("instantdb_wal_batches_total",
		"Commit batches appended to the WAL.",
		func() float64 { return float64(l.statBatches.Load()) })
	reg.GaugeFunc("instantdb_wal_fsyncs_per_commit",
		"Lifetime ratio of commit-path fsyncs to commit batches (1.0 = no amortization; below 1.0 = group commit at work).",
		func() float64 {
			b := l.statBatches.Load()
			if b == 0 {
				return 0
			}
			return float64(l.statFsyncs.Load()) / float64(b)
		})
	return l, nil
}

// ErrFormatVersion reports a log written in a batch format this build
// does not read.
var ErrFormatVersion = errors.New("wal: unsupported log format version")

// checkSegmentFormat refuses a segment that opens with a batch frame of
// an earlier format. Without the check its first frame would read as a
// torn tail and Open would truncate the whole segment away.
func checkSegmentFormat(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var head [4]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return nil // shorter than a frame header: an empty or torn segment
	}
	var old string
	switch binary.LittleEndian.Uint32(head[:]) {
	case batchMagicV1:
		old = "format 1 (per-record)"
	case batchMagicV2:
		old = "format 2 (fixed-width INT)"
	case batchMagicV3:
		old = "format 3 (row-wise stable rows)"
	default:
		return nil
	}
	return fmt.Errorf("%w: %s holds %s batches, this build reads format 4 (column-wise runs) only",
		ErrFormatVersion, filepath.Base(path), old)
}

// openSegment opens a segment file for appending, through the
// Options.OpenSegment hook when one is installed.
func (l *Log) openSegment(path string) (SegmentFile, error) {
	if l.opts.OpenSegment != nil {
		return l.opts.OpenSegment(path)
	}
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o600)
}

// FsyncCount returns the number of fsyncs issued for commit batches
// (one per group flush with Sync on). Group-commit tests assert it
// stays far below BatchCount under concurrent committers.
func (l *Log) FsyncCount() uint64 { return l.statFsyncs.Load() }

// BatchCount returns the number of commit batches appended.
func (l *Log) BatchCount() uint64 { return l.statBatches.Load() }

// GroupCount returns the number of group flushes (each one fsync).
func (l *Log) GroupCount() uint64 { return l.statGroups.Load() }

// Dir returns the log directory (forensic scans read it directly).
func (l *Log) Dir() string { return l.dir }

func (l *Log) segPath(id int) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%08d%s", segPrefix, id, segSuffix))
}

func (l *Log) segmentIDs() ([]int, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var ids []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(name, segPrefix+"%08d"+segSuffix, &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// recoverTmp completes vacuums interrupted between the zero-overwrite of
// the original and the rename of the rewritten copy.
func (l *Log) recoverTmp() error {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), tmpSuffix) {
			continue
		}
		tmp := filepath.Join(l.dir, e.Name())
		final := strings.TrimSuffix(tmp, tmpSuffix)
		// The tmp file was fully written and synced before the original
		// was zeroed, so it always wins.
		if err := os.Rename(tmp, final); err != nil {
			return fmt.Errorf("wal: complete interrupted vacuum: %w", err)
		}
	}
	return nil
}

// putBatchHeader writes the batch frame header (magic + length + CRC)
// for payload into hdr[:batchHeaderSize].
func putBatchHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:], batchMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(payload))
}

// notifyLocked wakes every AppendNotify waiter (close-and-replace
// broadcast). Caller holds l.mu.
func (l *Log) notifyLocked() {
	close(l.notify)
	l.notify = make(chan struct{})
}

// AppendNotify returns a channel closed the next time a batch is
// appended (or the log is reset). Tailers grab the channel BEFORE
// capturing EndPos for a TailRaw that comes back empty, then wait on it,
// so an append racing the read is never missed.
func (l *Log) AppendNotify() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.notify
}

// Rotate seals the active segment and starts a new one (vacuum operates
// only on sealed segments).
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rotateLocked()
}

func (l *Log) rotateLocked() error {
	if err := l.active.Sync(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return err
	}
	l.activeID++
	f, err := l.openSegment(l.segPath(l.activeID))
	if err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	l.active, l.activeSize = f, 0
	l.rotations.Inc()
	return nil
}

// Replay invokes fn with every record of every complete batch, in log
// order. A torn tail (incomplete final batch) ends replay without error.
func (l *Log) Replay(fn func(*Record) error) error {
	l.mu.Lock()
	ids, err := l.segmentIDs()
	codec := l.opts.Codec
	l.mu.Unlock()
	if err != nil {
		return err
	}
	for _, id := range ids {
		data, err := os.ReadFile(l.segPath(id))
		if err != nil {
			return fmt.Errorf("wal: replay segment %d: %w", id, err)
		}
		if err := replayBuffer(data, codec, fn); err != nil {
			return fmt.Errorf("wal: replay segment %d: %w", id, err)
		}
	}
	return nil
}

// replayBuffer walks complete batches in data, stopping silently at the
// first incomplete or corrupt batch (torn tail).
func replayBuffer(data []byte, codec Codec, fn func(*Record) error) error {
	for {
		payload, size, ok := parseBatchRaw(data)
		if !ok {
			return nil
		}
		if err := decodeRuns(payload, codec, fn); err != nil {
			return err
		}
		data = data[size:]
	}
}

// validPrefixLen returns the byte length of the valid batch prefix of a
// segment file.
func validPrefixLen(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	off := 0
	for {
		_, size, ok := parseBatchRaw(data[off:])
		if !ok {
			return int64(off), nil
		}
		off += size
	}
}

// Reset discards the whole log after a checkpoint: every segment is
// zero-overwritten, synced and removed, and a fresh segment begins. The
// caller must have made the page store durable first.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.active.Close(); err != nil {
		return err
	}
	ids, err := l.segmentIDs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		if err := scrubFile(l.segPath(id)); err != nil {
			return err
		}
	}
	l.activeID++
	f, err := l.openSegment(l.segPath(l.activeID))
	if err != nil {
		return err
	}
	l.active, l.activeSize = f, 0
	// Wake tailers so they observe ErrPosGone promptly instead of
	// blocking on a notify that would never fire for scrubbed segments.
	l.notifyLocked()
	return nil
}

// scrubFile zero-overwrites a file's content, syncs, and removes it —
// deleted log bytes must not survive on disk.
func scrubFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	zero := make([]byte, 64<<10)
	for off := int64(0); off < st.Size(); off += int64(len(zero)) {
		n := st.Size() - off
		if n > int64(len(zero)) {
			n = int64(len(zero))
		}
		if _, err := f.WriteAt(zero[:n], off); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Remove(path)
}

// Vacuum rewrites every sealed segment, passing each record through
// transform (which typically NULLs degradable payloads that outlived
// their accuracy state). The original segment bytes are zero-overwritten
// before the rewritten copy takes their place, so vacuumed payloads are
// physically gone. The active segment is untouched; call Rotate first to
// seal it.
func (l *Log) Vacuum(transform func(*Record)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids, err := l.segmentIDs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		if id == l.activeID {
			continue
		}
		if err := l.vacuumSegment(l.segPath(id), transform); err != nil {
			return fmt.Errorf("wal: vacuum segment %d: %w", id, err)
		}
	}
	return nil
}

func (l *Log) vacuumSegment(path string, transform func(*Record)) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	tmpPath := path + tmpSuffix
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	// Re-encode batch by batch, preserving commit boundaries.
	var out []byte
	for {
		payload, size, ok := parseBatchRaw(data)
		if !ok {
			break
		}
		data = data[size:]
		recs, err := DecodeRecords(payload, l.opts.Codec)
		if err == nil {
			for _, r := range recs {
				transform(r)
			}
			out, err = EncodeRecords(out[:0], recs, l.opts.Codec)
		}
		if err == nil {
			_, err = tmp.Write(appendFrame(nil, out))
		}
		if err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	// Secure order: the rewritten copy is durable; now destroy the
	// original bytes, then promote the copy. Open completes the rename
	// if we crash in between.
	if err := scrubFile(path); err != nil {
		return err
	}
	return os.Rename(tmpPath, path)
}

// SegmentCount returns the number of segment files (including active).
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids, _ := l.segmentIDs()
	return len(ids)
}

// SizeBytes returns the total log size on disk.
func (l *Log) SizeBytes() int64 {
	l.mu.Lock()
	ids, _ := l.segmentIDs()
	dir := l.dir
	l.mu.Unlock()
	var total int64
	for _, id := range ids {
		if st, err := os.Stat(filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, id, segSuffix))); err == nil {
			total += st.Size()
		}
	}
	return total
}

// Codec returns the codec that seals this log's payloads; tailers
// decode TailRaw payloads with it (DecodeRecords).
func (l *Log) Codec() Codec { return l.opts.Codec }

// EndPos returns the position one past the last batch GroupAppend
// acked — the point a fully caught-up tailer stands at. A group whose
// write or fsync failed never moves it. Heartbeats carry it so
// followers can measure their lag.
func (l *Log) EndPos() Pos {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Pos{Seg: l.activeID, Off: l.activeSize}
}

// TailRaw streams the raw record bytes of every complete batch in
// [from, to) to fn, together with the position following each batch.
// It is the log's one tail: replication senders decode each payload
// with the log's codec (Codec), incremental backups copy it verbatim.
// Each segment file is read from disk once per call, so a consumer
// pays O(bytes), not O(bytes × batches). to must be a position captured
// from EndPos: every batch strictly before it is fully written, so a
// parse failure anywhere except the exact end of a sealed segment
// means the range is not addressable — a from position off a batch
// boundary, a scrubbed segment, or a vacuum rewrite — and is reported
// as ErrPosGone rather than silently skipped.
func (l *Log) TailRaw(from, to Pos, fn func(payload []byte, next Pos) error) error {
	if !from.Before(to) {
		return nil
	}
	l.mu.Lock()
	ids, err := l.segmentIDs()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if from.Seg == 0 {
		if len(ids) == 0 {
			return nil
		}
		if ids[0] != 1 {
			return fmt.Errorf("%w: history before segment %d was checkpointed away", ErrPosGone, ids[0])
		}
		from = Pos{Seg: ids[0]}
		if !from.Before(to) {
			return nil
		}
	}
	idx := -1
	for i, id := range ids {
		if id == from.Seg {
			idx = i
			break
		}
	}
	if idx == -1 {
		return fmt.Errorf("%w: segment %d", ErrPosGone, from.Seg)
	}
	pos := from
	for ; idx < len(ids); idx++ {
		seg := ids[idx]
		if seg > to.Seg || !pos.Before(to) {
			break
		}
		if seg != pos.Seg {
			if seg != pos.Seg+1 {
				return fmt.Errorf("%w: segment %d missing", ErrPosGone, pos.Seg+1)
			}
			pos = Pos{Seg: seg}
		}
		data, err := os.ReadFile(l.segPath(seg))
		if err != nil {
			return fmt.Errorf("wal: read segment %d: %w", seg, err)
		}
		if pos.Off > int64(len(data)) {
			return fmt.Errorf("%w: segment %d offset %d past end %d", ErrPosGone, seg, pos.Off, len(data))
		}
		for pos.Before(to) {
			payload, size, ok := parseBatchRaw(data[pos.Off:])
			if !ok {
				if pos.Off == int64(len(data)) && seg != to.Seg {
					break // sealed segment exhausted exactly at its end
				}
				return fmt.Errorf("%w: segment %d offset %d is not a batch boundary", ErrPosGone, seg, pos.Off)
			}
			next := Pos{Seg: seg, Off: pos.Off + int64(size)}
			if err := fn(payload, next); err != nil {
				return err
			}
			pos = next
		}
	}
	if pos.Before(to) {
		return fmt.Errorf("%w: log ends at %v before requested end %v", ErrPosGone, pos, to)
	}
	return nil
}

// parseBatchRaw validates one complete batch at the start of data and
// returns its record bytes without decoding them. ok is false when no
// complete, CRC-valid batch is present.
func parseBatchRaw(data []byte) (payload []byte, size int, ok bool) {
	if len(data) < batchHeaderSize || binary.LittleEndian.Uint32(data) != batchMagic {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data[4:]))
	if batchHeaderSize+n > len(data) {
		return nil, 0, false
	}
	payload = data[batchHeaderSize : batchHeaderSize+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[8:]) {
		return nil, 0, false
	}
	return payload, batchHeaderSize + n, true
}

// Close syncs and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return err
	}
	err := l.active.Close()
	l.active = nil
	return err
}
