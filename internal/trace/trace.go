// Package trace is InstantDB's dependency-free request tracer and
// tamper-evident degradation audit trail (trace.go / audit.go).
//
// Tracing follows the metrics package's design constraints: every type
// is nil-safe (a nil *Tracer, *T or *S no-ops on every method), so an
// unsampled request pays only untaken branches on the hot path (the
// bench/ harness's trace.overhead_share row measures it). A trace is a
// flat bag of spans sharing
// one 64-bit trace id; span ids are unique across processes (seeded
// from crypto/rand), so a router and its shards can record spans for
// the same trace independently and a later merge stitches them into
// one tree purely by (TraceID, SpanID, ParentID).
//
// Finished traces land in two bounded rings: every finished trace in
// the recent ring, and traces whose root exceeded the slow threshold
// additionally in the slow ring — so a slow request observed an hour
// ago is still inspectable after thousands of fast ones displaced it
// from the recent ring. The rings are served over the wire
// (OpTraceDump) and on the metrics listener (/debug/traces).
package trace

import (
	"crypto/rand"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
)

// Ring capacities: small enough to bound memory on a busy server,
// large enough that a scatter across a dozen shards plus the requests
// around it are all still inspectable.
const (
	// RecentCap bounds the ring of most recently finished traces.
	RecentCap = 64
	// SlowCap bounds the ring of slow traces (root duration over the
	// tracer's slow threshold).
	SlowCap = 32
)

// DefaultSlow is the slow-trace threshold when the caller passes 0.
const DefaultSlow = 100 * time.Millisecond

// NewID returns a random non-zero 64-bit id. A client originating a
// forced trace (a trace id in its wire OpExec frame) allocates the id on
// its own side with this, so it knows what to ask for in a later
// OpTraceDump without the response having to carry the id back.
func NewID() uint64 {
	var b [8]byte
	for {
		_, _ = rand.Read(b[:])
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key string
	Val string
}

// Span is one finished timed operation within a trace. ParentID 0
// marks a root span; a non-zero ParentID that names no span in the
// same process is a *remote* parent — the stitching point between a
// router's per-shard client span and the shard's server-side root.
type Span struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
	Name     string
	// Service names the recording process role ("server", "router"),
	// so a stitched cross-process tree shows where each span ran.
	Service  string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
}

// Rec is one finished trace: its identity, root timing, and every
// span recorded in this process (remote spans join at stitch time).
type Rec struct {
	TraceID  uint64
	Root     string
	Start    time.Time
	Duration time.Duration
	Spans    []Span
}

// Tracer records traces for one process role. The zero sampling modes:
// sample <= 0 records only remote-requested traces (a client or router
// sent a trace id in its wire OpExec frame); sample == 1 records
// every request; sample == n records one request in n. All methods are
// safe for concurrent use and nil-safe.
type Tracer struct {
	service string
	sample  int
	slow    time.Duration

	ids   atomic.Uint64 // id sequence, mixed through splitmix64
	picks atomic.Uint64 // sampling decision counter
	seed  uint64

	mu     sync.Mutex
	recent []*Rec // ring, oldest overwritten first
	rpos   int
	slowR  []*Rec
	spos   int
}

// New builds a tracer for one process role. sample: <=0 remote-only,
// 1 every request, n one-in-n. slow is the slow-ring threshold
// (0 = DefaultSlow).
func New(service string, sample int, slow time.Duration) *Tracer {
	if slow <= 0 {
		slow = DefaultSlow
	}
	var seed [8]byte
	_, _ = rand.Read(seed[:])
	return &Tracer{
		service: service,
		sample:  sample,
		slow:    slow,
		seed:    binary.LittleEndian.Uint64(seed[:]),
		recent:  make([]*Rec, 0, RecentCap),
		slowR:   make([]*Rec, 0, SlowCap),
	}
}

// Slow returns the slow-trace threshold (0 on a nil tracer).
func (tr *Tracer) Slow() time.Duration {
	if tr == nil {
		return 0
	}
	return tr.slow
}

// nextID returns a process-unique non-zero 64-bit id (splitmix64 over
// a crypto-seeded counter, so two processes virtually never collide).
func (tr *Tracer) nextID() uint64 {
	x := tr.seed + tr.ids.Add(1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// Start begins a locally sampled trace rooted at name. It returns
// (nil, nil) — free to carry around — when the tracer is nil or this
// request is not sampled.
func (tr *Tracer) Start(name string) (*T, *S) {
	if tr == nil || tr.sample <= 0 {
		return nil, nil
	}
	if tr.sample > 1 && tr.picks.Add(1)%uint64(tr.sample) != 0 {
		return nil, nil
	}
	return tr.begin(tr.nextID(), 0, name)
}

// StartRemote begins a trace forced by a remote caller (a trace id in
// its wire OpExec frame): always recorded, regardless of sampling. traceID
// 0 allocates a fresh id; parentID is the caller's span the root of
// this trace hangs under in the stitched tree.
func (tr *Tracer) StartRemote(traceID, parentID uint64, name string) (*T, *S) {
	if tr == nil {
		return nil, nil
	}
	if traceID == 0 {
		traceID = tr.nextID()
	}
	return tr.begin(traceID, parentID, name)
}

func (tr *Tracer) begin(traceID, parentID uint64, name string) (*T, *S) {
	t := &T{tr: tr, id: traceID}
	s := &S{t: t, root: true, span: Span{
		TraceID:  traceID,
		SpanID:   tr.nextID(),
		ParentID: parentID,
		Name:     name,
		Service:  tr.service,
		Start:    time.Now(),
	}}
	return t, s
}

// T is one in-flight trace being recorded in this process.
type T struct {
	tr *Tracer
	id uint64

	mu    sync.Mutex
	spans []Span
}

// ID returns the trace id (0 on a nil trace).
func (t *T) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Span begins a child span under parent (nil parent hangs it directly
// under the root's remote parent — callers normally pass the root).
func (t *T) Span(parent *S, name string) *S {
	if t == nil {
		return nil
	}
	return &S{t: t, span: Span{
		TraceID:  t.id,
		SpanID:   t.tr.nextID(),
		ParentID: parent.ID(),
		Name:     name,
		Service:  t.tr.service,
		Start:    time.Now(),
	}}
}

// Add records an already measured span — the WAL group committer hands
// back its phase timings after the fact, and they are attached here
// without having wrapped the phases in live spans.
func (t *T) Add(parent *S, name string, start time.Time, d time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	sp := Span{
		TraceID:  t.id,
		SpanID:   t.tr.nextID(),
		ParentID: parent.ID(),
		Name:     name,
		Service:  t.tr.service,
		Start:    start,
		Duration: d,
		Attrs:    attrs,
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Spans returns a copy of the spans recorded so far (stitching reads
// an in-flight remote trace; the local path reads rings instead).
func (t *T) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// finish commits the trace to the tracer's rings; called by the root
// span's End.
func (t *T) finish(root Span) {
	t.mu.Lock()
	spans := t.spans
	t.spans = nil
	t.mu.Unlock()
	rec := &Rec{
		TraceID:  t.id,
		Root:     root.Name,
		Start:    root.Start,
		Duration: root.Duration,
		Spans:    spans,
	}
	tr := t.tr
	tr.mu.Lock()
	tr.recent, tr.rpos = push(tr.recent, tr.rpos, RecentCap, rec)
	if root.Duration >= tr.slow {
		tr.slowR, tr.spos = push(tr.slowR, tr.spos, SlowCap, rec)
	}
	tr.mu.Unlock()
}

// push appends into a fixed-capacity ring, overwriting oldest-first.
func push(ring []*Rec, pos, cap int, rec *Rec) ([]*Rec, int) {
	if len(ring) < cap {
		return append(ring, rec), pos
	}
	ring[pos] = rec
	return ring, (pos + 1) % cap
}

// S is one in-flight span.
type S struct {
	t    *T
	root bool
	span Span
}

// ID returns the span id (0 on a nil span) — the value a downstream
// process receives as its remote parent.
func (s *S) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.span.SpanID
}

// Attr annotates the span (call before End).
func (s *S) Attr(key, val string) {
	if s == nil {
		return
	}
	s.span.Attrs = append(s.span.Attrs, Attr{Key: key, Val: val})
}

// End stamps the span's duration and records it. Ending the root span
// finishes the whole trace into the tracer's rings.
func (s *S) End() {
	if s == nil {
		return
	}
	s.span.Duration = time.Since(s.span.Start)
	t := s.t
	t.mu.Lock()
	t.spans = append(t.spans, s.span)
	t.mu.Unlock()
	if s.root {
		t.finish(s.span)
	}
}

// Recent returns the recent-trace ring, newest first.
func (tr *Tracer) Recent() []*Rec {
	return tr.dump(false)
}

// SlowTraces returns the slow-trace ring, newest first.
func (tr *Tracer) SlowTraces() []*Rec {
	return tr.dump(true)
}

func (tr *Tracer) dump(slow bool) []*Rec {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ring, pos := tr.recent, tr.rpos
	if slow {
		ring, pos = tr.slowR, tr.spos
	}
	out := make([]*Rec, 0, len(ring))
	// pos is the oldest slot once the ring is full; walk backwards from
	// the newest.
	for i := len(ring) - 1; i >= 0; i-- {
		out = append(out, ring[(pos+i)%len(ring)])
	}
	return out
}

// ByID returns the finished trace with the given id, searching the
// recent ring then the slow ring (nil when not found — displaced or
// never recorded here).
func (tr *Tracer) ByID(id uint64) *Rec {
	if tr == nil || id == 0 {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, ring := range [2][]*Rec{tr.recent, tr.slowR} {
		for _, r := range ring {
			if r != nil && r.TraceID == id {
				return r
			}
		}
	}
	return nil
}
