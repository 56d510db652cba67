// Tracing and audit-trail opcodes. These live alongside the core
// protocol in wire.go. A statement's trace context rides in its OpExec
// frame (Exec.TraceID, Exec.ParentSpanID); these opcodes read finished
// traces and the audit tail back.

package wire

import (
	"encoding/binary"
	"fmt"
	"time"

	"instantdb/internal/trace"
)

// Tracing/audit request opcodes (client → server).
const (
	// OpTraceDump requests finished traces from the server's rings
	// (EncodeTraceDump payload: by id, recent, or slow). The server
	// answers OpTraceData. The router additionally scatters a by-id
	// dump to every shard and merges the spans into one tree.
	OpTraceDump byte = 0x15
	// OpAuditTail requests the newest n degradation audit events
	// (EncodeAuditTail payload); the server answers OpAuditData.
	OpAuditTail byte = 0x16
)

// Tracing/audit response opcodes (server → client).
const (
	// OpTraceData answers OpTraceDump (EncodeTraceRecs payload).
	OpTraceData byte = 0x95
	// OpAuditData answers OpAuditTail (EncodeAuditEvents payload).
	OpAuditData byte = 0x96
)

// TraceDump modes.
const (
	// TraceByID requests the one trace with the given id.
	TraceByID byte = 0
	// TraceRecent requests the recent-trace ring, newest first.
	TraceRecent byte = 1
	// TraceSlow requests the slow-trace ring, newest first.
	TraceSlow byte = 2
)

// EncodeTraceDump serializes an OpTraceDump payload: the mode byte and,
// for TraceByID, the trace id.
func EncodeTraceDump(mode byte, id uint64) []byte {
	b := []byte{mode}
	return binary.AppendUvarint(b, id)
}

// DecodeTraceDump parses an OpTraceDump payload.
func DecodeTraceDump(p []byte) (mode byte, id uint64, err error) {
	if len(p) < 1 {
		return 0, 0, fmt.Errorf("wire: short trace-dump")
	}
	mode = p[0]
	if mode > TraceSlow {
		return 0, 0, fmt.Errorf("wire: trace-dump mode %d", mode)
	}
	id, n := binary.Uvarint(p[1:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("wire: trace-dump id")
	}
	if 1+n != len(p) {
		return 0, 0, fmt.Errorf("wire: trace-dump has %d trailing bytes", len(p)-1-n)
	}
	return mode, id, nil
}

// EncodeTraceRecs serializes an OpTraceData payload: a uvarint trace
// count, then per trace the id, root name, start (UnixNano), duration,
// and span list. Span Start also crosses as UnixNano — wall clocks, so
// cross-process ordering in a stitched tree is only as aligned as the
// hosts' clocks (per-process durations are exact).
func EncodeTraceRecs(recs []*trace.Rec) []byte {
	b := binary.AppendUvarint(nil, uint64(len(recs)))
	for _, r := range recs {
		b = binary.AppendUvarint(b, r.TraceID)
		b = appendString(b, r.Root)
		b = binary.AppendUvarint(b, uint64(r.Start.UnixNano()))
		b = binary.AppendUvarint(b, uint64(r.Duration))
		b = binary.AppendUvarint(b, uint64(len(r.Spans)))
		for _, sp := range r.Spans {
			b = binary.AppendUvarint(b, sp.SpanID)
			b = binary.AppendUvarint(b, sp.ParentID)
			b = appendString(b, sp.Name)
			b = appendString(b, sp.Service)
			b = binary.AppendUvarint(b, uint64(sp.Start.UnixNano()))
			b = binary.AppendUvarint(b, uint64(sp.Duration))
			b = binary.AppendUvarint(b, uint64(len(sp.Attrs)))
			for _, a := range sp.Attrs {
				b = appendString(b, a.Key)
				b = appendString(b, a.Val)
			}
		}
	}
	return b
}

// DecodeTraceRecs parses an OpTraceData payload.
func DecodeTraceRecs(p []byte) ([]*trace.Rec, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, fmt.Errorf("wire: trace-data count")
	}
	p = p[n:]
	if count > uint64(len(p)) {
		return nil, fmt.Errorf("wire: trace-data claims %d traces in %d bytes", count, len(p))
	}
	recs := make([]*trace.Rec, 0, count)
	for i := uint64(0); i < count; i++ {
		r := &trace.Rec{}
		var err error
		if r.TraceID, p, err = readUvarint(p, "trace id"); err != nil {
			return nil, err
		}
		var used int
		if r.Root, used, err = readString(p); err != nil {
			return nil, fmt.Errorf("wire: trace-data root: %w", err)
		}
		p = p[used:]
		var u uint64
		if u, p, err = readUvarint(p, "trace start"); err != nil {
			return nil, err
		}
		r.Start = time.Unix(0, int64(u))
		if u, p, err = readUvarint(p, "trace duration"); err != nil {
			return nil, err
		}
		r.Duration = time.Duration(u)
		var nspans uint64
		if nspans, p, err = readUvarint(p, "span count"); err != nil {
			return nil, err
		}
		if nspans > uint64(len(p)) {
			return nil, fmt.Errorf("wire: trace-data claims %d spans in %d bytes", nspans, len(p))
		}
		r.Spans = make([]trace.Span, 0, nspans)
		for j := uint64(0); j < nspans; j++ {
			sp := trace.Span{TraceID: r.TraceID}
			if sp.SpanID, p, err = readUvarint(p, "span id"); err != nil {
				return nil, err
			}
			if sp.ParentID, p, err = readUvarint(p, "span parent"); err != nil {
				return nil, err
			}
			if sp.Name, used, err = readString(p); err != nil {
				return nil, fmt.Errorf("wire: span name: %w", err)
			}
			p = p[used:]
			if sp.Service, used, err = readString(p); err != nil {
				return nil, fmt.Errorf("wire: span service: %w", err)
			}
			p = p[used:]
			if u, p, err = readUvarint(p, "span start"); err != nil {
				return nil, err
			}
			sp.Start = time.Unix(0, int64(u))
			if u, p, err = readUvarint(p, "span duration"); err != nil {
				return nil, err
			}
			sp.Duration = time.Duration(u)
			var nattrs uint64
			if nattrs, p, err = readUvarint(p, "attr count"); err != nil {
				return nil, err
			}
			if nattrs > uint64(len(p)) {
				return nil, fmt.Errorf("wire: span claims %d attrs in %d bytes", nattrs, len(p))
			}
			for k := uint64(0); k < nattrs; k++ {
				var a trace.Attr
				if a.Key, used, err = readString(p); err != nil {
					return nil, fmt.Errorf("wire: attr key: %w", err)
				}
				p = p[used:]
				if a.Val, used, err = readString(p); err != nil {
					return nil, fmt.Errorf("wire: attr value: %w", err)
				}
				p = p[used:]
				sp.Attrs = append(sp.Attrs, a)
			}
			r.Spans = append(r.Spans, sp)
		}
		recs = append(recs, r)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("wire: trace-data has %d trailing bytes", len(p))
	}
	return recs, nil
}

// EncodeAuditTail serializes an OpAuditTail payload: the newest-event
// count requested (0 = everything retained in memory).
func EncodeAuditTail(n uint64) []byte {
	return binary.AppendUvarint(nil, n)
}

// DecodeAuditTail parses an OpAuditTail payload.
func DecodeAuditTail(p []byte) (uint64, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, fmt.Errorf("wire: audit-tail count")
	}
	if n != len(p) {
		return 0, fmt.Errorf("wire: audit-tail has %d trailing bytes", len(p)-n)
	}
	return v, nil
}

// EncodeAuditEvents serializes an OpAuditData payload: a uvarint count
// then each event's fields. The hash chain links blocks on disk, not
// events, so no chain value travels with them.
func EncodeAuditEvents(evs []trace.Event) []byte {
	b := binary.AppendUvarint(nil, uint64(len(evs)))
	for i := range evs {
		ev := &evs[i]
		b = binary.AppendUvarint(b, ev.Seq)
		b = append(b, byte(ev.Kind))
		b = binary.AppendUvarint(b, uint64(ev.UnixNano))
		b = appendString(b, ev.Table)
		b = binary.AppendUvarint(b, ev.Tuple)
		b = appendString(b, ev.Attr)
		b = binary.AppendUvarint(b, uint64(ev.Deadline))
		b = binary.AppendUvarint(b, uint64(ev.Actual))
		b = appendString(b, ev.Detail)
	}
	return b
}

// DecodeAuditEvents parses an OpAuditData payload.
func DecodeAuditEvents(p []byte) ([]trace.Event, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, fmt.Errorf("wire: audit-data count")
	}
	p = p[n:]
	if count > uint64(len(p)) {
		return nil, fmt.Errorf("wire: audit-data claims %d events in %d bytes", count, len(p))
	}
	evs := make([]trace.Event, 0, count)
	for i := uint64(0); i < count; i++ {
		var ev trace.Event
		var err error
		var u uint64
		if ev.Seq, p, err = readUvarint(p, "audit seq"); err != nil {
			return nil, err
		}
		if len(p) < 1 {
			return nil, fmt.Errorf("wire: audit-data kind truncated")
		}
		ev.Kind = trace.Kind(p[0])
		p = p[1:]
		if u, p, err = readUvarint(p, "audit time"); err != nil {
			return nil, err
		}
		ev.UnixNano = int64(u)
		var used int
		if ev.Table, used, err = readString(p); err != nil {
			return nil, fmt.Errorf("wire: audit table: %w", err)
		}
		p = p[used:]
		if ev.Tuple, p, err = readUvarint(p, "audit tuple"); err != nil {
			return nil, err
		}
		if ev.Attr, used, err = readString(p); err != nil {
			return nil, fmt.Errorf("wire: audit attr: %w", err)
		}
		p = p[used:]
		if u, p, err = readUvarint(p, "audit deadline"); err != nil {
			return nil, err
		}
		ev.Deadline = int64(u)
		if u, p, err = readUvarint(p, "audit actual"); err != nil {
			return nil, err
		}
		ev.Actual = int64(u)
		if ev.Detail, used, err = readString(p); err != nil {
			return nil, fmt.Errorf("wire: audit detail: %w", err)
		}
		p = p[used:]
		evs = append(evs, ev)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("wire: audit-data has %d trailing bytes", len(p))
	}
	return evs, nil
}

// readUvarint consumes one uvarint, naming the field on failure.
func readUvarint(p []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wire: %s", what)
	}
	return v, p[n:], nil
}
