package client

import (
	"context"
	"fmt"

	"instantdb/internal/trace"
	"instantdb/internal/value"
	"instantdb/internal/wire"
)

// Trace-dump modes, re-exported for TraceDump callers.
const (
	// TraceByID fetches the one trace with the given id.
	TraceByID = wire.TraceByID
	// TraceRecent fetches the server's recent-trace ring, newest first.
	TraceRecent = wire.TraceRecent
	// TraceSlow fetches the server's slow-trace ring, newest first.
	TraceSlow = wire.TraceSlow
)

// ExecTraced runs one statement under a forced server-side trace —
// recorded regardless of the server's sampling rate — and returns the
// trace id alongside the result. The id is allocated client-side, so
// it is valid even when the statement itself fails; pass it to
// TraceDump to fetch the span tree once the server has finished it.
func (c *Conn) ExecTraced(ctx context.Context, sql string, args ...value.Value) (*Result, uint64, error) {
	id := trace.NewID()
	res, err := c.ExecTracedAs(ctx, id, 0, sql, args...)
	return res, id, err
}

// ExecTracedAs is ExecTraced with an explicit trace identity: the
// statement's server-side root span joins traceID under parentSpanID,
// so a caller's own spans and the server's stitch into one tree. A
// traceID of 0 forces nothing: the server's sampling decides, as for
// Exec.
func (c *Conn) ExecTracedAs(ctx context.Context, traceID, parentSpanID uint64, sql string, args ...value.Value) (*Result, error) {
	return c.ExecFrame(ctx, wire.Exec{TraceID: traceID, ParentSpanID: parentSpanID, SQL: sql, Args: args})
}

// TraceDump fetches finished traces from the server's in-memory rings:
// mode TraceByID with a trace id (zero or one results), or TraceRecent
// / TraceSlow with id 0 (newest first). Traces are bounded rings —
// a trace displaced by later traffic is gone.
func (c *Conn) TraceDump(ctx context.Context, mode byte, id uint64) ([]*trace.Rec, error) {
	op, payload, err := c.roundTripLocked(ctx, wire.OpTraceDump, wire.EncodeTraceDump(mode, id))
	if err != nil {
		return nil, err
	}
	if op != wire.OpTraceData {
		return nil, fmt.Errorf("client: unexpected trace-dump reply opcode %#x", op)
	}
	return wire.DecodeTraceRecs(payload)
}

// AuditTail fetches the newest n degradation audit events from the
// server's in-memory tail (n <= 0 fetches everything retained),
// oldest first, including events still in the trail's open block. The
// on-disk chain links blocks, not events; verify it with trace.Verify
// (degradectl audit -chain) where the directory is at hand.
func (c *Conn) AuditTail(ctx context.Context, n int) ([]trace.Event, error) {
	if n < 0 {
		n = 0
	}
	op, payload, err := c.roundTripLocked(ctx, wire.OpAuditTail, wire.EncodeAuditTail(uint64(n)))
	if err != nil {
		return nil, err
	}
	if op != wire.OpAuditData {
		return nil, fmt.Errorf("client: unexpected audit-tail reply opcode %#x", op)
	}
	return wire.DecodeAuditEvents(payload)
}
