package shard

import (
	"context"
	"fmt"
	"sort"

	"instantdb/internal/server"
	"instantdb/internal/trace"
	"instantdb/internal/wire"
)

// serveTraceDump answers OpTraceDump. Ring modes (recent, slow) read
// the router's own rings — per-process views, exactly like asking one
// shard. TraceByID instead stitches: the router's record plus a by-id
// dump from every shard merge into one record whose spans link up via
// the remote parent ids planted at scatter time. A shard that cannot
// answer is skipped (logged) — a partial tree of a diagnostic dump
// beats no tree; the audit path below makes the opposite choice.
func (r *Router) serveTraceDump(p *server.Peer, ss *rsession, mode byte, id uint64) bool {
	switch mode {
	case wire.TraceRecent:
		return r.sendTraceData(p, r.tracer.Recent())
	case wire.TraceSlow:
		return r.sendTraceData(p, r.tracer.SlowTraces())
	}
	var rec *trace.Rec
	if lr := r.tracer.ByID(id); lr != nil {
		cp := *lr
		cp.Spans = append([]trace.Span(nil), lr.Spans...)
		rec = &cp
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.RequestTimeout)
	defer cancel()
	t := r.currentTable()
	for idx := range t.Shards {
		c, err := ss.conn(ctx, t, idx)
		if err != nil {
			r.logf("trace dump: shard %s skipped: %v", t.Shards[idx].Name, err)
			continue
		}
		recs, err := c.TraceDump(ctx, wire.TraceByID, id)
		if err != nil {
			r.logf("trace dump: shard %s skipped: %v", t.Shards[idx].Name, err)
			continue
		}
		for _, sr := range recs {
			if rec == nil {
				cp := *sr
				rec = &cp
			} else {
				rec.Spans = append(rec.Spans, sr.Spans...)
			}
		}
	}
	var out []*trace.Rec
	if rec != nil {
		out = []*trace.Rec{rec}
	}
	return r.sendTraceData(p, out)
}

func (r *Router) sendTraceData(p *server.Peer, recs []*trace.Rec) bool {
	return p.WriteFrame(wire.OpTraceData, wire.EncodeTraceRecs(recs)) == nil
}

// serveAuditTail merges the audit tails of every shard, ordered by
// event time (sequence numbers are per-shard and would collide). An
// unreachable shard fails the request: an audit answer that silently
// omits a shard's degradation evidence would be worse than no answer.
func (r *Router) serveAuditTail(p *server.Peer, ss *rsession, n uint64) bool {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.RequestTimeout)
	defer cancel()
	t := r.currentTable()
	var all []trace.Event
	for idx := range t.Shards {
		c, err := ss.conn(ctx, t, idx)
		if err != nil {
			return r.forwardErr(p, ss, idx, err)
		}
		evs, err := c.AuditTail(ctx, int(n))
		if err != nil {
			return r.forwardErr(p, ss, idx, fmt.Errorf("shard %s: %w", t.Shards[idx].Name, err))
		}
		all = append(all, evs...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].UnixNano < all[j].UnixNano })
	if n > 0 && uint64(len(all)) > n {
		all = all[uint64(len(all))-n:]
	}
	return p.WriteFrame(wire.OpAuditData, wire.EncodeAuditEvents(all)) == nil
}
