package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"instantdb/client"
	"instantdb/internal/metrics"
	"instantdb/internal/query"
	"instantdb/internal/server"
	"instantdb/internal/trace"
	"instantdb/internal/value"
	"instantdb/internal/wire"
)

// Options tunes a Router.
type Options struct {
	// MaxConns caps concurrently served client sessions (0 = unlimited).
	MaxConns int
	// MaxFrame bounds request payloads on both sides (default
	// wire.MaxFrameDefault).
	MaxFrame int
	// DialTimeout bounds each downstream shard dial (default 5s).
	DialTimeout time.Duration
	// RequestTimeout bounds each downstream request, so a partitioned
	// shard fails a scatter fast instead of hanging the client session
	// (default 30s).
	RequestTimeout time.Duration
	// TablePath, when set, is where Flip persists the routing table.
	TablePath string
	// TraceSample controls local router-side tracing: 0 records only
	// traces clients force (a trace id in their OpExec frame), 1 every
	// request, n one in n.
	// Traced statements propagate their context to every shard they
	// touch, so the shards' spans stitch under the router's.
	TraceSample int
	// SlowTrace is the tracer's slow-ring threshold (0 = trace.DefaultSlow).
	SlowTrace time.Duration
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// Router serves the internal/wire protocol to clients and speaks it to
// every shard: single-key statements forward to the owning shard, scans
// scatter and merge, DDL broadcasts. The router is deliberately a
// separate process front end rather than client-side routing: clients
// stay topology-unaware (degradectl, workloads and SQL drivers point at
// one address), and the fail-loud routing-version handshake
// (OpShardCheck) runs between two long-lived parties that can both
// persist what they have seen. The router holds no state a restart
// cannot rebuild from the routing table and the shards themselves.
type Router struct {
	*server.Front // Serve, Addr and Close
	opts          Options
	schema        *Schema
	reg           *metrics.Registry
	met           routerMetrics
	tracer        *trace.Tracer

	tableMu sync.RWMutex
	table   *Table

	// pauseMu freezes routing during a split cutover: every request
	// holds it shared, Pause takes it exclusively.
	pauseMu sync.RWMutex

	// Stats-rollup state (see stats.go): per-shard reachability and the
	// max lag observed at the last rollup, read back by gauge callbacks.
	statsMu sync.Mutex
	shardUp map[string]float64
	maxLag  float64
}

type routerMetrics struct {
	scatters  *metrics.Counter
	broadcast *metrics.Counter
}

// New validates the routing table against every shard (each must accept
// the table's version via OpShardCheck — a shard that has served a newer
// table fails the start, loud) and mirrors the schema from the first
// shard. Every shard must be reachable at start; partitions after start
// degrade only the routes that need the missing shard.
func New(ctx context.Context, t *Table, opts Options) (*Router, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = wire.MaxFrameDefault
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 30 * time.Second
	}
	r := &Router{opts: opts, table: t.Clone(), schema: NewSchema(),
		reg: metrics.NewRegistry(), tracer: trace.New("router", opts.TraceSample, opts.SlowTrace)}
	metrics.InstrumentBuildInfo(r.reg)
	r.Front = server.NewFront("router", r.reg, opts.MaxConns, opts.MaxFrame, opts.Logf, r.admit)
	r.met = routerMetrics{
		scatters: r.reg.Counter("instantdb_router_scatter_total",
			"SELECTs fanned out to every shard and merged."),
		broadcast: r.reg.Counter("instantdb_router_broadcast_total",
			"Writes/DDL fanned out to every shard."),
	}
	r.reg.GaugeFunc("instantdb_router_shards",
		"Shards in the active routing table.", func() float64 {
			return float64(len(r.currentTable().Shards))
		})
	r.reg.GaugeFunc("instantdb_router_table_version",
		"Active routing-table version.", func() float64 {
			return float64(r.currentTable().Version)
		})
	r.registerStatsGauges()
	for i := range t.Shards {
		if err := r.checkShard(ctx, t, i); err != nil {
			return nil, err
		}
	}
	script, err := r.fetchSchema(ctx, t)
	if err != nil {
		return nil, err
	}
	if err := r.schema.ApplyScript(script); err != nil {
		return nil, err
	}
	return r, nil
}

// checkShard pins the table version on shard i (fresh connection).
func (r *Router) checkShard(ctx context.Context, t *Table, i int) error {
	ctx, cancel := context.WithTimeout(ctx, r.opts.DialTimeout)
	defer cancel()
	c, err := client.Dial(ctx, t.Shards[i].Addr, client.WithMaxFrame(r.opts.MaxFrame))
	if err != nil {
		return fmt.Errorf("shard: %s (%s): %w", t.Shards[i].Name, t.Shards[i].Addr, err)
	}
	defer c.Close()
	if _, err := c.ShardCheck(ctx, t.Version); err != nil {
		return fmt.Errorf("shard: %s refused table v%d: %w", t.Shards[i].Name, t.Version, err)
	}
	return nil
}

// fetchSchema mirrors the catalog script from the first reachable shard.
func (r *Router) fetchSchema(ctx context.Context, t *Table) (string, error) {
	var lastErr error
	for _, info := range t.Shards {
		cctx, cancel := context.WithTimeout(ctx, r.opts.DialTimeout)
		c, err := client.Dial(cctx, info.Addr, client.WithMaxFrame(r.opts.MaxFrame))
		if err != nil {
			cancel()
			lastErr = err
			continue
		}
		script, err := c.Schema(cctx)
		c.Close()
		cancel()
		if err != nil {
			lastErr = err
			continue
		}
		return script, nil
	}
	return "", fmt.Errorf("shard: no shard answered the schema request: %w", lastErr)
}

// Metrics exposes the router's own registry (stats rollups add the
// per-shard aggregation on top; see MergedStats).
func (r *Router) Metrics() *metrics.Registry { return r.reg }

// Schema exposes the router's schema mirror.
func (r *Router) Schema() *Schema { return r.schema }

// Tracer exposes the router's request tracer (for /debug/traces).
func (r *Router) Tracer() *trace.Tracer { return r.tracer }

// currentTable returns the active routing table (shared reference; the
// table is immutable).
func (r *Router) currentTable() *Table {
	r.tableMu.RLock()
	defer r.tableMu.RUnlock()
	return r.table
}

// Table returns a copy of the active routing table.
func (r *Router) Table() *Table { return r.currentTable().Clone() }

// Pause blocks until in-flight requests drain and freezes routing —
// the cutover window of an online split. Resume unfreezes.
func (r *Router) Pause() { r.pauseMu.Lock() }

// Resume ends a Pause.
func (r *Router) Resume() { r.pauseMu.Unlock() }

// Flip activates the next routing-table version: shards may only be
// appended (existing indexes keep their meaning for live sessions), the
// version must grow, and every shard of the new table must accept it
// via OpShardCheck before the swap — after which the shards' persisted
// versions fence out any router still holding the old table. Call
// between Pause and Resume when the flip moves data (an online split);
// the swap itself is atomic either way. When Options.TablePath is set
// the new table is persisted before activation.
func (r *Router) Flip(ctx context.Context, next *Table) error {
	if err := next.Validate(); err != nil {
		return err
	}
	cur := r.currentTable()
	if next.Version <= cur.Version {
		return fmt.Errorf("shard: flip to v%d but v%d is active", next.Version, cur.Version)
	}
	if next.Slots != cur.Slots {
		return fmt.Errorf("shard: flip changes slot count %d → %d", cur.Slots, next.Slots)
	}
	if len(next.Shards) < len(cur.Shards) {
		return fmt.Errorf("shard: flip removes shards (%d → %d)", len(cur.Shards), len(next.Shards))
	}
	for i, s := range cur.Shards {
		if next.Shards[i] != s {
			return fmt.Errorf("shard: flip reorders shard %d (%s → %s); shards are append-only", i, s.Name, next.Shards[i].Name)
		}
	}
	for i := range next.Shards {
		if err := r.checkShard(ctx, next, i); err != nil {
			return err
		}
	}
	if r.opts.TablePath != "" {
		if err := next.Save(r.opts.TablePath); err != nil {
			return err
		}
	}
	r.tableMu.Lock()
	r.table = next.Clone()
	r.tableMu.Unlock()
	return nil
}

func (r *Router) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// rsession is one client session's router-side state: the session
// purpose/coarse flags and one lazily dialed downstream session per
// shard, each carrying the same purpose — purpose enforcement runs at
// every shard, never at the router.
type rsession struct {
	r       *Router
	purpose string
	coarse  bool
	conns   map[int]*client.Conn
}

// conn returns the downstream session for shard idx, dialing (and
// pinning the routing-table version via OpShardCheck) on first use.
func (ss *rsession) conn(ctx context.Context, t *Table, idx int) (*client.Conn, error) {
	if c, ok := ss.conns[idx]; ok && !c.Closed() {
		return c, nil
	}
	delete(ss.conns, idx)
	info := t.Shards[idx]
	dctx, cancel := context.WithTimeout(ctx, ss.r.opts.DialTimeout)
	defer cancel()
	opts := []client.Option{client.WithMaxFrame(ss.r.opts.MaxFrame)}
	if ss.purpose != "" {
		opts = append(opts, client.WithPurpose(ss.purpose))
	}
	if ss.coarse {
		opts = append(opts, client.WithCoarse())
	}
	c, err := client.Dial(dctx, info.Addr, opts...)
	if err != nil {
		return nil, fmt.Errorf("shard %s (%s) unreachable: %w", info.Name, info.Addr, err)
	}
	if _, err := c.ShardCheck(dctx, t.Version); err != nil {
		c.Close()
		return nil, fmt.Errorf("shard %s refused table v%d: %w", info.Name, t.Version, err)
	}
	ss.conns[idx] = c
	return c, nil
}

// Serve answers one request frame (server.Session).
func (ss *rsession) Serve(p *server.Peer, op byte, payload []byte) bool {
	return ss.r.serveRequest(p, ss, op, payload)
}

// Close ends every downstream session.
func (ss *rsession) Close() {
	for _, c := range ss.conns {
		c.Close()
	}
}

// admit opens a client session, refusing a purpose the schema mirror
// does not know as a server refuses one its catalog does not. Every
// downstream dial carries the purpose, so each shard enforces it too.
func (r *Router) admit(p *server.Peer, h wire.Hello) (server.Session, error) {
	if h.Purpose != "" && !r.schema.hasPurpose(h.Purpose) {
		err := unknownPurpose(h.Purpose)
		p.Fail(wire.CodeUnknownPurpose, err.Error())
		return nil, err
	}
	return &rsession{r: r, purpose: h.Purpose, coarse: h.Coarse, conns: make(map[int]*client.Conn)}, nil
}

// unknownPurpose is the refusal of a purpose the schema mirror does not
// know.
func unknownPurpose(name string) error {
	return fmt.Errorf("router: unknown purpose: %s", name)
}

// serveRequest dispatches one request. Returns false to end the session.
func (r *Router) serveRequest(p *server.Peer, ss *rsession, op byte, payload []byte) bool {
	switch op {
	case wire.OpPing:
		return p.WriteFrame(wire.OpPong, nil) == nil
	case wire.OpStats:
		ctx, cancel := context.WithTimeout(context.Background(), r.opts.RequestTimeout)
		defer cancel()
		stats := r.MergedStats(ctx)
		return p.WriteFrame(wire.OpStatsReply, wire.EncodeStats(stats)) == nil
	case wire.OpSchema:
		return p.WriteFrame(wire.OpSchemaReply, []byte(r.schema.Script())) == nil
	case wire.OpExec:
		e, err := wire.DecodeExec(payload)
		if err != nil {
			p.Fail(wire.CodeProtocol, err.Error())
			return false
		}
		return r.execSQL(p, ss, e)
	case wire.OpBackup, wire.OpKeyExport:
		return p.SendErr(wire.CodeSQL, errors.New(
			"router: back up each shard directly (epoch keys and WALs are per-shard)"))
	case wire.OpTraceDump:
		mode, id, err := wire.DecodeTraceDump(payload)
		if err != nil {
			p.Fail(wire.CodeProtocol, err.Error())
			return false
		}
		return r.serveTraceDump(p, ss, mode, id)
	case wire.OpAuditTail:
		n, err := wire.DecodeAuditTail(payload)
		if err != nil {
			p.Fail(wire.CodeProtocol, err.Error())
			return false
		}
		return r.serveAuditTail(p, ss, n)
	default:
		p.Fail(wire.CodeProtocol, fmt.Sprintf("router: unknown opcode %#x", op))
		return false
	}
}

// setPurpose switches the session purpose and propagates it to every
// already-open downstream session (future dials carry it at handshake).
func (r *Router) setPurpose(p *server.Peer, ss *rsession, name string) bool {
	if !r.schema.hasPurpose(name) {
		return p.SendErr(wire.CodeUnknownPurpose, unknownPurpose(name))
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.RequestTimeout)
	defer cancel()
	for idx, c := range ss.conns {
		if err := c.SetPurpose(ctx, name); err != nil {
			return r.forwardErr(p, ss, idx, err)
		}
	}
	ss.purpose = name
	return p.SendResult(&wire.Result{})
}

// rollbackAll rolls back on every open downstream session; like the
// single-node server, rollback is idempotent.
func (r *Router) rollbackAll(p *server.Peer, ss *rsession) bool {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.RequestTimeout)
	defer cancel()
	for idx, c := range ss.conns {
		if err := c.Rollback(ctx); err != nil {
			return r.forwardErr(p, ss, idx, err)
		}
	}
	return p.SendResult(&wire.Result{})
}

// execSQL parses, plans and executes one statement. The original SQL
// (and arguments) forward verbatim to the target shards — the router
// only picks recipients and merges results; an aggregated scatter goes
// out flagged, and each shard answers it in its partial form. A trace id
// in the frame forces a trace rooted under the caller's span; otherwise
// local sampling decides. Under a trace, routing work records spans
// under the root, and every downstream statement carries the trace id
// so the shards' server-side spans join the same tree.
func (r *Router) execSQL(p *server.Peer, ss *rsession, e wire.Exec) bool {
	sql, args := e.SQL, e.Args
	var tt *trace.T
	var root *trace.S
	if e.TraceID != 0 {
		tt, root = r.tracer.StartRemote(e.TraceID, e.ParentSpanID, "route_exec")
	} else {
		tt, root = r.tracer.Start("exec")
	}
	if root != nil {
		root.Attr("sql", sql)
		defer root.End()
	}
	if e.Partial {
		// A partial form is what a shard answers the router; merged
		// rows are not one.
		return p.SendErr(wire.CodeSQL, refuse("the partial form of a statement is answered by a shard, not through the router"))
	}
	psp := tt.Span(root, "plan")
	st, err := parseForRouting(sql, args)
	if err != nil {
		psp.End()
		return p.SendErr(wire.CodeSQL, err)
	}
	r.pauseMu.RLock()
	defer r.pauseMu.RUnlock()
	t := r.currentTable()
	pl, err := planStatement(t, r.schema, st)
	psp.End()
	if err != nil {
		return p.SendErr(wire.CodeSQL, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.RequestTimeout)
	defer cancel()

	switch pl.act {
	case actSingle:
		c, err := ss.conn(ctx, t, pl.shard)
		if err != nil {
			return r.forwardErr(p, ss, pl.shard, err)
		}
		res, err := r.shardExec(ctx, c, tt, root, t.Shards[pl.shard].Name, e)
		if err != nil {
			return r.forwardErr(p, ss, pl.shard, err)
		}
		return p.SendResult(wireResult(res))
	case actScatter:
		r.met.scatters.Inc()
		e.Partial = pl.shape.Aggregated()
		return r.scatter(ctx, p, ss, t, pl, e, tt, root)
	case actBroadcast:
		r.met.broadcast.Inc()
		affected := 0
		for idx := range t.Shards {
			c, err := ss.conn(ctx, t, idx)
			if err != nil {
				return r.forwardErr(p, ss, idx, err)
			}
			res, err := r.shardExec(ctx, c, tt, root, t.Shards[idx].Name, e)
			if err != nil {
				return r.forwardErr(p, ss, idx, err)
			}
			affected += res.RowsAffected
		}
		if pl.ddl {
			r.schema.ApplyStmt(st, sql)
		}
		return p.SendResult(&wire.Result{RowsAffected: uint64(affected)})
	case actSetPurpose:
		return r.setPurpose(p, ss, pl.name)
	case actRollback:
		return r.rollbackAll(p, ss)
	}
	return p.SendErr(wire.CodeSQL, fmt.Errorf("router: unhandled plan action %d", pl.act))
}

// shardExec forwards one statement frame to a shard. Under a trace,
// the frame carries the trace id and a fresh client-side span as the
// shard's remote parent, so the shard's root hangs under it in the
// stitched tree and the span itself shows the round-trip cost.
func (r *Router) shardExec(ctx context.Context, c *client.Conn, tt *trace.T, parent *trace.S, shard string, e wire.Exec) (*client.Result, error) {
	sp := tt.Span(parent, "shard_exec")
	if sp != nil {
		sp.Attr("shard", shard)
		e.TraceID, e.ParentSpanID = tt.ID(), sp.ID()
	}
	res, err := c.ExecFrame(ctx, e)
	sp.End()
	return res, err
}

// scatter fans a SELECT out to every shard concurrently and merges.
// A shard that cannot answer fails the query fast (with the shard named)
// rather than silently returning partial data — but only this query:
// routes that avoid the dead shard keep working. Each shard answers an
// aggregated statement (e.Partial set) in its partial form, a plain
// scan as itself.
func (r *Router) scatter(ctx context.Context, p *server.Peer, ss *rsession, t *Table, pl *plan, e wire.Exec, tt *trace.T, root *trace.S) bool {
	conns := make([]*client.Conn, len(t.Shards))
	for idx := range t.Shards {
		c, err := ss.conn(ctx, t, idx)
		if err != nil {
			return r.forwardErr(p, ss, idx, err)
		}
		conns[idx] = c
	}
	parts := make([]*wire.Rows, len(conns))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for idx, c := range conns {
		wg.Add(1)
		go func(idx int, c *client.Conn) {
			defer wg.Done()
			res, err := r.shardExec(ctx, c, tt, root, t.Shards[idx].Name, e)
			if err != nil {
				errs[idx] = err
				return
			}
			rows := res.Rows
			if rows == nil {
				rows = &client.Rows{}
			}
			parts[idx] = &wire.Rows{Columns: rows.Columns, Data: rows.Data}
		}(idx, c)
	}
	wg.Wait()
	for idx, err := range errs {
		if err != nil {
			return r.forwardErr(p, ss, idx, fmt.Errorf("shard %s: %w", t.Shards[idx].Name, err))
		}
	}
	msp := tt.Span(root, "merge")
	merged, err := mergeParts(pl.shape, parts)
	msp.End()
	if err != nil {
		return p.SendErr(wire.CodeSQL, err)
	}
	return p.SendResult(&wire.Result{RowsAffected: uint64(len(merged.Data)), Rows: merged})
}

// forwardErr relays a downstream failure to the client, a statement's
// or a refused dial's. Wire errors keep their code (purpose denials,
// read-only refusals and SQL errors arrive exactly as a direct
// connection would see them); transport failures
// surface as CodeSQL with the shard named, and the dead downstream
// session is dropped so the next statement redials.
func (r *Router) forwardErr(p *server.Peer, ss *rsession, idx int, err error) bool {
	var werr *wire.Error
	if errors.As(err, &werr) && !werr.Fatal() {
		return p.SendErr(werr.Code, werr)
	}
	if c, ok := ss.conns[idx]; ok && c.Closed() {
		delete(ss.conns, idx)
	}
	return p.SendErr(wire.CodeSQL, err)
}

// parseForRouting parses one statement, binding arguments to
// placeholders so the primary key is visible to the planner.
func parseForRouting(sql string, args []value.Value) (query.Statement, error) {
	if len(args) == 0 {
		return query.Parse(sql)
	}
	st, n, err := query.ParseWithParams(sql)
	if err != nil {
		return nil, err
	}
	return query.BindKnown(st, args, n)
}

// wireResult renders a shard's result for the client.
func wireResult(res *client.Result) *wire.Result {
	w := &wire.Result{RowsAffected: uint64(res.RowsAffected), LastInsertID: res.LastInsertID}
	if res.Rows != nil {
		w.Rows = &wire.Rows{Columns: res.Rows.Columns, Data: res.Rows.Data}
	}
	return w
}
