// Package client is the pure-Go client for an InstantDB network server
// (internal/server, started by cmd/instantdb-server). A Conn is one
// remote session: it carries a purpose, at most one open transaction,
// and observes the same purpose-limited accuracy views as an embedded
// engine.Conn with that purpose. Values in query results are
// instantdb.Value scalars decoded with the engine's own codec.
//
//	conn, err := client.Dial(ctx, "localhost:7654", client.WithPurpose("stats"))
//	...
//	rows, err := conn.Query(ctx, "SELECT place FROM visits")
//
// A Conn serializes its requests internally, so it may be shared between
// goroutines, but statements then interleave on one session — open one
// Conn per logical session (in particular per transaction).
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"instantdb/internal/query"
	"instantdb/internal/value"
	"instantdb/internal/wire"
)

// Error is a server-reported failure. Code is one of the wire.Code*
// constants; fatal codes end the session.
type Error = wire.Error

// ErrClosed marks use of a closed client connection.
var ErrClosed = errors.New("client: connection closed")

// Sentinel errors for server-reported failure conditions. Every
// server-reported error carries a wire code, and errors.Is matches it
// against the corresponding sentinel, so callers branch on conditions
// instead of string-matching messages:
//
//	if errors.Is(err, client.ErrServerBusy) { backoff() }
var (
	// ErrUnknownPurpose: the handshake, SetPurpose or a SET PURPOSE
	// statement named a purpose the server has not declared.
	ErrUnknownPurpose = wire.ErrUnknownPurpose
	// ErrServerBusy: the server's connection limit is reached (fatal).
	ErrServerBusy = wire.ErrServerBusy
	// ErrShuttingDown: the server is draining connections (fatal).
	ErrShuttingDown = wire.ErrShuttingDown
	// ErrProtocol: a framing violation ended the session (fatal).
	ErrProtocol = wire.ErrProtocol
	// ErrFrameTooLarge: a frame exceeded the size limit — reported by
	// the server (fatal) or hit locally while reading a response.
	ErrFrameTooLarge = wire.ErrFrameTooLarge
	// ErrReadOnlyReplica: the statement would write, but the server is
	// a read replica (started with -replica-of). Non-fatal — the
	// session stays usable for reads; send writes to the leader.
	ErrReadOnlyReplica = wire.ErrReadOnlyReplica
	// ErrReplUnavailable: a replication handshake was refused — the
	// server cannot act as a leader (ephemeral or vacuum-mode database)
	// or the requested log position was checkpointed away, so the
	// replica must be reseeded. Fatal.
	ErrReplUnavailable = wire.ErrReplUnavailable
	// ErrShardStale: a ShardCheck presented a routing-table version
	// older than the one the shard has already served under — reload the
	// routing table before routing anything to this shard. Fatal.
	ErrShardStale = wire.ErrShardStale
)

// Rows is a materialized query result.
type Rows struct {
	Columns []string
	Data    [][]value.Value
}

// Len returns the row count.
func (r *Rows) Len() int { return len(r.Data) }

// Result reports one statement's outcome.
type Result struct {
	// Rows is non-nil for SELECT.
	Rows *Rows
	// RowsAffected counts inserted/updated/deleted tuples.
	RowsAffected int
	// LastInsertID is the tuple id of the last inserted tuple.
	LastInsertID uint64
}

// Option tunes Dial.
type Option func(*config)

type config struct {
	purpose  string
	coarse   bool
	maxFrame int
}

// WithPurpose sets the session purpose during the handshake; Dial fails
// with a CodeUnknownPurpose error if the server has no such purpose.
func WithPurpose(name string) Option { return func(c *config) { c.purpose = name } }

// WithCoarse enables the paper's §IV best-effort semantics: tuples
// degraded past the demanded accuracy still qualify, rendered at their
// coarser actual level.
func WithCoarse() Option { return func(c *config) { c.coarse = true } }

// WithMaxFrame overrides the maximum response payload size accepted
// from the server (default wire.MaxFrameDefault).
func WithMaxFrame(n int) Option { return func(c *config) { c.maxFrame = n } }

// Conn is a client session on a remote InstantDB server.
type Conn struct {
	mu     sync.Mutex
	nc     net.Conn
	br     *bufio.Reader
	cfg    config
	closed bool

	// deadlineMu orders socket deadline writes between round trips and
	// stale cancellation watchers; deadlineGen invalidates watchers of
	// finished round trips.
	deadlineMu  sync.Mutex
	deadlineGen uint64
}

// Dial connects, performs the protocol handshake and returns the
// session. The context bounds the dial and the handshake.
func Dial(ctx context.Context, addr string, opts ...Option) (*Conn, error) {
	cfg := config{maxFrame: wire.MaxFrameDefault}
	for _, o := range opts {
		o(&cfg)
	}
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Conn{nc: nc, br: bufio.NewReader(nc), cfg: cfg}
	hello := wire.EncodeHello(wire.Hello{Version: wire.Version, Purpose: cfg.purpose, Coarse: cfg.coarse})
	op, payload, err := c.roundTrip(ctx, wire.OpHello, hello)
	if err != nil {
		nc.Close()
		return nil, err
	}
	if op != wire.OpWelcome {
		nc.Close()
		return nil, fmt.Errorf("client: unexpected handshake reply opcode %#x", op)
	}
	if _, err := wire.DecodeWelcome(payload); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// Closed reports whether the session is unusable — explicitly closed,
// or poisoned by a fatal transport or protocol failure.
func (c *Conn) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Close ends the session. The server rolls back any open transaction.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.nc.Close()
}

// Exec runs one SQL statement and returns its result. Args bind to `?`
// placeholders server-side in a single round trip (parse, bind,
// execute); values never pass through SQL text, so string arguments
// need no quoting and cannot inject. The server keeps the parse of a
// text executed with arguments in a small per-session cache, so a
// statement run again and again is parsed once.
func (c *Conn) Exec(ctx context.Context, sql string, args ...value.Value) (*Result, error) {
	return c.ExecFrame(ctx, wire.Exec{SQL: sql, Args: args})
}

// ExecFrame sends one whole statement frame — text, arguments, trace
// identity and flags as e carries them — and returns its result. Exec
// and ExecTracedAs fill in the parts they take; the shard router sets
// the rest.
func (c *Conn) ExecFrame(ctx context.Context, e wire.Exec) (*Result, error) {
	return c.request(ctx, wire.OpExec, wire.EncodeExec(e))
}

// Query runs one SQL statement and returns its rows (empty, never nil,
// for statements that produce none). Args bind to `?` placeholders as
// in Exec.
func (c *Conn) Query(ctx context.Context, sql string, args ...value.Value) (*Rows, error) {
	res, err := c.Exec(ctx, sql, args...)
	if err != nil {
		return nil, err
	}
	if res.Rows == nil {
		return &Rows{}, nil
	}
	return res.Rows, nil
}

// Prepare checks sql's syntax and counts its `?` placeholders, locally,
// and returns a handle that executes it on this session. Preparing
// sends nothing: each Exec sends the text and its arguments in the same
// frame as Conn.Exec, whose server-side parse cache spares the repeated
// parse. A prepared statement therefore works wherever Exec does,
// through a shard router too.
func (c *Conn) Prepare(ctx context.Context, sql string) (*Stmt, error) {
	_, n, err := query.ParseWithParams(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, sql: sql, numParams: n}, nil
}

// Stmt is a prepared statement of the Conn that prepared it. Like the
// Conn, it serializes its requests internally.
type Stmt struct {
	c         *Conn
	sql       string
	numParams int
}

// NumParams returns the number of `?` placeholders in the statement.
func (s *Stmt) NumParams() int { return s.numParams }

// Exec executes the prepared statement with args bound to its
// placeholders. The arity must match NumParams exactly.
func (s *Stmt) Exec(ctx context.Context, args ...value.Value) (*Result, error) {
	return s.c.Exec(ctx, s.sql, args...)
}

// Query is Exec for reads: it returns the result rows (empty, never
// nil, for statements that produce none).
func (s *Stmt) Query(ctx context.Context, args ...value.Value) (*Rows, error) {
	res, err := s.Exec(ctx, args...)
	if err != nil {
		return nil, err
	}
	if res.Rows == nil {
		return &Rows{}, nil
	}
	return res.Rows, nil
}

// Close releases the handle. The server holds nothing for it, so Close
// is local and always succeeds.
func (s *Stmt) Close(ctx context.Context) error { return nil }

// SetPurpose switches the session purpose by name: it executes SET
// PURPOSE name.
func (c *Conn) SetPurpose(ctx context.Context, name string) error {
	return c.execOnly(ctx, "SET PURPOSE "+name)
}

// Begin opens an explicit read-write transaction on the session.
func (c *Conn) Begin(ctx context.Context) error { return c.execOnly(ctx, "BEGIN") }

// BeginReadOnly opens a read-only transaction on the session: every
// statement until Commit/Rollback reads one consistent snapshot, takes
// no locks server-side (in particular, it never delays the degradation
// engine), and write statements fail with the transaction aborted.
// Note the one intentional deviation from classic snapshot isolation:
// LCP transitions crossing their deadline mid-transaction ARE visible —
// expired accuracy states are never readable, whatever snapshot is open.
func (c *Conn) BeginReadOnly(ctx context.Context) error { return c.execOnly(ctx, "BEGIN READ ONLY") }

// Commit commits the open transaction.
func (c *Conn) Commit(ctx context.Context) error { return c.execOnly(ctx, "COMMIT") }

// Rollback aborts the open transaction. It is idempotent: rolling back
// when no transaction is open — in particular after a statement failure
// already aborted it server-side — succeeds.
func (c *Conn) Rollback(ctx context.Context) error { return c.execOnly(ctx, "ROLLBACK") }

// execOnly executes a statement whose result carries nothing.
func (c *Conn) execOnly(ctx context.Context, sql string) error {
	_, err := c.Exec(ctx, sql)
	return err
}

// BackupInfo summarizes a completed backup stream.
type BackupInfo struct {
	// EndSeg and EndOff are the server log position one past the
	// archived material — pass them to BackupIncremental to continue
	// the chain.
	EndSeg, EndOff uint64
	// Tuples and Batches count archived snapshot tuples and raw WAL
	// batches.
	Tuples, Batches uint64
}

// Backup streams a full backup archive of the server's database into w.
// The archive is epoch-pinned and produced over the server's lock-free
// snapshot path, so taking it never delays the degradation engine or
// other sessions; degradable payloads cross (and land in w) as
// ciphertext under the server's epoch keys, so archives degrade
// retroactively when the server shreds a key at its LCP deadline. On
// error, any bytes already written to w are an incomplete archive and
// must be discarded.
func (c *Conn) Backup(ctx context.Context, w io.Writer) (*BackupInfo, error) {
	return c.backup(ctx, wire.BackupReq{}, w)
}

// BackupIncremental streams an incremental backup into w, resuming at
// the (EndSeg, EndOff) position reported by the previous archive in the
// chain. A position the server has checkpointed away fails — take a
// fresh full backup.
func (c *Conn) BackupIncremental(ctx context.Context, fromSeg, fromOff uint64, w io.Writer) (*BackupInfo, error) {
	return c.backup(ctx, wire.BackupReq{Incremental: true, FromSeg: fromSeg, FromOff: fromOff}, w)
}

func (c *Conn) backup(ctx context.Context, req wire.BackupReq, w io.Writer) (*BackupInfo, error) {
	return c.chunkStream(ctx, wire.OpBackup, wire.EncodeBackupReq(req), w)
}

// ExportKeys streams the server's epoch key store into w (the raw
// keys.db byte stream). Shard bootstrap pairs it with Backup: the
// restored copy decodes every archived payload whose key was still live
// at export time, while keys shredded before the export stay gone —
// expired material restores erased on the new shard too. The stream
// carries live key material; treat w with the same care as the server's
// own key file.
func (c *Conn) ExportKeys(ctx context.Context, w io.Writer) error {
	_, err := c.chunkStream(ctx, wire.OpKeyExport, nil, w)
	return err
}

// chunkStream requests op and drains the OpBackupChunk/OpBackupDone
// reply stream into w.
func (c *Conn) chunkStream(ctx context.Context, op byte, payload []byte, w io.Writer) (*BackupInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	stop := c.watchCtx(ctx)
	defer stop()
	if err := wire.WriteFrame(c.nc, op, payload); err != nil {
		c.poison()
		return nil, c.ctxErr(ctx, err)
	}
	for {
		op, payload, err := wire.ReadFrame(c.br, c.cfg.maxFrame)
		if err != nil {
			c.poison()
			return nil, c.ctxErr(ctx, err)
		}
		switch op {
		case wire.OpBackupChunk:
			if _, err := w.Write(payload); err != nil {
				// The stream is mid-flight; abandoning it desyncs the
				// session, so the connection must go with it.
				c.poison()
				return nil, err
			}
		case wire.OpBackupDone:
			done, err := wire.DecodeBackupDone(payload)
			if err != nil {
				c.poison()
				return nil, err
			}
			return &BackupInfo{EndSeg: done.EndSeg, EndOff: done.EndOff,
				Tuples: done.Tuples, Batches: done.Batches}, nil
		case wire.OpError:
			werr, derr := wire.DecodeError(payload)
			if derr != nil {
				c.poison()
				return nil, derr
			}
			if werr.Fatal() {
				c.poison()
			}
			return nil, werr
		default:
			c.poison()
			return nil, fmt.Errorf("client: unexpected backup reply opcode %#x", op)
		}
	}
}

// Ping checks server liveness over the session.
func (c *Conn) Ping(ctx context.Context) error {
	op, _, err := c.roundTripLocked(ctx, wire.OpPing, nil)
	if err != nil {
		return err
	}
	if op != wire.OpPong {
		return fmt.Errorf("client: unexpected ping reply opcode %#x", op)
	}
	return nil
}

// Stats fetches a point-in-time snapshot of the server's metrics as a
// flat key→value map. Keys are the exposition sample names — histograms
// appear as their `_count` and `_sum` series, vectors as one key per
// label value (e.g. `instantdb_queries_total{purpose="billing"}`). The
// map is empty when the server's database was opened without metrics.
func (c *Conn) Stats(ctx context.Context) (map[string]float64, error) {
	op, payload, err := c.roundTripLocked(ctx, wire.OpStats, nil)
	if err != nil {
		return nil, err
	}
	if op != wire.OpStatsReply {
		return nil, fmt.Errorf("client: unexpected stats reply opcode %#x", op)
	}
	stats, err := wire.DecodeStats(payload)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(stats))
	for _, s := range stats {
		out[s.Key] = s.Value
	}
	return out, nil
}

// ShardCheck pins the routing-table version this session routes under
// and returns the version the shard had stored before the check. The
// shard persists the highest version it has seen; presenting an older
// one fails with ErrShardStale (fatal) — a router must reload its table,
// never route with a stale one. Servers predating sharding reject the
// opcode with a protocol error, which is equally loud.
func (c *Conn) ShardCheck(ctx context.Context, version uint64) (stored uint64, err error) {
	op, payload, err := c.roundTripLocked(ctx, wire.OpShardCheck, wire.EncodeShardCheck(version))
	if err != nil {
		return 0, err
	}
	if op != wire.OpShardCheckReply {
		return 0, fmt.Errorf("client: unexpected shard-check reply opcode %#x", op)
	}
	return wire.DecodeShardCheckReply(payload)
}

// Schema fetches the server's catalog DDL script (the same append-only
// script replication ships). The shard router parses it to learn table
// shapes for routing; tooling can use it to inspect a remote schema.
func (c *Conn) Schema(ctx context.Context) (string, error) {
	op, payload, err := c.roundTripLocked(ctx, wire.OpSchema, nil)
	if err != nil {
		return "", err
	}
	if op != wire.OpSchemaReply {
		return "", fmt.Errorf("client: unexpected schema reply opcode %#x", op)
	}
	return string(payload), nil
}

// request performs one request round trip and decodes the result frame.
func (c *Conn) request(ctx context.Context, op byte, payload []byte) (*Result, error) {
	rop, rp, err := c.roundTripLocked(ctx, op, payload)
	if err != nil {
		return nil, err
	}
	if rop != wire.OpResult {
		return nil, fmt.Errorf("client: unexpected reply opcode %#x", rop)
	}
	wres, err := wire.DecodeResult(rp)
	if err != nil {
		return nil, err
	}
	res := &Result{RowsAffected: int(wres.RowsAffected), LastInsertID: wres.LastInsertID}
	if wres.Rows != nil {
		res.Rows = &Rows{Columns: wres.Rows.Columns, Data: wres.Rows.Data}
	}
	return res, nil
}

func (c *Conn) roundTripLocked(ctx context.Context, op byte, payload []byte) (byte, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundTrip(ctx, op, payload)
}

// roundTrip writes one frame and reads the reply, honoring the context
// deadline and cancellation. Server-reported errors come back as *Error;
// fatal ones poison the connection. Caller holds c.mu (or owns the Conn
// exclusively, during Dial).
func (c *Conn) roundTrip(ctx context.Context, op byte, payload []byte) (byte, []byte, error) {
	if c.closed {
		return 0, nil, ErrClosed
	}
	// A context already done sends nothing: racing the watcher below would
	// either run the statement anyway or cut the write and poison the
	// connection.
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	stop := c.watchCtx(ctx)
	defer stop()

	if err := wire.WriteFrame(c.nc, op, payload); err != nil {
		c.poison()
		return 0, nil, c.ctxErr(ctx, err)
	}
	rop, rp, err := wire.ReadFrame(c.br, c.cfg.maxFrame)
	if err != nil {
		c.poison()
		return 0, nil, c.ctxErr(ctx, err)
	}
	if rop == wire.OpError {
		werr, derr := wire.DecodeError(rp)
		if derr != nil {
			c.poison()
			return 0, nil, derr
		}
		if werr.Fatal() {
			c.poison()
		}
		return 0, nil, werr
	}
	return rop, rp, nil
}

// watchCtx applies the context deadline to the socket and interrupts the
// round trip if the context is canceled mid-flight. The generation
// counter keeps a watcher that loses the race against stop — its
// context was canceled right as the round trip completed — from
// poisoning the deadline of a later round trip.
func (c *Conn) watchCtx(ctx context.Context) (stop func()) {
	c.deadlineMu.Lock()
	c.deadlineGen++
	gen := c.deadlineGen
	if deadline, ok := ctx.Deadline(); ok {
		c.nc.SetDeadline(deadline)
	} else {
		c.nc.SetDeadline(time.Time{})
	}
	c.deadlineMu.Unlock()
	if ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			c.deadlineMu.Lock()
			if c.deadlineGen == gen {
				// Unblock the in-flight read/write immediately.
				c.nc.SetDeadline(time.Unix(1, 0))
			}
			c.deadlineMu.Unlock()
		case <-done:
		}
	}()
	return func() { close(done) }
}

// ctxErr prefers the context's error over the socket's when the context
// ended the round trip.
func (c *Conn) ctxErr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// poison marks the session unusable after a fatal transport or protocol
// failure: request/response framing may be out of sync.
func (c *Conn) poison() {
	if !c.closed {
		c.closed = true
		c.nc.Close()
	}
}
