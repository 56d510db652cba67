// Package server exposes an InstantDB database over TCP. Each accepted
// connection is bound to its own engine.Conn, so purpose-based accuracy
// views, the coarse-semantics flag and transactions stay strictly
// per-session — a remote client observes exactly the accuracy states an
// embedded session with the same purpose would, and a dropped
// connection rolls its open transaction back before the session is
// discarded. The wire format is defined in internal/wire; the matching
// client lives in the top-level client package.
package server

import (
	"bufio"
	"container/list"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"instantdb/internal/backup"
	"instantdb/internal/engine"
	"instantdb/internal/metrics"
	"instantdb/internal/repl"
	"instantdb/internal/trace"
	"instantdb/internal/wal"
	"instantdb/internal/wire"
)

// DefaultMaxStmts is the per-session prepared-statement cap when
// Options.MaxStmts is zero.
const DefaultMaxStmts = 64

// Options tunes a Server.
type Options struct {
	// MaxConns caps concurrently served sessions (0 = unlimited).
	// Connections over the cap receive a CodeServerBusy error frame and
	// are closed without a handshake.
	MaxConns int
	// MaxFrame bounds request payloads (default wire.MaxFrameDefault).
	MaxFrame int
	// MaxStmts caps prepared statements per session (default
	// DefaultMaxStmts). Preparing past the cap evicts the least
	// recently used statement, so a hostile client cannot grow server
	// memory by preparing unboundedly; an evicted id answers
	// CodeUnknownStmt on its next execution.
	MaxStmts int
	// ReplHeartbeat is the replication stream keepalive interval
	// (default repl.DefaultHeartbeat). Tests shorten it.
	ReplHeartbeat time.Duration
	// SlowQuery, when positive, logs every statement whose handling
	// time reaches it, with the per-span breakdown when the statement
	// was traced (locally sampled or remote-forced via OpTraced).
	SlowQuery time.Duration
	// SlowLogf receives slow-query lines (default Logf).
	SlowLogf func(format string, args ...any)
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// Server serves one engine.DB to remote clients.
type Server struct {
	db   *engine.DB
	opts Options
	met  srvMetrics

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// srvMetrics holds the server-layer instruments.
type srvMetrics struct {
	conns      *metrics.Gauge
	framesIn   *metrics.Counter
	framesOut  *metrics.Counter
	busy       *metrics.Counter
	reqSeconds *metrics.HistogramVec
}

// New wraps an open database. The server does not own the DB: Close
// stops serving but leaves the database open.
func New(db *engine.DB, opts Options) *Server {
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = wire.MaxFrameDefault
	}
	if opts.MaxStmts <= 0 {
		opts.MaxStmts = DefaultMaxStmts
	}
	reg := db.Metrics()
	met := srvMetrics{
		conns: reg.Gauge("instantdb_server_active_conns",
			"Client connections currently being served."),
		framesIn: reg.Counter("instantdb_server_frames_in_total",
			"Request frames read from clients."),
		framesOut: reg.Counter("instantdb_server_frames_out_total",
			"Response frames written to clients."),
		busy: reg.Counter("instantdb_server_busy_rejects_total",
			"Connections rejected over the -max-conns limit (CodeServerBusy)."),
		reqSeconds: reg.HistogramVec("instantdb_server_request_seconds",
			"Request handling latency by opcode.", "op", nil),
	}
	return &Server{db: db, opts: opts, met: met, conns: make(map[net.Conn]struct{})}
}

// opName renders a request opcode as a metric label.
func opName(op byte) string {
	switch op {
	case wire.OpPing:
		return "ping"
	case wire.OpExec:
		return "exec"
	case wire.OpQuery:
		return "query"
	case wire.OpSetPurpose:
		return "set_purpose"
	case wire.OpBegin:
		return "begin"
	case wire.OpBeginRO:
		return "begin_ro"
	case wire.OpCommit:
		return "commit"
	case wire.OpRollback:
		return "rollback"
	case wire.OpPrepare:
		return "prepare"
	case wire.OpExecPrepared:
		return "exec_prepared"
	case wire.OpCloseStmt:
		return "close_stmt"
	case wire.OpExecArgs:
		return "exec_args"
	case wire.OpBackup:
		return "backup"
	case wire.OpStats:
		return "stats"
	case wire.OpShardCheck:
		return "shard_check"
	case wire.OpKeyExport:
		return "key_export"
	case wire.OpSchema:
		return "schema"
	case wire.OpTraced:
		return "traced"
	case wire.OpTraceDump:
		return "trace_dump"
	case wire.OpAuditTail:
		return "audit_tail"
	default:
		return fmt.Sprintf("0x%02x", op)
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. It returns nil after a
// graceful Close, or the first fatal Accept error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if !s.track(nc) {
			continue
		}
		go func() {
			defer s.wg.Done()
			s.handle(nc)
		}()
	}
}

// Addr returns the bound listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes every live connection and waits for the
// session goroutines to drain. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// track registers a new connection, enforcing MaxConns and the closed
// state, and reserves the session's WaitGroup slot while still under
// s.mu so Close cannot observe a zero counter between Accept and the
// handler goroutine starting. A rejected connection is answered and
// closed here.
func (s *Server) track(nc net.Conn) bool {
	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		s.writeFrame(nc, wire.OpError, wire.EncodeError(wire.CodeShutdown, "server: shutting down"))
		nc.Close()
		return false
	case s.opts.MaxConns > 0 && len(s.conns) >= s.opts.MaxConns:
		s.mu.Unlock()
		s.met.busy.Inc()
		s.writeFrame(nc, wire.OpError, wire.EncodeError(wire.CodeServerBusy,
			fmt.Sprintf("server: connection limit (%d) reached", s.opts.MaxConns)))
		nc.Close()
		s.logf("reject %s: connection limit", nc.RemoteAddr())
		return false
	}
	s.conns[nc] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	s.met.conns.Inc()
	return true
}

func (s *Server) untrack(nc net.Conn) {
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	s.met.conns.Dec()
}

// writeFrame writes one response frame, counting it.
func (s *Server) writeFrame(nc net.Conn, op byte, payload []byte) error {
	err := wire.WriteFrame(nc, op, payload)
	if err == nil {
		s.met.framesOut.Inc()
	}
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// session is one connection's server-side state: the engine session
// plus the prepared-statement registry. Statements are registered under
// monotonically increasing ids and evicted least-recently-used once the
// cap is reached, bounding per-session memory against hostile clients.
type session struct {
	conn   *engine.Conn
	stmts  map[uint64]*list.Element // id → element holding *stmtEntry
	lru    *list.List               // front = least recently used
	nextID uint64
	max    int
	// remote is the forced trace of the OpTraced request currently
	// being served (nil otherwise). While set, statement execution must
	// not start a competing local trace.
	remote *trace.T
}

type stmtEntry struct {
	id   uint64
	stmt *engine.Stmt
}

// register adds a freshly prepared statement, evicting the LRU entry
// over the cap, and returns its id.
func (sess *session) register(st *engine.Stmt) uint64 {
	sess.nextID++
	id := sess.nextID
	sess.stmts[id] = sess.lru.PushBack(&stmtEntry{id: id, stmt: st})
	if len(sess.stmts) > sess.max {
		oldest := sess.lru.Front()
		sess.lru.Remove(oldest)
		delete(sess.stmts, oldest.Value.(*stmtEntry).id)
	}
	return id
}

// lookup resolves a statement id, marking it most recently used.
func (sess *session) lookup(id uint64) (*engine.Stmt, bool) {
	el, ok := sess.stmts[id]
	if !ok {
		return nil, false
	}
	sess.lru.MoveToBack(el)
	return el.Value.(*stmtEntry).stmt, true
}

// closeStmt discards a statement id; unknown ids (already closed or
// evicted) are a no-op.
func (sess *session) closeStmt(id uint64) {
	if el, ok := sess.stmts[id]; ok {
		sess.lru.Remove(el)
		delete(sess.stmts, id)
	}
}

// handle runs one session: handshake, then the request loop.
func (s *Server) handle(nc net.Conn) {
	defer s.untrack(nc)
	defer nc.Close()
	br := bufio.NewReader(nc)

	conn, err := s.handshake(nc, br)
	if err != nil {
		if !errors.Is(err, io.EOF) {
			s.logf("handshake %s: %v", nc.RemoteAddr(), err)
		}
		return
	}
	if conn == nil {
		// The handshake was a replication hello; the stream ran to
		// completion inside handshake and the connection is done.
		return
	}
	sess := &session{conn: conn, stmts: make(map[uint64]*list.Element), lru: list.New(), max: s.opts.MaxStmts}
	// A dropped connection must not leak its transaction's locks.
	defer func() {
		if _, err := sess.conn.Exec("ROLLBACK"); err != nil && !errors.Is(err, engine.ErrNoTransaction) {
			s.logf("rollback %s: %v", nc.RemoteAddr(), err)
		}
	}()

	for {
		op, payload, err := s.readRequest(nc, br)
		if err != nil {
			return
		}
		start := time.Now()
		ok := s.serveRequest(nc, sess, op, payload)
		s.met.reqSeconds.With(opName(op)).Observe(time.Since(start))
		if !ok {
			return
		}
	}
}

// handshake validates the Hello frame and builds the session Conn. A
// replication hello instead runs the streaming sender to completion on
// this goroutine and returns (nil, nil).
func (s *Server) handshake(nc net.Conn, br *bufio.Reader) (*engine.Conn, error) {
	op, payload, err := s.readRequest(nc, br)
	if err != nil {
		return nil, err
	}
	if op == wire.OpReplHello {
		return nil, s.serveReplication(nc, payload)
	}
	if op != wire.OpHello {
		s.fail(nc, wire.CodeProtocol, fmt.Sprintf("server: expected hello, got opcode %#x", op))
		return nil, fmt.Errorf("first frame opcode %#x", op)
	}
	h, err := wire.DecodeHello(payload)
	if err != nil {
		s.fail(nc, wire.CodeProtocol, err.Error())
		return nil, err
	}
	if h.Version != wire.Version {
		s.fail(nc, wire.CodeProtocol,
			fmt.Sprintf("server: protocol version %d unsupported (want %d)", h.Version, wire.Version))
		return nil, fmt.Errorf("protocol version %d", h.Version)
	}
	sess := s.db.NewConn()
	if h.Purpose != "" {
		if err := sess.SetPurpose(h.Purpose); err != nil {
			s.fail(nc, wire.CodeUnknownPurpose, err.Error())
			return nil, err
		}
	}
	sess.SetCoarse(h.Coarse)
	if err := s.writeFrame(nc, wire.OpWelcome, wire.EncodeWelcome()); err != nil {
		return nil, err
	}
	return sess, nil
}

// serveReplication handles an OpReplHello: validate, then run the WAL
// streaming sender on this connection until the follower disconnects.
// It always returns nil after logging the stream outcome — a finished
// stream is a normal session end, not a handshake failure.
func (s *Server) serveReplication(nc net.Conn, payload []byte) error {
	h, err := wire.DecodeReplHello(payload)
	if err != nil {
		s.fail(nc, wire.CodeProtocol, err.Error())
		return nil
	}
	if h.Version != wire.Version {
		s.fail(nc, wire.CodeProtocol,
			fmt.Sprintf("server: protocol version %d unsupported (want %d)", h.Version, wire.Version))
		return nil
	}
	log, schema, err := s.db.ReplSource()
	if err != nil {
		s.fail(nc, wire.CodeReplUnavailable, err.Error())
		return nil
	}
	start := wal.Pos{Seg: int(h.Seg), Off: int64(h.Off)}
	s.logf("repl %s: streaming from %v (follower epoch %d)", nc.RemoteAddr(), start, h.LastEpoch)
	sender := &repl.Sender{Log: log, Schema: schema, Heartbeat: s.opts.ReplHeartbeat, Logf: s.opts.Logf}
	if err := sender.Serve(nc, start); err != nil && !errors.Is(err, io.EOF) {
		s.logf("repl %s: stream ended: %v", nc.RemoteAddr(), err)
	}
	return nil
}

// readRequest reads one frame, reporting size violations to the peer
// before failing the session.
func (s *Server) readRequest(nc net.Conn, br *bufio.Reader) (byte, []byte, error) {
	op, payload, err := wire.ReadFrame(br, s.opts.MaxFrame)
	if err != nil {
		if errors.Is(err, wire.ErrFrameTooLarge) {
			s.fail(nc, wire.CodeFrameTooLarge, err.Error())
		}
		return 0, nil, err
	}
	s.met.framesIn.Inc()
	return op, payload, nil
}

// serveRequest dispatches one request frame. It returns false when the
// session must end (protocol violation or a dead peer).
func (s *Server) serveRequest(nc net.Conn, sess *session, op byte, payload []byte) bool {
	switch op {
	case wire.OpPing:
		return s.writeFrame(nc, wire.OpPong, nil) == nil
	case wire.OpStats:
		return s.serveStats(nc)
	case wire.OpExec, wire.OpQuery:
		return s.execSQL(nc, sess, string(payload))
	case wire.OpSetPurpose:
		if err := sess.conn.SetPurpose(string(payload)); err != nil {
			return s.sendErr(nc, wire.CodeUnknownPurpose, err)
		}
		return s.sendResult(nc, &engine.Result{})
	case wire.OpBegin:
		return s.execSQL(nc, sess, "BEGIN")
	case wire.OpBeginRO:
		return s.execSQL(nc, sess, "BEGIN READ ONLY")
	case wire.OpCommit:
		return s.execSQL(nc, sess, "COMMIT")
	case wire.OpRollback:
		// Idempotent: a statement failure inside the transaction already
		// aborted it engine-side, and the client cannot distinguish that
		// state — its Rollback must not report a spurious error.
		if _, err := sess.conn.Exec("ROLLBACK"); err != nil && !errors.Is(err, engine.ErrNoTransaction) {
			return s.sendErr(nc, wire.CodeSQL, err)
		}
		return s.sendResult(nc, &engine.Result{})
	case wire.OpPrepare:
		st, err := sess.conn.Prepare(string(payload))
		if err != nil {
			return s.sendErr(nc, wire.CodeSQL, err)
		}
		id := sess.register(st)
		ready := wire.EncodeStmtReady(wire.StmtReady{ID: id, NumParams: st.NumParams()})
		return s.writeFrame(nc, wire.OpStmtReady, ready) == nil
	case wire.OpExecPrepared:
		id, args, err := wire.DecodeExecPrepared(payload)
		if err != nil {
			s.fail(nc, wire.CodeProtocol, err.Error())
			return false
		}
		st, ok := sess.lookup(id)
		if !ok {
			return s.sendErr(nc, wire.CodeUnknownStmt,
				fmt.Errorf("server: unknown statement id %d (closed or evicted); re-prepare", id))
		}
		var res *engine.Result
		s.traceStmt(sess, "exec_prepared", fmt.Sprintf("stmt#%d", id), func() {
			res, err = st.Exec(args...)
		})
		if err != nil {
			return s.sendErr(nc, sqlCode(err), err)
		}
		return s.sendResult(nc, res)
	case wire.OpCloseStmt:
		id, err := wire.DecodeCloseStmt(payload)
		if err != nil {
			s.fail(nc, wire.CodeProtocol, err.Error())
			return false
		}
		sess.closeStmt(id)
		return s.sendResult(nc, &engine.Result{})
	case wire.OpExecArgs:
		sql, args, err := wire.DecodeExecArgs(payload)
		if err != nil {
			s.fail(nc, wire.CodeProtocol, err.Error())
			return false
		}
		var res *engine.Result
		s.traceStmt(sess, "exec_args", sql, func() {
			res, err = sess.conn.Exec(sql, args...)
		})
		if err != nil {
			return s.sendErr(nc, sqlCode(err), err)
		}
		return s.sendResult(nc, res)
	case wire.OpBackup:
		req, err := wire.DecodeBackupReq(payload)
		if err != nil {
			s.fail(nc, wire.CodeProtocol, err.Error())
			return false
		}
		return s.serveBackup(nc, req)
	case wire.OpShardCheck:
		v, err := wire.DecodeShardCheck(payload)
		if err != nil {
			s.fail(nc, wire.CodeProtocol, err.Error())
			return false
		}
		prev, err := s.db.CheckShardVersion(v)
		if err != nil {
			if errors.Is(err, engine.ErrShardStale) {
				s.fail(nc, wire.CodeShardStale, err.Error())
				return false
			}
			return s.sendErr(nc, wire.CodeSQL, err)
		}
		return s.writeFrame(nc, wire.OpShardCheckReply, wire.EncodeShardCheckReply(prev)) == nil
	case wire.OpKeyExport:
		return s.serveKeyExport(nc)
	case wire.OpTraced:
		trd, err := wire.DecodeTraced(payload)
		if err != nil {
			s.fail(nc, wire.CodeProtocol, err.Error())
			return false
		}
		return s.serveTraced(nc, sess, trd)
	case wire.OpTraceDump:
		mode, id, err := wire.DecodeTraceDump(payload)
		if err != nil {
			s.fail(nc, wire.CodeProtocol, err.Error())
			return false
		}
		return s.serveTraceDump(nc, mode, id)
	case wire.OpAuditTail:
		n, err := wire.DecodeAuditTail(payload)
		if err != nil {
			s.fail(nc, wire.CodeProtocol, err.Error())
			return false
		}
		evs := s.db.AuditLog().Tail(int(n))
		return s.writeFrame(nc, wire.OpAuditData, wire.EncodeAuditEvents(evs)) == nil
	case wire.OpSchema:
		script, err := s.db.CatalogScript()
		if err != nil {
			return s.sendErr(nc, wire.CodeSQL, err)
		}
		return s.writeFrame(nc, wire.OpSchemaReply, []byte(script)) == nil
	default:
		s.fail(nc, wire.CodeProtocol, fmt.Sprintf("server: unknown opcode %#x", op))
		return false
	}
}

// serveStats answers OpStats with the full metrics snapshot.
func (s *Server) serveStats(nc net.Conn) bool {
	samples := s.db.Metrics().Snapshot()
	stats := make([]wire.Stat, len(samples))
	for i, sm := range samples {
		stats[i] = wire.Stat{Key: sm.Key, Value: sm.Value}
	}
	return s.writeFrame(nc, wire.OpStatsReply, wire.EncodeStats(stats)) == nil
}

// serveBackup streams one backup archive to the client as OpBackupChunk
// frames followed by OpBackupDone. The archive is produced on this
// session's goroutine over the engine's lock-free snapshot path, so a
// slow client throttles only its own stream, never the degradation
// engine or other sessions. A failure mid-stream is reported as a
// non-fatal OpError — frames are typed, so the session stays in sync
// and usable; the client discards the incomplete archive.
func (s *Server) serveBackup(nc net.Conn, req wire.BackupReq) bool {
	cw := &chunkWriter{nc: nc, max: s.backupChunkSize(), out: s.met.framesOut}
	var sum *backup.Summary
	var err error
	if req.Incremental {
		from := wal.Pos{Seg: int(req.FromSeg), Off: int64(req.FromOff)}
		sum, err = backup.Incremental(s.db, from, cw)
	} else {
		sum, err = backup.Full(s.db, cw)
	}
	if err == nil {
		err = cw.flush()
	}
	if err != nil {
		if cw.err != nil {
			return false // the connection itself is dead
		}
		s.logf("backup %s: %v", nc.RemoteAddr(), err)
		return s.sendErr(nc, wire.CodeSQL, err)
	}
	done := wire.EncodeBackupDone(wire.BackupDone{
		EndSeg: uint64(sum.End.Seg), EndOff: uint64(sum.End.Off),
		Tuples: uint64(sum.Tuples), Batches: uint64(sum.Batches),
	})
	return s.writeFrame(nc, wire.OpBackupDone, done) == nil
}

// serveKeyExport streams the epoch key store as OpBackupChunk frames
// followed by OpBackupDone (counts zero; only the byte stream matters).
// A shard bootstrap pairs it with OpBackup so the restored copy can
// decode every payload whose key was still live at export time.
func (s *Server) serveKeyExport(nc net.Conn) bool {
	ks := s.db.KeyStore()
	if ks == nil {
		return s.sendErr(nc, wire.CodeSQL,
			errors.New("server: no key store to export (ephemeral database or plain log mode)"))
	}
	cw := &chunkWriter{nc: nc, max: s.backupChunkSize(), out: s.met.framesOut}
	_, err := ks.ExportTo(cw)
	if err == nil {
		err = cw.flush()
	}
	if err != nil {
		if cw.err != nil {
			return false // the connection itself is dead
		}
		s.logf("key export %s: %v", nc.RemoteAddr(), err)
		return s.sendErr(nc, wire.CodeSQL, err)
	}
	return s.writeFrame(nc, wire.OpBackupDone, wire.EncodeBackupDone(wire.BackupDone{})) == nil
}

// backupChunkSize bounds OpBackupChunk payloads: comfortably under the
// frame limit, capped so the stream pipelines instead of building one
// giant frame.
func (s *Server) backupChunkSize() int {
	n := s.opts.MaxFrame / 2
	if n > 256<<10 {
		n = 256 << 10
	}
	if n < 4<<10 {
		n = 4 << 10
	}
	return n
}

// chunkWriter adapts a frame stream to io.Writer for the backup writer,
// buffering up to max bytes per OpBackupChunk frame.
type chunkWriter struct {
	nc  net.Conn
	buf []byte
	max int
	err error
	out *metrics.Counter
}

// Write implements io.Writer.
func (cw *chunkWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	n := len(p)
	for len(p) > 0 {
		room := cw.max - len(cw.buf)
		if room == 0 {
			if err := cw.flush(); err != nil {
				return n - len(p), err
			}
			room = cw.max
		}
		if room > len(p) {
			room = len(p)
		}
		cw.buf = append(cw.buf, p[:room]...)
		p = p[room:]
	}
	return n, nil
}

func (cw *chunkWriter) flush() error {
	if cw.err != nil {
		return cw.err
	}
	if len(cw.buf) == 0 {
		return nil
	}
	if err := wire.WriteFrame(cw.nc, wire.OpBackupChunk, cw.buf); err != nil {
		cw.err = err
		return err
	}
	cw.out.Inc()
	cw.buf = cw.buf[:0]
	return nil
}

// execSQL runs one statement on the session and answers with its result
// or a non-fatal SQL error.
func (s *Server) execSQL(nc net.Conn, sess *session, sql string) bool {
	var res *engine.Result
	var err error
	s.traceStmt(sess, "exec", sql, func() {
		res, err = sess.conn.Exec(sql)
	})
	if err != nil {
		return s.sendErr(nc, sqlCode(err), err)
	}
	return s.sendResult(nc, res)
}

// traceStmt wraps one statement execution with tracing and the
// slow-query log. Inside an OpTraced request the session already
// carries the remote-forced trace, so only timing applies here;
// otherwise a locally sampled trace is attached for the statement's
// duration. When nothing sampled the statement, fn runs with zero
// tracing state and the hot path pays only untaken nil checks.
func (s *Server) traceStmt(sess *session, name, sql string, fn func()) {
	t := sess.remote
	var root *trace.S
	if t == nil {
		if t, root = s.db.Tracer().Start(name); root != nil {
			root.Attr("sql", sql)
			sess.conn.AttachTrace(t, root)
		}
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	if root != nil {
		sess.conn.DetachTrace()
		root.End()
	}
	if s.opts.SlowQuery > 0 && d >= s.opts.SlowQuery {
		s.slowf("slow query (%v): %s%s", d.Round(10*time.Microsecond), sql, spanBreakdown(t))
	}
}

// serveTraced unwraps an OpTraced frame: the inner request runs under
// a forced trace whose root hangs off the caller's span, so a router
// scatter and its shards later stitch into one cross-process tree. The
// response frame is the inner request's normal response.
func (s *Server) serveTraced(nc net.Conn, sess *session, trd wire.Traced) bool {
	t, root := s.db.Tracer().StartRemote(trd.TraceID, trd.ParentSpanID, "serve_"+opName(trd.Op))
	sess.conn.AttachTrace(t, root)
	sess.remote = t
	start := time.Now()
	ok := s.serveRequest(nc, sess, trd.Op, trd.Payload)
	sess.remote = nil
	sess.conn.DetachTrace()
	root.End()
	s.met.reqSeconds.With(opName(trd.Op)).Observe(time.Since(start))
	return ok
}

// serveTraceDump answers OpTraceDump from the tracer's bounded rings.
func (s *Server) serveTraceDump(nc net.Conn, mode byte, id uint64) bool {
	var recs []*trace.Rec
	switch mode {
	case wire.TraceByID:
		if r := s.db.Tracer().ByID(id); r != nil {
			recs = []*trace.Rec{r}
		}
	case wire.TraceRecent:
		recs = s.db.Tracer().Recent()
	case wire.TraceSlow:
		recs = s.db.Tracer().SlowTraces()
	}
	return s.writeFrame(nc, wire.OpTraceData, wire.EncodeTraceRecs(recs)) == nil
}

// slowf routes a slow-query line to SlowLogf, falling back to Logf.
func (s *Server) slowf(format string, args ...any) {
	if s.opts.SlowLogf != nil {
		s.opts.SlowLogf(format, args...)
		return
	}
	s.logf(format, args...)
}

// spanBreakdown renders a trace's spans as a compact suffix for the
// slow-query log line ("" when the statement was not traced).
func spanBreakdown(t *trace.T) string {
	spans := t.Spans()
	if len(spans) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(" [")
	for i, sp := range spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", sp.Name, sp.Duration.Round(time.Microsecond))
	}
	b.WriteByte(']')
	return b.String()
}

// sqlCode picks the wire error code for a statement failure. Replica
// write rejections get their own non-fatal code so clients can branch
// (redirect the write to the leader) without string matching.
func sqlCode(err error) uint16 {
	if errors.Is(err, engine.ErrReadOnlyReplica) {
		return wire.CodeReadOnlyReplica
	}
	return wire.CodeSQL
}

func (s *Server) sendResult(nc net.Conn, res *engine.Result) bool {
	wres := &wire.Result{
		RowsAffected: uint64(res.RowsAffected),
		LastInsertID: uint64(res.LastInsertID),
	}
	if res.Rows != nil {
		wres.Rows = &wire.Rows{Columns: res.Rows.Columns, Data: res.Rows.Data}
	}
	payload := wire.EncodeResult(wres)
	// An oversized response would be rejected by the peer's frame limit
	// and poison its session; refuse it as a statement error instead so
	// the client can narrow the query and carry on.
	if len(payload) > s.opts.MaxFrame {
		return s.sendErr(nc, wire.CodeSQL, fmt.Errorf(
			"server: result is %d bytes, over the %d-byte frame limit; narrow the query (LIMIT, fewer columns)",
			len(payload), s.opts.MaxFrame))
	}
	return s.writeFrame(nc, wire.OpResult, payload) == nil
}

func (s *Server) sendErr(nc net.Conn, code uint16, err error) bool {
	return s.writeFrame(nc, wire.OpError, wire.EncodeError(code, err.Error())) == nil
}

// fail sends a fatal error frame; the caller closes the connection.
func (s *Server) fail(nc net.Conn, code uint16, msg string) {
	s.writeFrame(nc, wire.OpError, wire.EncodeError(code, msg))
}
