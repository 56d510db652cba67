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
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"instantdb/internal/backup"
	"instantdb/internal/engine"
	"instantdb/internal/repl"
	"instantdb/internal/trace"
	"instantdb/internal/wal"
	"instantdb/internal/wire"
)

// Options tunes a Server.
type Options struct {
	// MaxConns caps concurrently served sessions (0 = unlimited).
	// Connections over the cap receive a CodeServerBusy error frame and
	// are closed without a handshake.
	MaxConns int
	// MaxFrame bounds request payloads (default wire.MaxFrameDefault).
	MaxFrame int
	// ReplHeartbeat is the replication stream keepalive interval
	// (default repl.DefaultHeartbeat). Tests shorten it.
	ReplHeartbeat time.Duration
	// SlowQuery, when positive, logs every statement whose handling
	// time reaches it, with the per-span breakdown when the statement
	// was traced (locally sampled, or forced by the trace id its OpExec
	// frame carries).
	SlowQuery time.Duration
	// SlowLogf receives slow-query lines (default Logf).
	SlowLogf func(format string, args ...any)
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// Server serves one engine.DB to remote clients behind the shared
// front end (Serve, Addr and Close come from Front).
type Server struct {
	*Front
	db   *engine.DB
	opts Options
}

// New wraps an open database. The server does not own the DB: Close
// stops serving but leaves the database open.
func New(db *engine.DB, opts Options) *Server {
	s := &Server{db: db, opts: opts}
	s.Front = NewFront("server", db.Metrics(), opts.MaxConns, opts.MaxFrame, opts.Logf, s.admit)
	s.replHello = s.serveReplication
	return s
}

// session is one connection's server-side state: the engine session
// and the peer it serves.
type session struct {
	s    *Server
	peer net.Addr
	conn *engine.Conn
}

// Serve answers one request frame (Session).
func (sess *session) Serve(p *Peer, op byte, payload []byte) bool {
	return sess.s.serveRequest(p, sess, op, payload)
}

// Close rolls back the session's open transaction: a dropped
// connection must not leak its transaction's locks.
func (sess *session) Close() {
	if _, err := sess.conn.Exec("ROLLBACK"); err != nil {
		sess.s.log("rollback %s: %v", sess.peer, err)
	}
}

// admit builds the engine session for a Hello, under its purpose.
func (s *Server) admit(p *Peer, h wire.Hello) (Session, error) {
	conn := s.db.NewConn()
	if h.Purpose != "" {
		if err := conn.SetPurpose(h.Purpose); err != nil {
			p.Fail(wire.CodeUnknownPurpose, err.Error())
			return nil, err
		}
	}
	conn.SetCoarse(h.Coarse)
	return &session{s: s, peer: p.RemoteAddr(), conn: conn}, nil
}

// serveReplication takes over a connection whose first frame is
// OpReplHello: validate, then run the WAL streaming sender on it until
// the follower disconnects.
func (s *Server) serveReplication(p *Peer, payload []byte) {
	h, err := wire.DecodeReplHello(payload)
	if err == nil {
		err = s.checkVersion(h.Version)
	}
	if err != nil {
		p.Fail(wire.CodeProtocol, err.Error())
		return
	}
	log, schema, err := s.db.ReplSource()
	if err != nil {
		p.Fail(wire.CodeReplUnavailable, err.Error())
		return
	}
	start := wal.Pos{Seg: int(h.Seg), Off: int64(h.Off)}
	s.log("repl %s: streaming from %v (follower epoch %d)", p.RemoteAddr(), start, h.LastEpoch)
	sender := &repl.Sender{Log: log, Schema: schema, Heartbeat: s.opts.ReplHeartbeat, Logf: s.opts.Logf}
	if err := sender.Serve(p.nc, start); err != nil && !errors.Is(err, io.EOF) {
		s.log("repl %s: stream ended: %v", p.RemoteAddr(), err)
	}
}

// serveRequest dispatches one request frame. It returns false when the
// session must end (protocol violation or a dead peer).
func (s *Server) serveRequest(p *Peer, sess *session, op byte, payload []byte) bool {
	switch op {
	case wire.OpPing:
		return p.WriteFrame(wire.OpPong, nil) == nil
	case wire.OpStats:
		return s.serveStats(p)
	case wire.OpExec:
		e, err := wire.DecodeExec(payload)
		if err != nil {
			p.Fail(wire.CodeProtocol, err.Error())
			return false
		}
		res, err := s.exec(sess, e)
		if err != nil {
			return p.SendErr(sqlCode(err), err)
		}
		return p.SendResult(wireResult(res))
	case wire.OpBackup:
		req, err := wire.DecodeBackupReq(payload)
		if err != nil {
			p.Fail(wire.CodeProtocol, err.Error())
			return false
		}
		return s.serveBackup(p, req)
	case wire.OpShardCheck:
		v, err := wire.DecodeShardCheck(payload)
		if err != nil {
			p.Fail(wire.CodeProtocol, err.Error())
			return false
		}
		prev, err := s.db.CheckShardVersion(v)
		if err != nil {
			if errors.Is(err, engine.ErrShardStale) {
				p.Fail(wire.CodeShardStale, err.Error())
				return false
			}
			return p.SendErr(wire.CodeSQL, err)
		}
		return p.WriteFrame(wire.OpShardCheckReply, wire.EncodeShardCheckReply(prev)) == nil
	case wire.OpKeyExport:
		return s.serveKeyExport(p)
	case wire.OpTraceDump:
		mode, id, err := wire.DecodeTraceDump(payload)
		if err != nil {
			p.Fail(wire.CodeProtocol, err.Error())
			return false
		}
		return s.serveTraceDump(p, mode, id)
	case wire.OpAuditTail:
		n, err := wire.DecodeAuditTail(payload)
		if err != nil {
			p.Fail(wire.CodeProtocol, err.Error())
			return false
		}
		evs := s.db.AuditLog().Tail(int(n))
		return p.WriteFrame(wire.OpAuditData, wire.EncodeAuditEvents(evs)) == nil
	case wire.OpSchema:
		script, err := s.db.CatalogScript()
		if err != nil {
			return p.SendErr(wire.CodeSQL, err)
		}
		return p.WriteFrame(wire.OpSchemaReply, []byte(script)) == nil
	default:
		p.Fail(wire.CodeProtocol, fmt.Sprintf("server: unknown opcode %#x", op))
		return false
	}
}

// serveStats answers OpStats with the full metrics snapshot.
func (s *Server) serveStats(p *Peer) bool {
	samples := s.db.Metrics().Snapshot()
	stats := make([]wire.Stat, len(samples))
	for i, sm := range samples {
		stats[i] = wire.Stat{Key: sm.Key, Value: sm.Value}
	}
	return p.WriteFrame(wire.OpStatsReply, wire.EncodeStats(stats)) == nil
}

// serveBackup streams one backup archive to the client as OpBackupChunk
// frames followed by OpBackupDone. The archive is produced on this
// session's goroutine over the engine's lock-free snapshot path, so a
// slow client throttles only its own stream, never the degradation
// engine or other sessions. A failure mid-stream is reported as a
// non-fatal OpError — frames are typed, so the session stays in sync
// and usable; the client discards the incomplete archive.
func (s *Server) serveBackup(p *Peer, req wire.BackupReq) bool {
	cw := &chunkWriter{p: p, max: s.backupChunkSize()}
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
		s.log("backup %s: %v", p.RemoteAddr(), err)
		return p.SendErr(wire.CodeSQL, err)
	}
	done := wire.EncodeBackupDone(wire.BackupDone{
		EndSeg: uint64(sum.End.Seg), EndOff: uint64(sum.End.Off),
		Tuples: uint64(sum.Tuples), Batches: uint64(sum.Batches),
	})
	return p.WriteFrame(wire.OpBackupDone, done) == nil
}

// serveKeyExport streams the epoch key store as OpBackupChunk frames
// followed by OpBackupDone (counts zero; only the byte stream matters).
// A shard bootstrap pairs it with OpBackup so the restored copy can
// decode every payload whose key was still live at export time.
func (s *Server) serveKeyExport(p *Peer) bool {
	ks := s.db.KeyStore()
	if ks == nil {
		return p.SendErr(wire.CodeSQL,
			errors.New("server: no key store to export (ephemeral database or plain log mode)"))
	}
	cw := &chunkWriter{p: p, max: s.backupChunkSize()}
	_, err := ks.ExportTo(cw)
	if err == nil {
		err = cw.flush()
	}
	if err != nil {
		if cw.err != nil {
			return false // the connection itself is dead
		}
		s.log("key export %s: %v", p.RemoteAddr(), err)
		return p.SendErr(wire.CodeSQL, err)
	}
	return p.WriteFrame(wire.OpBackupDone, wire.EncodeBackupDone(wire.BackupDone{})) == nil
}

// backupChunkSize bounds OpBackupChunk payloads: comfortably under the
// frame limit, capped so the stream pipelines instead of building one
// giant frame.
func (s *Server) backupChunkSize() int {
	n := s.maxFrame / 2
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
	p   *Peer
	buf []byte
	max int
	err error
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
	if err := cw.p.WriteFrame(wire.OpBackupChunk, cw.buf); err != nil {
		cw.err = err
		return err
	}
	cw.buf = cw.buf[:0]
	return nil
}

// exec runs one OpExec statement, in its partial form when the frame
// asks for it, with tracing and the slow-query log.
// A non-zero trace id forces a trace rooted under the caller's span, so
// a router scatter and its shards later stitch into one cross-process
// tree; otherwise local sampling decides. When nothing traces the
// statement, it runs with zero tracing state and the hot path pays only
// untaken nil checks.
func (s *Server) exec(sess *session, e wire.Exec) (*engine.Result, error) {
	var t *trace.T
	var root *trace.S
	if e.TraceID != 0 {
		t, root = s.db.Tracer().StartRemote(e.TraceID, e.ParentSpanID, "serve_exec")
	} else if t, root = s.db.Tracer().Start("exec"); root != nil {
		root.Attr("sql", e.SQL)
	}
	if root != nil {
		sess.conn.AttachTrace(t, root)
	}
	start := time.Now()
	exec := sess.conn.Exec
	if e.Partial {
		exec = sess.conn.ExecPartial
	}
	res, err := exec(e.SQL, e.Args...)
	d := time.Since(start)
	if root != nil {
		sess.conn.DetachTrace()
		root.End()
	}
	if s.opts.SlowQuery > 0 && d >= s.opts.SlowQuery {
		s.slowf("slow query (%v): %s%s", d.Round(10*time.Microsecond), e.SQL, spanBreakdown(t))
	}
	return res, err
}

// serveTraceDump answers OpTraceDump from the tracer's bounded rings.
func (s *Server) serveTraceDump(p *Peer, mode byte, id uint64) bool {
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
	return p.WriteFrame(wire.OpTraceData, wire.EncodeTraceRecs(recs)) == nil
}

// slowf routes a slow-query line to SlowLogf, falling back to Logf.
func (s *Server) slowf(format string, args ...any) {
	if s.opts.SlowLogf != nil {
		s.opts.SlowLogf(format, args...)
		return
	}
	s.log(format, args...)
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
// write rejections and unknown purposes get their own non-fatal codes
// so clients can branch (redirect the write to the leader, pick another
// purpose) without string matching.
func sqlCode(err error) uint16 {
	switch {
	case errors.Is(err, engine.ErrReadOnlyReplica):
		return wire.CodeReadOnlyReplica
	case errors.Is(err, engine.ErrUnknownPurpose):
		return wire.CodeUnknownPurpose
	}
	return wire.CodeSQL
}

// wireResult renders a statement result for the wire.
func wireResult(res *engine.Result) *wire.Result {
	wres := &wire.Result{
		RowsAffected: uint64(res.RowsAffected),
		LastInsertID: uint64(res.LastInsertID),
	}
	if res.Rows != nil {
		wres.Rows = &wire.Rows{Columns: res.Rows.Columns, Data: res.Rows.Data}
	}
	return wres
}
