package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"instantdb/internal/metrics"
	"instantdb/internal/wire"
)

// Front is the TCP front end the database server and the shard router
// share: the accept loop, connection tracking under the MaxConns cap,
// the Hello check, the frame loop with its size guard, the frame
// writers and the front-end instruments. A role plugs in only the
// session it opens for an admitted Hello.
type Front struct {
	role     string // "server" or "router": metric prefix and message prefix
	maxConns int
	maxFrame int
	logf     func(format string, args ...any)
	admit    func(p *Peer, h wire.Hello) (Session, error)
	// replHello, when set, takes over a connection whose first frame is
	// OpReplHello; the connection ends when it returns.
	replHello func(p *Peer, payload []byte)
	met       frontMetrics

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// A Session is one admitted connection's role-side state.
type Session interface {
	// Serve answers one request frame; false ends the session.
	Serve(p *Peer, op byte, payload []byte) bool
	// Close releases the session when its connection ends.
	Close()
}

// frontMetrics holds the instantdb_<role>_* front-end instruments.
type frontMetrics struct {
	conns      *metrics.Gauge
	framesIn   *metrics.Counter
	framesOut  *metrics.Counter
	busy       *metrics.Counter
	reqSeconds *metrics.HistogramVec
}

// NewFront builds a role's front end. admit opens the role's session
// for a Hello whose magic and version have been checked; when it fails
// it has already answered the peer. maxFrame <= 0 means
// wire.MaxFrameDefault and maxConns 0 no cap.
func NewFront(role string, reg *metrics.Registry, maxConns, maxFrame int, logf func(string, ...any),
	admit func(p *Peer, h wire.Hello) (Session, error)) *Front {
	if maxFrame <= 0 {
		maxFrame = wire.MaxFrameDefault
	}
	name := "instantdb_" + role + "_"
	return &Front{role: role, maxConns: maxConns, maxFrame: maxFrame, logf: logf, admit: admit,
		conns: make(map[net.Conn]struct{}),
		met: frontMetrics{
			conns: reg.Gauge(name+"active_conns",
				"Client connections currently being served."),
			framesIn: reg.Counter(name+"frames_in_total",
				"Request frames read from clients."),
			framesOut: reg.Counter(name+"frames_out_total",
				"Response frames written to clients."),
			busy: reg.Counter(name+"busy_rejects_total",
				"Connections rejected over the MaxConns limit (CodeServerBusy)."),
			reqSeconds: reg.HistogramVec(name+"request_seconds",
				"Request handling latency by opcode.", "op", nil),
		}}
}

// opNames labels request opcodes in metrics.
var opNames = [256]string{
	wire.OpPing: "ping", wire.OpExec: "exec", wire.OpBackup: "backup", wire.OpStats: "stats",
	wire.OpShardCheck: "shard_check", wire.OpKeyExport: "key_export", wire.OpSchema: "schema",
	wire.OpTraceDump: "trace_dump", wire.OpAuditTail: "audit_tail",
}

// opName renders a request opcode as a metric label.
func opName(op byte) string {
	if name := opNames[op]; name != "" {
		return name
	}
	return fmt.Sprintf("0x%02x", op)
}

// Serve accepts connections on ln until Close. It returns nil after a
// graceful Close, or the first fatal Accept error.
func (f *Front) Serve(ln net.Listener) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		ln.Close()
		return fmt.Errorf("%s: already closed", f.role)
	}
	f.ln = ln
	f.mu.Unlock()

	for {
		nc, err := ln.Accept()
		if err != nil {
			f.mu.Lock()
			closed := f.closed
			f.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if !f.track(nc) {
			continue
		}
		go func() {
			defer f.wg.Done()
			f.handle(nc)
		}()
	}
}

// Addr returns the bound listener address (nil before Serve).
func (f *Front) Addr() net.Addr {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ln == nil {
		return nil
	}
	return f.ln.Addr()
}

// Close stops accepting, closes every live connection and waits for the
// session goroutines to drain. It is idempotent.
func (f *Front) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	ln := f.ln
	for nc := range f.conns {
		nc.Close()
	}
	f.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	f.wg.Wait()
	return err
}

// track registers a new connection, enforcing MaxConns and the closed
// state, and reserves the session's WaitGroup slot while still under
// f.mu so Close cannot observe a zero counter between Accept and the
// handler goroutine starting. A rejected connection is answered and
// closed here.
func (f *Front) track(nc net.Conn) bool {
	f.mu.Lock()
	switch {
	case f.closed:
		f.mu.Unlock()
		(&Peer{f: f, nc: nc}).Fail(wire.CodeShutdown, f.role+": shutting down")
		nc.Close()
		return false
	case f.maxConns > 0 && len(f.conns) >= f.maxConns:
		f.mu.Unlock()
		f.met.busy.Inc()
		(&Peer{f: f, nc: nc}).Fail(wire.CodeServerBusy,
			fmt.Sprintf("%s: connection limit (%d) reached", f.role, f.maxConns))
		nc.Close()
		f.log("reject %s: connection limit", nc.RemoteAddr())
		return false
	}
	f.conns[nc] = struct{}{}
	f.wg.Add(1)
	f.mu.Unlock()
	f.met.conns.Inc()
	return true
}

func (f *Front) untrack(nc net.Conn) {
	f.mu.Lock()
	delete(f.conns, nc)
	f.mu.Unlock()
	f.met.conns.Dec()
}

func (f *Front) log(format string, args ...any) {
	if f.logf != nil {
		f.logf(format, args...)
	}
}

// handle runs one connection: handshake, then the request loop, timing
// every request under its opcode.
func (f *Front) handle(nc net.Conn) {
	defer f.untrack(nc)
	defer nc.Close()
	p := &Peer{f: f, nc: nc, br: bufio.NewReader(nc)}

	sess, err := f.handshake(p)
	if err != nil {
		if !errors.Is(err, io.EOF) {
			f.log("handshake %s: %v", nc.RemoteAddr(), err)
		}
		return
	}
	if sess == nil {
		return // a replication takeover ran to completion
	}
	defer sess.Close()
	if err := p.WriteFrame(wire.OpWelcome, wire.EncodeWelcome()); err != nil {
		return
	}
	for {
		op, payload, err := p.read()
		if err != nil {
			return
		}
		start := time.Now()
		ok := sess.Serve(p, op, payload)
		f.met.reqSeconds.With(opName(op)).Observe(time.Since(start))
		if !ok {
			return
		}
	}
}

// handshake checks the first frame and admits the role's session. A
// replication hello is handed to replHello instead and yields no
// session.
func (f *Front) handshake(p *Peer) (Session, error) {
	op, payload, err := p.read()
	if err != nil {
		return nil, err
	}
	if op == wire.OpReplHello && f.replHello != nil {
		f.replHello(p, payload)
		return nil, nil
	}
	if op != wire.OpHello {
		p.Fail(wire.CodeProtocol, fmt.Sprintf("%s: expected hello, got opcode %#x", f.role, op))
		return nil, fmt.Errorf("first frame opcode %#x", op)
	}
	h, err := wire.DecodeHello(payload)
	if err == nil {
		err = f.checkVersion(h.Version)
	}
	if err != nil {
		p.Fail(wire.CodeProtocol, err.Error())
		return nil, err
	}
	return f.admit(p, h)
}

// checkVersion refuses a handshake that speaks another protocol version.
func (f *Front) checkVersion(v uint16) error {
	if v != wire.Version {
		return fmt.Errorf("%s: protocol version %d unsupported (want %d)", f.role, v, wire.Version)
	}
	return nil
}

// Peer is one client connection as a session answers it. Its writers
// count every frame they send.
type Peer struct {
	f  *Front
	nc net.Conn
	br *bufio.Reader
}

// RemoteAddr is the client's address.
func (p *Peer) RemoteAddr() net.Addr { return p.nc.RemoteAddr() }

// read reads one request frame, reporting an oversized one to the peer
// before failing the session.
func (p *Peer) read() (byte, []byte, error) {
	op, payload, err := wire.ReadFrame(p.br, p.f.maxFrame)
	if err != nil {
		if errors.Is(err, wire.ErrFrameTooLarge) {
			p.Fail(wire.CodeFrameTooLarge, err.Error())
		}
		return 0, nil, err
	}
	p.f.met.framesIn.Inc()
	return op, payload, nil
}

// WriteFrame writes one response frame.
func (p *Peer) WriteFrame(op byte, payload []byte) error {
	err := wire.WriteFrame(p.nc, op, payload)
	if err == nil {
		p.f.met.framesOut.Inc()
	}
	return err
}

// SendResult answers with a statement result. A result over the frame
// limit would be rejected by the peer's own limit and poison its
// session, so it is refused as a statement error instead: the client
// can narrow the query and carry on.
func (p *Peer) SendResult(res *wire.Result) bool {
	payload := wire.EncodeResult(res)
	if len(payload) > p.f.maxFrame {
		return p.SendErr(wire.CodeSQL, fmt.Errorf(
			"%s: result is %d bytes, over the %d-byte frame limit; narrow the query (LIMIT, fewer columns)",
			p.f.role, len(payload), p.f.maxFrame))
	}
	return p.WriteFrame(wire.OpResult, payload) == nil
}

// SendErr answers with a non-fatal error; the session goes on.
func (p *Peer) SendErr(code uint16, err error) bool {
	return p.WriteFrame(wire.OpError, wire.EncodeError(code, err.Error())) == nil
}

// Fail sends a fatal error frame; the caller ends the session.
func (p *Peer) Fail(code uint16, msg string) {
	p.WriteFrame(wire.OpError, wire.EncodeError(code, msg))
}
