package server_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"instantdb/client"
	"instantdb/internal/engine"
	"instantdb/internal/metrics"
	"instantdb/internal/server"
	"instantdb/internal/shard"
	"instantdb/internal/vclock"
	"instantdb/internal/wire"
)

// paperSchema is the paper's running example plus the purposes the
// tests dial in with.
const paperSchema = `
CREATE DOMAIN location TREE LEVELS (address, city, region, country)
  PATH ('Dam 1', 'Amsterdam', 'Noord-Holland', 'Netherlands')
  PATH ('Coolsingel 40', 'Rotterdam', 'Zuid-Holland', 'Netherlands')
  PATH ('10 rue de Rivoli', 'Paris', 'Ile-de-France', 'France');
CREATE POLICY locpol ON location (
  HOLD address FOR '15m',
  HOLD city FOR '1h',
  HOLD region FOR '1d',
  HOLD country FOR '1mo'
) THEN DELETE;
CREATE TABLE visits (
  id INT PRIMARY KEY,
  who TEXT NOT NULL,
  place TEXT DEGRADABLE DOMAIN location POLICY locpol
);
DECLARE PURPOSE cities SET ACCURACY LEVEL city FOR visits.place;
DECLARE PURPOSE stats SET ACCURACY LEVEL country FOR visits.place;
`

// roles are the two front ends that serve the wire protocol: the
// database server, and the shard router over one such server.
var roles = []string{"server", "router"}

// front is one role's front end under test.
type front struct {
	role  string
	db    *engine.DB // the database behind it
	clock *vclock.Simulated
	addr  string
	reg   *metrics.Registry // where its instantdb_<role>_* instruments live
	// stop closes the front end and reports Serve's return, which must be
	// nil after a graceful Close. It runs once; the test's cleanup calls
	// it too.
	stop func() error
}

// startFront opens a database on a simulated clock, installs the
// schema, and serves it on a loopback listener behind role's front end.
// The server's database is ephemeral. A router takes the same MaxConns
// and MaxFrame and routes to a durable database (it mirrors the
// schema from the catalog file) through a server of its own.
func startFront(t *testing.T, role string, opts server.Options) *front {
	t.Helper()
	clock := vclock.NewSimulated(vclock.Epoch)
	cfg := engine.Config{Clock: clock}
	if role == "router" {
		cfg.Dir = t.TempDir()
	}
	db, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.ExecScript(paperSchema); err != nil {
		t.Fatal(err)
	}
	f := &front{role: role, db: db, clock: clock}
	if role == "server" {
		f.addr, f.stop = serve(t, server.New(db, opts))
		f.reg = db.Metrics()
		return f
	}
	shardAddr, _ := serve(t, server.New(db, server.Options{}))
	r, err := shard.New(context.Background(), shard.Uniform([]shard.Info{{Name: "s0", Addr: shardAddr}}),
		shard.Options{MaxConns: opts.MaxConns, MaxFrame: opts.MaxFrame})
	if err != nil {
		t.Fatal(err)
	}
	f.addr, f.stop = serve(t, r)
	f.reg = r.Metrics()
	return f
}

// serve runs a front end on a loopback listener until the test ends.
func serve(t *testing.T, fe interface {
	Serve(net.Listener) error
	Close() error
}) (string, func() error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- fe.Serve(ln) }()
	var once sync.Once
	var stopErr error
	stop := func() error {
		once.Do(func() {
			stopErr = fe.Close()
			if err := <-done; err != nil {
				stopErr = fmt.Errorf("serve: %w", err)
			}
		})
		return stopErr
	}
	t.Cleanup(func() {
		if err := stop(); err != nil {
			t.Error(err)
		}
	})
	return ln.Addr().String(), stop
}

// startServer serves the paper schema from the database server.
func startServer(t *testing.T, opts server.Options) (*engine.DB, *vclock.Simulated, string) {
	t.Helper()
	f := startFront(t, "server", opts)
	return f.db, f.clock, f.addr
}

// sample reads one key from a registry snapshot (0 when absent).
func sample(reg *metrics.Registry, key string) float64 {
	for _, s := range reg.Snapshot() {
		if s.Key == key {
			return s.Value
		}
	}
	return 0
}

func dial(t *testing.T, addr string, opts ...client.Option) *client.Conn {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := client.Dial(ctx, addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestRemoteMatchesEmbedded is the acceptance criterion: a remote
// session observes exactly the purpose-limited views an embedded
// engine.Conn with the same purpose does.
func TestRemoteMatchesEmbedded(t *testing.T) {
	db, _, addr := startServer(t, server.Options{})
	ctx := ctxT(t)

	c := dial(t, addr)
	if _, err := c.Exec(ctx, `INSERT INTO visits (id, who, place) VALUES (1, 'anciaux', '10 rue de Rivoli')`); err != nil {
		t.Fatal(err)
	}
	if err := c.SetPurpose(ctx, "stats"); err != nil {
		t.Fatal(err)
	}
	remote, err := c.Query(ctx, `SELECT who, place FROM visits`)
	if err != nil {
		t.Fatal(err)
	}

	emb := db.NewConn()
	if err := emb.SetPurpose("stats"); err != nil {
		t.Fatal(err)
	}
	local, err := emb.Exec(`SELECT who, place FROM visits`)
	if err != nil {
		t.Fatal(err)
	}
	if remote.Len() != 1 || local.Rows.Len() != 1 {
		t.Fatalf("row counts: remote %d local %d", remote.Len(), local.Rows.Len())
	}
	for i := range remote.Data[0] {
		r, l := remote.Data[0][i], local.Rows.Data[0][i]
		if r.Kind() != l.Kind() || r.String() != l.String() {
			t.Fatalf("col %d: remote %v local %v", i, r, l)
		}
	}
	if got := remote.Data[0][1].String(); got != "France" {
		t.Fatalf("stats purpose must see country accuracy, got %q", got)
	}
}

// TestSetPurposeViaSQL checks SET PURPOSE works as a plain statement
// over the wire too (the shell's remote mode relies on it).
func TestSetPurposeViaSQL(t *testing.T) {
	_, _, addr := startServer(t, server.Options{})
	ctx := ctxT(t)
	c := dial(t, addr)
	if _, err := c.Exec(ctx, `INSERT INTO visits (id, who, place) VALUES (1, 'x', 'Dam 1')`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, `SET PURPOSE cities`); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(ctx, `SELECT place FROM visits`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Data[0][0].String() != "Amsterdam" {
		t.Fatalf("cities purpose: got %+v", rows.Data)
	}
}

// TestConcurrentClients drives 9 purposed sessions in parallel: three
// inserters at full accuracy, three "cities" readers, three "stats"
// readers, all against one server. Run under -race this is the
// concurrent-session safety check demanded by the engine contract.
func TestConcurrentClients(t *testing.T) {
	_, _, addr := startServer(t, server.Options{})

	places := []string{"Dam 1", "Coolsingel 40", "10 rue de Rivoli"}
	cityOf := map[string]string{"Dam 1": "Amsterdam", "Coolsingel 40": "Rotterdam", "10 rue de Rivoli": "Paris"}
	countryOf := map[string]string{"Dam 1": "Netherlands", "Coolsingel 40": "Netherlands", "10 rue de Rivoli": "France"}

	const perWriter = 20
	var wg sync.WaitGroup
	errc := make(chan error, 64)

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			c, err := client.Dial(ctx, addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for i := 0; i < perWriter; i++ {
				id := w*perWriter + i + 1
				stmt := fmt.Sprintf(`INSERT INTO visits (id, who, place) VALUES (%d, 'w%d', '%s')`,
					id, w, places[id%len(places)])
				if _, err := c.Exec(ctx, stmt); err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 6; r++ {
		purpose, level := "cities", cityOf
		if r%2 == 1 {
			purpose, level = "stats", countryOf
		}
		wg.Add(1)
		go func(r int, purpose string, level map[string]string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			c, err := client.Dial(ctx, addr, client.WithPurpose(purpose))
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			allowed := make(map[string]bool)
			for _, v := range level {
				allowed[v] = true
			}
			for i := 0; i < 30; i++ {
				rows, err := c.Query(ctx, `SELECT who, place FROM visits`)
				if err != nil {
					errc <- fmt.Errorf("reader %d (%s): %w", r, purpose, err)
					return
				}
				for _, row := range rows.Data {
					if got := row[1].String(); !allowed[got] {
						errc <- fmt.Errorf("reader %d (%s): leaked accuracy %q", r, purpose, got)
						return
					}
				}
			}
		}(r, purpose, level)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// All writes must have landed exactly once.
	ctx := ctxT(t)
	c := dial(t, addr)
	rows, err := c.Query(ctx, `SELECT count(*) FROM visits`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0].Int(); got != 3*perWriter {
		t.Fatalf("want %d rows, got %d", 3*perWriter, got)
	}
}

// TestDegradationVisibleToConnectedClients forces a transition while
// clients stay connected: the full-accuracy session loses the tuples
// (state address is no longer computable), the stats session keeps its
// country view.
func TestDegradationVisibleToConnectedClients(t *testing.T) {
	db, clock, addr := startServer(t, server.Options{})
	ctx := ctxT(t)

	full := dial(t, addr)
	stats := dial(t, addr, client.WithPurpose("stats"))
	if _, err := full.Exec(ctx, `INSERT INTO visits (id, who, place) VALUES (1, 'x', 'Dam 1')`); err != nil {
		t.Fatal(err)
	}

	rows, err := full.Query(ctx, `SELECT place FROM visits`)
	if err != nil || rows.Len() != 1 || rows.Data[0][0].String() != "Dam 1" {
		t.Fatalf("before degradation: rows=%+v err=%v", rows, err)
	}

	clock.Advance(16 * time.Minute) // past HOLD address FOR '15m'
	if n, err := db.DegradeNow(); err != nil || n == 0 {
		t.Fatalf("DegradeNow: n=%d err=%v", n, err)
	}

	rows, err = full.Query(ctx, `SELECT place FROM visits`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 0 {
		t.Fatalf("full accuracy after degradation: want 0 rows, got %+v", rows.Data)
	}
	rows, err = stats.Query(ctx, `SELECT place FROM visits`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Data[0][0].String() != "Netherlands" {
		t.Fatalf("stats after degradation: got %+v", rows.Data)
	}
}

// TestTransactions exercises the Begin/Commit/Rollback frames.
func TestTransactions(t *testing.T) {
	_, _, addr := startServer(t, server.Options{})
	ctx := ctxT(t)
	c := dial(t, addr)

	if err := c.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, `INSERT INTO visits (id, who, place) VALUES (1, 'x', 'Dam 1')`); err != nil {
		t.Fatal(err)
	}
	if err := c.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(ctx, `SELECT id FROM visits`)
	if err != nil || rows.Len() != 0 {
		t.Fatalf("after rollback: rows=%+v err=%v", rows, err)
	}

	if err := c.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, `INSERT INTO visits (id, who, place) VALUES (2, 'y', 'Dam 1')`); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	rows, err = c.Query(ctx, `SELECT id FROM visits`)
	if err != nil || rows.Len() != 1 {
		t.Fatalf("after commit: rows=%+v err=%v", rows, err)
	}
	if err := c.Commit(ctx); err == nil {
		t.Fatal("commit outside transaction must fail")
	}
}

// TestReadOnlyTransaction drives BEGIN READ ONLY end-to-end over the
// wire: snapshot reads across concurrent commits, deadline-crossing
// degradation visible mid-transaction, and writes refused.
func TestReadOnlyTransaction(t *testing.T) {
	db, clock, addr := startServer(t, server.Options{})
	ctx := ctxT(t)

	seed := dial(t, addr)
	if _, err := seed.Exec(ctx, `INSERT INTO visits (id, who, place) VALUES (1, 'alice', 'Dam 1')`); err != nil {
		t.Fatal(err)
	}

	ro := dial(t, addr, client.WithPurpose("stats"))
	if err := ro.BeginReadOnly(ctx); err != nil {
		t.Fatal(err)
	}
	rows, err := ro.Query(ctx, `SELECT who FROM visits`)
	if err != nil || rows.Len() != 1 {
		t.Fatalf("snapshot read: %d rows err=%v", rows.Len(), err)
	}

	// A commit on another session stays invisible to the pinned snapshot.
	if _, err := seed.Exec(ctx, `INSERT INTO visits (id, who, place) VALUES (2, 'bob', 'Coolsingel 40')`); err != nil {
		t.Fatal(err)
	}
	rows, err = ro.Query(ctx, `SELECT who FROM visits`)
	if err != nil || rows.Len() != 1 {
		t.Fatalf("snapshot read after concurrent insert: %d rows err=%v", rows.Len(), err)
	}

	// Writes are refused and abort the transaction; Rollback recovers.
	if _, err := ro.Exec(ctx, `INSERT INTO visits (id, who, place) VALUES (3, 'x', 'Dam 1')`); err == nil {
		t.Fatal("write inside read-only transaction must fail")
	}
	if err := ro.Rollback(ctx); err != nil {
		t.Fatal(err)
	}

	// A degradation deadline crossing during a read-only transaction is
	// visible (the documented deviation): the tick is never delayed.
	if err := ro.BeginReadOnly(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Query(ctx, `SELECT place FROM visits`); err != nil {
		t.Fatal(err)
	}
	clock.Advance(16 * time.Minute)
	if _, err := db.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	if st := db.Degrader().Stats(); st.LockSkips != 0 {
		t.Fatalf("degrader skipped %d locks with only a read-only transaction open", st.LockSkips)
	}
	rows, err = ro.Query(ctx, `SELECT place FROM visits WHERE id = 1`)
	if err != nil || rows.Len() != 1 || rows.Data[0][0].Text() != "Netherlands" {
		t.Fatalf("straddling read = %v err=%v, want degraded rendering", rows.Data, err)
	}
	if err := ro.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDisconnectReleasesLocks drops a client mid-transaction and checks
// the server rolled it back (its row locks are released, its writes are
// gone).
func TestDisconnectReleasesLocks(t *testing.T) {
	db, _, addr := startServer(t, server.Options{})
	ctx := ctxT(t)

	c := dial(t, addr)
	if err := c.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, `INSERT INTO visits (id, who, place) VALUES (1, 'x', 'Dam 1')`); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// The rollback is asynchronous with the close; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := db.Exec(`INSERT INTO visits (id, who, place) VALUES (1, 'y', 'Dam 1')`)
		if err == nil && res.RowsAffected == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("orphaned transaction still holds its locks: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSQLErrorsKeepSession checks statement failures are non-fatal.
func TestSQLErrorsKeepSession(t *testing.T) {
	_, _, addr := startServer(t, server.Options{})
	ctx := ctxT(t)
	c := dial(t, addr)

	if _, err := c.Exec(ctx, `SELECT nope FROM nowhere`); err == nil {
		t.Fatal("want SQL error")
	} else {
		var werr *client.Error
		if !errors.As(err, &werr) || werr.Code != wire.CodeSQL || werr.Fatal() {
			t.Fatalf("want non-fatal CodeSQL, got %v", err)
		}
	}
	if err := c.SetPurpose(ctx, "no-such-purpose"); err == nil {
		t.Fatal("want unknown-purpose error")
	}
	// The session survives both failures.
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, `INSERT INTO visits (id, who, place) VALUES (1, 'x', 'Dam 1')`); err != nil {
		t.Fatal(err)
	}
}

// TestHandshakeUnknownPurpose rejects a Dial naming an undeclared
// purpose.
func TestHandshakeUnknownPurpose(t *testing.T) {
	_, _, addr := startServer(t, server.Options{})
	ctx := ctxT(t)
	_, err := client.Dial(ctx, addr, client.WithPurpose("nonexistent"))
	var werr *client.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeUnknownPurpose {
		t.Fatalf("want CodeUnknownPurpose, got %v", err)
	}
}

// rawConn dials without the client package, for protocol-abuse tests.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	return nc
}

func expectError(t *testing.T, nc net.Conn, code uint16) {
	t.Helper()
	op, payload, err := wire.ReadFrame(nc, wire.MaxFrameDefault)
	if err != nil {
		t.Fatalf("reading error frame: %v", err)
	}
	if op != wire.OpError {
		t.Fatalf("want OpError, got opcode %#x", op)
	}
	werr, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if werr.Code != code {
		t.Fatalf("want error code %d, got %d (%s)", code, werr.Code, werr.Msg)
	}
}

// forRoles runs a test against each role's front end.
func forRoles(t *testing.T, opts server.Options, test func(t *testing.T, f *front)) {
	for _, role := range roles {
		t.Run(role, func(t *testing.T) { test(t, startFront(t, role, opts)) })
	}
}

// TestProtocolBadMagic sends an HTTP-looking first frame.
func TestProtocolBadMagic(t *testing.T) {
	forRoles(t, server.Options{}, func(t *testing.T, f *front) {
		nc := rawConn(t, f.addr)
		if err := wire.WriteFrame(nc, wire.OpHello, []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
			t.Fatal(err)
		}
		expectError(t, nc, wire.CodeProtocol)
	})
}

// TestProtocolWrongFirstOpcode requires Hello before anything else.
func TestProtocolWrongFirstOpcode(t *testing.T) {
	forRoles(t, server.Options{}, func(t *testing.T, f *front) {
		nc := rawConn(t, f.addr)
		if err := wire.WriteFrame(nc, wire.OpExec, []byte("SELECT 1")); err != nil {
			t.Fatal(err)
		}
		expectError(t, nc, wire.CodeProtocol)
	})
}

// TestProtocolBadVersion rejects a future protocol version.
func TestProtocolBadVersion(t *testing.T) {
	forRoles(t, server.Options{}, func(t *testing.T, f *front) {
		nc := rawConn(t, f.addr)
		h := wire.EncodeHello(wire.Hello{Version: wire.Version + 1})
		if err := wire.WriteFrame(nc, wire.OpHello, h); err != nil {
			t.Fatal(err)
		}
		expectError(t, nc, wire.CodeProtocol)
	})
}

// TestProtocolVersion1Refused: a client of protocol version 1 encodes
// INTs in 8 fixed bytes, which this build would misread.
func TestProtocolVersion1Refused(t *testing.T) { expectVersionRefused(t, 1) }

// TestProtocolVersion2Refused: a client of protocol version 2 sends
// statements under opcodes this build has retired, and an OpExec
// payload it would misread.
func TestProtocolVersion2Refused(t *testing.T) { expectVersionRefused(t, 2) }

// TestProtocolVersion3Refused: a client of protocol version 3 prepares
// statements under opcodes this build has retired.
func TestProtocolVersion3Refused(t *testing.T) { expectVersionRefused(t, 3) }

// TestProtocolVersion4Refused: a client of protocol version 4 sends an
// OpExec payload without the flags byte, which this build would misread.
func TestProtocolVersion4Refused(t *testing.T) { expectVersionRefused(t, 4) }

// TestProtocolVersion5Refused: a peer of protocol version 5 ships
// replication batches with stable rows written row by row, which this
// build would misread.
func TestProtocolVersion5Refused(t *testing.T) { expectVersionRefused(t, 5) }

// expectVersionRefused checks, on a server and on a router, that a
// Hello of an older protocol version is refused with CodeProtocol and
// the connection closes.
func expectVersionRefused(t *testing.T, v uint16) {
	t.Helper()
	forRoles(t, server.Options{}, func(t *testing.T, f *front) {
		nc := rawConn(t, f.addr)
		if err := wire.WriteFrame(nc, wire.OpHello, wire.EncodeHello(wire.Hello{Version: v})); err != nil {
			t.Fatal(err)
		}
		expectError(t, nc, wire.CodeProtocol)
		if _, _, err := wire.ReadFrame(nc, wire.MaxFrameDefault); err == nil {
			t.Fatal("connection must be closed after a refused version")
		}
	})
}

// TestProtocolOversizedFrame announces a payload over the frame limit
// and must be refused before the front end buffers it.
func TestProtocolOversizedFrame(t *testing.T) {
	forRoles(t, server.Options{MaxFrame: 4096}, func(t *testing.T, f *front) {
		nc := rawConn(t, f.addr)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 1<<30)
		if _, err := nc.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		expectError(t, nc, wire.CodeFrameTooLarge)
	})
}

// TestProtocolUnknownOpcode closes the session after an undefined
// request opcode: one never defined, and the prepared-statement opcodes
// of protocol version 3 (prepare, execute prepared, close statement).
func TestProtocolUnknownOpcode(t *testing.T) {
	forRoles(t, server.Options{}, func(t *testing.T, f *front) {
		for _, unknown := range []byte{0x7F, 0x09, 0x0A, 0x0B} {
			nc := rawConn(t, f.addr)
			if err := wire.WriteFrame(nc, wire.OpHello, wire.EncodeHello(wire.Hello{Version: wire.Version})); err != nil {
				t.Fatal(err)
			}
			op, _, err := wire.ReadFrame(nc, wire.MaxFrameDefault)
			if err != nil || op != wire.OpWelcome {
				t.Fatalf("handshake: op=%#x err=%v", op, err)
			}
			if err := wire.WriteFrame(nc, unknown, nil); err != nil {
				t.Fatal(err)
			}
			expectError(t, nc, wire.CodeProtocol)
			// The front end must then close the connection.
			if _, _, err := wire.ReadFrame(nc, wire.MaxFrameDefault); err == nil {
				t.Fatalf("opcode %#x: connection must be closed after a protocol error", unknown)
			}
		}
	})
}

// TestOversizedResult checks a result bigger than the frame limit comes
// back as a statement error, not a frame the client must reject, and
// the session survives.
func TestOversizedResult(t *testing.T) {
	_, _, addr := startServer(t, server.Options{MaxFrame: 4096})
	ctx := ctxT(t)
	c := dial(t, addr)

	big := make([]byte, 700)
	for i := range big {
		big[i] = 'x'
	}
	for i := 0; i < 10; i++ {
		stmt := fmt.Sprintf(`INSERT INTO visits (id, who, place) VALUES (%d, '%s', 'Dam 1')`, i+1, big)
		if _, err := c.Exec(ctx, stmt); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.Query(ctx, `SELECT id, who FROM visits`)
	var werr *client.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeSQL {
		t.Fatalf("want CodeSQL frame-limit error, got %v", err)
	}
	// Narrowing the query fits and the session still works.
	rows, err := c.Query(ctx, `SELECT id, who FROM visits LIMIT 2`)
	if err != nil || rows.Len() != 2 {
		t.Fatalf("narrowed query: rows=%v err=%v", rows, err)
	}
}

// TestMaxConns rejects sessions over the configured cap with a busy
// error, counts the reject, and frees the slot when a session ends.
func TestMaxConns(t *testing.T) {
	forRoles(t, server.Options{MaxConns: 2}, func(t *testing.T, f *front) {
		ctx := ctxT(t)
		c1 := dial(t, f.addr)
		dial(t, f.addr)
		_, err := client.Dial(ctx, f.addr)
		var werr *client.Error
		if !errors.As(err, &werr) || werr.Code != wire.CodeServerBusy {
			t.Fatalf("want CodeServerBusy, got %v", err)
		}
		busy := "instantdb_" + f.role + "_busy_rejects_total"
		if got := sample(f.reg, busy); got != 1 {
			t.Fatalf("%s = %v after one reject, want 1", busy, got)
		}

		c1.Close()
		deadline := time.Now().Add(5 * time.Second)
		for {
			c4, err := client.Dial(ctx, f.addr)
			if err == nil {
				c4.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("slot not released after close: %v", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestContextCancellation: a statement sent with a context canceled
// before the call fails with context.Canceled, does not run, and leaves
// the connection usable.
func TestContextCancellation(t *testing.T) {
	_, _, addr := startServer(t, server.Options{})
	c := dial(t, addr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Exec(ctx, `SELECT id FROM visits`); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := c.Exec(ctx, `INSERT INTO visits (id, who, place) VALUES (1, 'x', 'Dam 1')`); !errors.Is(err, context.Canceled) {
		t.Fatalf("insert: want context.Canceled, got %v", err)
	}
	live := ctxT(t)
	if err := c.Ping(live); err != nil {
		t.Fatalf("ping after canceled calls: %v", err)
	}
	rows, err := c.Query(live, `SELECT id FROM visits`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 0 {
		t.Fatalf("the canceled INSERT landed: %v", rows.Data)
	}
}

// TestGracefulClose drains sessions: Serve returns nil, new dials are
// refused, and the server rolls back a session's open transaction.
func TestGracefulClose(t *testing.T) {
	forRoles(t, server.Options{}, func(t *testing.T, f *front) {
		ctx := ctxT(t)
		c := dial(t, f.addr)
		if f.role == "server" {
			if err := c.Begin(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Exec(ctx, `INSERT INTO visits (id, who, place) VALUES (1, 'x', 'Dam 1')`); err != nil {
			t.Fatal(err)
		}

		if err := f.stop(); err != nil {
			t.Fatalf("graceful close: %v", err)
		}
		if f.role == "server" {
			// The orphaned transaction was rolled back during the drain.
			res, err := f.db.Exec(`INSERT INTO visits (id, who, place) VALUES (1, 'y', 'Dam 1')`)
			if err != nil || res.RowsAffected != 1 {
				t.Fatalf("post-shutdown insert: res=%+v err=%v", res, err)
			}
		}
		if _, err := client.Dial(ctx, f.addr); err == nil {
			t.Fatal("dial must fail after Close")
		}
	})
}
