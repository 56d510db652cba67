package sqldriver

import (
	"context"
	"database/sql"
	"errors"
	"net"
	"testing"
	"time"

	"instantdb/client"
	"instantdb/internal/engine"
	"instantdb/internal/server"
	"instantdb/internal/vclock"
)

const schema = `
CREATE DOMAIN location TREE LEVELS (address, city, region, country)
  PATH ('Dam 1', 'Amsterdam', 'Noord-Holland', 'Netherlands')
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
  at TIMESTAMP,
  score FLOAT,
  flagged BOOL,
  place TEXT DEGRADABLE DOMAIN location POLICY locpol
);
DECLARE PURPOSE stats SET ACCURACY LEVEL country FOR visits.place;
`

// startServer serves an ephemeral database on loopback and returns its
// address for DSNs.
func startServer(t *testing.T) string {
	t.Helper()
	db, err := engine.Open(engine.Config{Clock: vclock.NewSimulated(vclock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ExecScript(schema); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
		db.Close()
	})
	return ln.Addr().String()
}

func open(t *testing.T, dsn string) *sql.DB {
	t.Helper()
	db, err := sql.Open("instantdb", dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestRoundTrip is the acceptance criterion: open, exec with args,
// query rows, and a transaction commit/rollback — all through the
// standard library against a live server.
func TestRoundTrip(t *testing.T) {
	addr := startServer(t)
	db := open(t, addr)
	if err := db.Ping(); err != nil {
		t.Fatal(err)
	}

	at := time.Date(2008, 4, 7, 12, 0, 0, 0, time.UTC)
	res, err := db.Exec("INSERT INTO visits (id, who, at, score, flagged, place) VALUES (?, ?, ?, ?, ?, ?)",
		1, "o'hara", at, 0.75, true, "Dam 1")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 1 {
		t.Fatalf("RowsAffected = %d, want 1", n)
	}
	if _, err := db.Exec("INSERT INTO visits (id, who, place) VALUES (?, ?, ?)",
		2, "anciaux", "10 rue de Rivoli"); err != nil {
		t.Fatal(err)
	}

	var (
		who     string
		gotAt   time.Time
		score   float64
		flagged bool
		place   string
	)
	err = db.QueryRow("SELECT who, at, score, flagged, place FROM visits WHERE id = ?", 1).
		Scan(&who, &gotAt, &score, &flagged, &place)
	if err != nil {
		t.Fatal(err)
	}
	if who != "o'hara" || !gotAt.Equal(at) || score != 0.75 || !flagged || place != "Dam 1" {
		t.Fatalf("scanned row = %q %v %v %v %q", who, gotAt, score, flagged, place)
	}

	// NULL columns scan through sql.Null*.
	var nullAt sql.NullTime
	if err := db.QueryRow("SELECT at FROM visits WHERE id = ?", 2).Scan(&nullAt); err != nil {
		t.Fatal(err)
	}
	if nullAt.Valid {
		t.Fatalf("missing timestamp scanned as %v, want NULL", nullAt)
	}

	// Multi-row iteration.
	rows, err := db.Query("SELECT id, who FROM visits ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for rows.Next() {
		var id int64
		var w string
		if err := rows.Scan(&id, &w); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("ids = %v", ids)
	}

	// A nil []byte argument is SQL NULL (driver convention), not ''.
	var nilBytes []byte
	if _, err := db.Exec("INSERT INTO visits (id, who, at, place) VALUES (?, ?, ?, ?)",
		3, "z", nilBytes, "Dam 1"); err != nil {
		t.Fatal(err)
	}
	if err := db.QueryRow("SELECT at FROM visits WHERE id = ?", 3).Scan(&nullAt); err != nil {
		t.Fatal(err)
	}
	if nullAt.Valid {
		t.Fatalf("nil []byte stored as %v, want NULL", nullAt)
	}
}

func TestTransactions(t *testing.T) {
	addr := startServer(t)
	db := open(t, addr)
	// One session: the engine transaction is per connection.
	db.SetMaxOpenConns(1)

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO visits (id, who, place) VALUES (?, ?, ?)", 1, "a", "Dam 1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := db.QueryRow("SELECT COUNT(*) AS n FROM visits").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("rolled-back insert visible: %d rows", n)
	}

	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO visits (id, who, place) VALUES (?, ?, ?)", 1, "a", "Dam 1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.QueryRow("SELECT COUNT(*) AS n FROM visits").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("committed insert invisible: %d rows", n)
	}

	// A failing statement aborts the engine transaction: further
	// statements on the tx are refused (no silent autocommit), and
	// Rollback returns nil rather than a spurious "no open transaction".
	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO visits (id, who, place) VALUES (?, ?, ?)", 2, nil, "Dam 1"); err == nil {
		t.Fatal("NULL into NOT NULL column should fail")
	}
	if _, err := tx.Exec("INSERT INTO visits (id, who, place) VALUES (?, ?, ?)", 3, "c", "Dam 1"); err == nil {
		t.Fatal("statement after abort should be refused, not autocommitted")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("rollback after failed statement: %v", err)
	}
	if err := db.QueryRow("SELECT COUNT(*) AS n FROM visits").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("aborted transaction leaked writes: %d rows, want 1", n)
	}
}

// TestReadOnlyTransaction maps sql.TxOptions{ReadOnly: true} onto the
// engine's snapshot path: consistent reads, writes refused.
func TestReadOnlyTransaction(t *testing.T) {
	addr := startServer(t)
	db := open(t, addr)
	if _, err := db.Exec(`INSERT INTO visits (id, who, place) VALUES (?, ?, ?)`, 1, "alice", "Dam 1"); err != nil {
		t.Fatal(err)
	}

	tx, err := db.BeginTx(context.Background(), &sql.TxOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	var who string
	if err := tx.QueryRow(`SELECT who FROM visits WHERE id = ?`, 1).Scan(&who); err != nil || who != "alice" {
		t.Fatalf("read-only tx read: who=%q err=%v", who, err)
	}
	// A write on the pool stays invisible to the pinned snapshot...
	if _, err := db.Exec(`INSERT INTO visits (id, who, place) VALUES (?, ?, ?)`, 2, "bob", "Dam 1"); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := tx.QueryRow(`SELECT COUNT(*) AS n FROM visits`).Scan(&n); err != nil || n != 1 {
		t.Fatalf("snapshot count = %d err=%v, want 1", n, err)
	}
	// ...and writes inside the transaction fail.
	if _, err := tx.Exec(`INSERT INTO visits (id, who, place) VALUES (?, ?, ?)`, 3, "x", "Dam 1"); err == nil {
		t.Fatal("write inside read-only transaction must fail")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := db.QueryRow(`SELECT COUNT(*) AS n FROM visits`).Scan(&n); err != nil || n != 2 {
		t.Fatalf("post-tx count = %d err=%v, want 2", n, err)
	}
}

// TestSetPurposeRejected pins the pool-uniformity invariant: session-
// scoped SET PURPOSE cannot reach a pooled connection.
func TestSetPurposeRejected(t *testing.T) {
	addr := startServer(t)
	db := open(t, addr)
	if _, err := db.Exec("SET PURPOSE stats"); err == nil {
		t.Fatal("SET PURPOSE through the pool should be rejected")
	}
	if _, err := db.Query("set purpose stats"); err == nil {
		t.Fatal("lowercase SET PURPOSE should be rejected too")
	}
	if _, err := db.Prepare("SET PURPOSE stats"); err == nil {
		t.Fatal("preparing SET PURPOSE should be rejected")
	}
	// Text transaction control is equally session-scoped: a text BEGIN
	// would open a transaction on one random pooled session, silently
	// rolled back when the connection recycles.
	for _, q := range []string{"BEGIN", "commit", "Rollback", "BEGIN;", "  begin ;", "-- c\nROLLBACK;", "SET\nPURPOSE stats"} {
		if _, err := db.Exec(q); err == nil {
			t.Fatalf("text %q through the pool should be rejected", q)
		}
	}
	// The guard must not swallow legitimate statements.
	if _, err := db.Exec("-- comment\nINSERT INTO visits (id, who, place) VALUES (?, ?, ?)", 1, "a", "Dam 1"); err != nil {
		t.Fatalf("comment-prefixed insert rejected: %v", err)
	}
}

func TestPreparedStatements(t *testing.T) {
	addr := startServer(t)
	db := open(t, addr)

	ins, err := db.Prepare("INSERT INTO visits (id, who, place) VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	for i := 1; i <= 5; i++ {
		if _, err := ins.Exec(i, "w", "Dam 1"); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// NumInput is known, so database/sql rejects wrong arity client-side.
	if _, err := ins.Exec(6, "w"); err == nil {
		t.Fatal("2 args for 3 params should fail")
	}

	sel, err := db.Prepare("SELECT who FROM visits WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	var who string
	if err := sel.QueryRow(3).Scan(&who); err != nil {
		t.Fatal(err)
	}
	if who != "w" {
		t.Fatalf("who = %q", who)
	}
}

// TestPurposeDSN verifies the purpose parameter shapes every pooled
// session's accuracy view.
func TestPurposeDSN(t *testing.T) {
	addr := startServer(t)
	full := open(t, addr)
	if _, err := full.Exec("INSERT INTO visits (id, who, place) VALUES (?, ?, ?)", 1, "a", "Dam 1"); err != nil {
		t.Fatal(err)
	}

	stats := open(t, addr+"?purpose=stats")
	var place string
	if err := stats.QueryRow("SELECT place FROM visits WHERE id = ?", 1).Scan(&place); err != nil {
		t.Fatal(err)
	}
	if place != "Netherlands" {
		t.Fatalf("stats purpose sees %q, want country accuracy", place)
	}

	bad := open(t, addr+"?purpose=nosuch")
	if err := bad.Ping(); !errors.Is(err, client.ErrUnknownPurpose) {
		t.Fatalf("unknown purpose ping: %v, want ErrUnknownPurpose", err)
	}
}

func TestDSNErrors(t *testing.T) {
	d := &Driver{}
	for _, dsn := range []string{"", "host:1?bogus=1", "host:1?coarse=maybe", "host:1?maxframe=-2", "host:1?purpose=%zz"} {
		if _, err := d.OpenConnector(dsn); err == nil {
			t.Errorf("OpenConnector(%q) should fail", dsn)
		}
	}
	if _, err := d.OpenConnector("host:1?purpose=stats&coarse=1&maxframe=1048576"); err != nil {
		t.Errorf("valid DSN rejected: %v", err)
	}
}
