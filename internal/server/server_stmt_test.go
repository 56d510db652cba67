package server_test

import (
	"errors"
	"fmt"
	"testing"

	"instantdb/client"
	"instantdb/internal/server"
	"instantdb/internal/value"
)

// TestPreparedOverTCP is the network acceptance criterion: prepared
// execution with bound args over the wire returns exactly what the
// equivalent text SQL does, under the session's purpose views, on a
// server and through the router.
func TestPreparedOverTCP(t *testing.T) {
	forRoles(t, server.Options{}, func(t *testing.T, f *front) { testPrepared(t, f.addr) })
}

func testPrepared(t *testing.T, addr string) {
	ctx := ctxT(t)
	c := dial(t, addr)

	ins, err := c.Prepare(ctx, "INSERT INTO visits (id, who, place) VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 3 {
		t.Fatalf("NumParams = %d, want 3", ins.NumParams())
	}
	places := []string{"Dam 1", "Coolsingel 40", "10 rue de Rivoli"}
	for i := int64(1); i <= 9; i++ {
		res, err := ins.Exec(ctx, value.Int(i), value.Text(fmt.Sprintf("w%d", i)), value.Text(places[i%3]))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if res.RowsAffected != 1 {
			t.Fatalf("insert %d affected %d", i, res.RowsAffected)
		}
	}
	if err := ins.Close(ctx); err != nil {
		t.Fatal(err)
	}

	if err := c.SetPurpose(ctx, "cities"); err != nil {
		t.Fatal(err)
	}
	sel, err := c.Prepare(ctx, "SELECT who FROM visits WHERE place = ? ORDER BY who")
	if err != nil {
		t.Fatal(err)
	}
	// At "cities" accuracy the bound constant is a city name.
	got, err := sel.Query(ctx, value.Text("Amsterdam"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Query(ctx, "SELECT who FROM visits WHERE place = 'Amsterdam' ORDER BY who")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || got.Len() == 0 {
		t.Fatalf("prepared %d rows, text %d rows", got.Len(), want.Len())
	}
	for i := range got.Data {
		if got.Data[i][0].String() != want.Data[i][0].String() {
			t.Fatalf("row %d: prepared %v, text %v", i, got.Data[i][0], want.Data[i][0])
		}
	}

	// Arity violations come back as non-fatal SQL errors; the session
	// stays usable.
	if _, err := sel.Exec(ctx); err == nil {
		t.Fatal("zero-arg exec of 1-param statement should fail")
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("session died after arity error: %v", err)
	}
}

func TestOneShotArgsOverTCP(t *testing.T) {
	_, _, addr := startServer(t, server.Options{})
	ctx := ctxT(t)
	c := dial(t, addr)

	// The quote never passes through SQL text.
	if _, err := c.Exec(ctx, "INSERT INTO visits (id, who, place) VALUES (?, ?, ?)",
		value.Int(1), value.Text("o'hara"), value.Text("Dam 1")); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(ctx, "SELECT who FROM visits WHERE who = ?", value.Text("o'hara"))
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Data[0][0].Text() != "o'hara" {
		t.Fatalf("bound round trip = %+v", rows)
	}
}

func TestPreparedSQLErrorKeepsSession(t *testing.T) {
	_, _, addr := startServer(t, server.Options{})
	ctx := ctxT(t)
	c := dial(t, addr)

	if _, err := c.Prepare(ctx, "SELEKT nope"); err == nil {
		t.Fatal("preparing bad SQL should fail")
	}
	st, err := c.Prepare(ctx, "INSERT INTO visits (id, who, place) VALUES (?, ?, ?)")
	if err != nil {
		t.Fatalf("prepare after SQL error: %v", err)
	}
	if _, err := st.Exec(ctx, value.Int(1), value.Text("a"), value.Text("Dam 1")); err != nil {
		t.Fatal(err)
	}
	// Duplicate key through the prepared path: non-fatal, session lives.
	if _, err := st.Exec(ctx, value.Int(1), value.Text("b"), value.Text("Dam 1")); err == nil {
		t.Fatal("duplicate key should fail")
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("session died after duplicate key: %v", err)
	}
}

// TestRollbackIdempotent pins the client contract: a statement failure
// inside an explicit transaction aborts it engine-side, and the
// client's subsequent Rollback still succeeds instead of reporting a
// spurious "no open transaction" error.
func TestRollbackIdempotent(t *testing.T) {
	_, _, addr := startServer(t, server.Options{})
	ctx := ctxT(t)
	c := dial(t, addr)

	if err := c.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	// NOT NULL violation aborts the whole transaction.
	if _, err := c.Exec(ctx, "INSERT INTO visits (id, who, place) VALUES (?, ?, ?)",
		value.Int(1), value.Null(), value.Text("Dam 1")); err == nil {
		t.Fatal("NULL into NOT NULL column should fail")
	}
	if err := c.Rollback(ctx); err != nil {
		t.Fatalf("rollback after auto-abort: %v", err)
	}
	// And with no transaction ever opened.
	if err := c.Rollback(ctx); err != nil {
		t.Fatalf("rollback without transaction: %v", err)
	}
	// COMMIT stays strict: committing nothing is still an error.
	if err := c.Commit(ctx); err == nil {
		t.Fatal("commit without transaction should fail")
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRollbackOutsideTransactionAgrees: ROLLBACK with no transaction
// open succeeds however it arrives — embedded, as statement text over
// the wire, or through Rollback — on both roles.
func TestRollbackOutsideTransactionAgrees(t *testing.T) {
	forRoles(t, server.Options{}, func(t *testing.T, f *front) {
		ctx := ctxT(t)
		if _, err := f.db.Exec("ROLLBACK"); err != nil {
			t.Fatalf("DB.Exec: %v", err)
		}
		c := dial(t, f.addr)
		if _, err := c.Exec(ctx, "ROLLBACK"); err != nil {
			t.Fatalf("Exec: %v", err)
		}
		if err := c.Rollback(ctx); err != nil {
			t.Fatalf("Rollback: %v", err)
		}
	})
}

// TestSetPurposeStatementUnknownPurpose: an undeclared purpose draws
// ErrUnknownPurpose however it is named — the SET PURPOSE statement,
// SetPurpose, or the handshake — on a server and on the router, whether
// or not a routed statement has opened a shard session yet.
func TestSetPurposeStatementUnknownPurpose(t *testing.T) {
	forRoles(t, server.Options{}, func(t *testing.T, f *front) {
		ctx := ctxT(t)
		for _, routedFirst := range []bool{true, false} {
			c := dial(t, f.addr)
			if routedFirst {
				if _, err := c.Query(ctx, "SELECT id FROM visits WHERE id = 1"); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.Exec(ctx, "SET PURPOSE nosuch"); !errors.Is(err, client.ErrUnknownPurpose) {
				t.Fatalf("routed first %v: SET PURPOSE nosuch: %v, want ErrUnknownPurpose", routedFirst, err)
			}
			if err := c.SetPurpose(ctx, "nosuch"); !errors.Is(err, client.ErrUnknownPurpose) {
				t.Fatalf("routed first %v: SetPurpose: %v, want ErrUnknownPurpose", routedFirst, err)
			}
			// The session keeps its purpose and stays usable.
			if _, err := c.Query(ctx, "SELECT id FROM visits WHERE id = 1"); err != nil {
				t.Fatalf("routed first %v: %v", routedFirst, err)
			}
		}
		if _, err := client.Dial(ctx, f.addr, client.WithPurpose("nosuch")); !errors.Is(err, client.ErrUnknownPurpose) {
			t.Fatalf("handshake: %v, want ErrUnknownPurpose", err)
		}
		// A declared purpose is admitted, in any case.
		c, err := client.Dial(ctx, f.addr, client.WithPurpose("CITIES"))
		if err != nil {
			t.Fatalf("handshake with a declared purpose: %v", err)
		}
		c.Close()
	})
}

// TestSentinelErrors exercises the exported error conditions end to end:
// unknown purpose at handshake and via SetPurpose, server busy, and
// shutdown, all matched with errors.Is instead of string matching.
func TestSentinelErrors(t *testing.T) {
	t.Run("unknown purpose", func(t *testing.T) {
		_, _, addr := startServer(t, server.Options{})
		ctx := ctxT(t)
		if _, err := client.Dial(ctx, addr, client.WithPurpose("nosuch")); !errors.Is(err, client.ErrUnknownPurpose) {
			t.Fatalf("handshake: %v, want ErrUnknownPurpose", err)
		}
		c := dial(t, addr)
		if err := c.SetPurpose(ctx, "nosuch"); !errors.Is(err, client.ErrUnknownPurpose) {
			t.Fatalf("SetPurpose: %v, want ErrUnknownPurpose", err)
		}
		// Non-fatal: the session keeps its previous purpose.
		if err := c.Ping(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("server busy", func(t *testing.T) {
		_, _, addr := startServer(t, server.Options{MaxConns: 1})
		ctx := ctxT(t)
		_ = dial(t, addr)
		if _, err := client.Dial(ctx, addr); !errors.Is(err, client.ErrServerBusy) {
			t.Fatalf("over-limit dial: %v, want ErrServerBusy", err)
		}
	})
	t.Run("frame too large", func(t *testing.T) {
		_, _, addr := startServer(t, server.Options{MaxFrame: 1 << 10})
		ctx := ctxT(t)
		c := dial(t, addr)
		big := make([]byte, 4<<10)
		for i := range big {
			big[i] = 'x'
		}
		_, err := c.Exec(ctx, "INSERT INTO visits (id, who, place) VALUES (1, '"+string(big)+"', 'Dam 1')")
		if !errors.Is(err, client.ErrFrameTooLarge) {
			t.Fatalf("oversized request: %v, want ErrFrameTooLarge", err)
		}
	})
}
