package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"instantdb/internal/value"
)

// TestPreparedMatchesText is the embedded acceptance criterion: a
// prepared statement with bound arguments produces exactly the results
// of the equivalent text statement.
func TestPreparedMatchesText(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)

	conn := db.NewConn()
	st, err := conn.Prepare("SELECT id, name FROM person WHERE location = ? ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", st.NumParams())
	}
	for _, loc := range []string{"Dam 1", "10 rue de Rivoli", "nowhere"} {
		want, err := conn.Exec("SELECT id, name FROM person WHERE location = '" + loc + "' ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Query(value.Text(loc))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Data) != len(want.Rows.Data) {
			t.Fatalf("location %q: prepared %d rows, text %d rows", loc, len(got.Data), len(want.Rows.Data))
		}
		for i := range got.Data {
			for j := range got.Data[i] {
				if got.Data[i][j].String() != want.Rows.Data[i][j].String() {
					t.Fatalf("location %q row %d col %d: prepared %v, text %v",
						loc, i, j, got.Data[i][j], want.Rows.Data[i][j])
				}
			}
		}
	}
}

func TestPreparedInsertReexecution(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)

	conn := db.NewConn()
	ins, err := conn.Prepare("INSERT INTO person (id, name, location, salary) VALUES (?, ?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		res, err := ins.Exec(value.Int(i), value.Text("p"), value.Text("Dam 1"), value.Int(2000+i))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if res.RowsAffected != 1 {
			t.Fatalf("insert %d affected %d rows", i, res.RowsAffected)
		}
	}
	res := db.MustExec("SELECT COUNT(*) AS n FROM person")
	if got := res.Rows.Data[0][0].Int(); got != 20 {
		t.Fatalf("COUNT(*) = %d, want 20", got)
	}
	// Re-inserting a bound duplicate key must hit the usual constraint.
	if _, err := ins.Exec(value.Int(7), value.Text("dup"), value.Text("Dam 1"), value.Int(1)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate bound insert: %v", err)
	}
}

func TestPreparedArityAndKindErrors(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)

	conn := db.NewConn()
	st, err := conn.Prepare("INSERT INTO person (id, name, location, salary) VALUES (?, ?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(value.Int(1)); err == nil || !strings.Contains(err.Error(), "4 placeholders, got 1") {
		t.Fatalf("arity error = %v", err)
	}
	// TEXT into the INT id column: rejected by the executor's type check.
	_, err = st.Exec(value.Text("x"), value.Text("n"), value.Text("Dam 1"), value.Int(1))
	if err == nil || !strings.Contains(err.Error(), "wants INT") {
		t.Fatalf("kind error = %v", err)
	}
	// Text path and one-shot variadic Exec agree on arity checking.
	if _, err := conn.Exec("SELECT id FROM person WHERE id = ?"); err == nil {
		t.Fatal("text exec of parameterized statement without args should fail")
	}
	if _, err := conn.Exec("SELECT id FROM person WHERE id = ?", value.Int(1), value.Int(2)); err == nil {
		t.Fatal("over-supplied one-shot args should fail")
	}
}

// TestOneShotExecArgs covers the variadic Conn.Exec / Conn.Query forms.
func TestOneShotExecArgs(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)

	conn := db.NewConn()
	if _, err := conn.Exec("INSERT INTO person (id, name, location, salary) VALUES (?, ?, ?, ?)",
		value.Int(1), value.Text("o'hara"), value.Text("Dam 1"), value.Int(2000)); err != nil {
		t.Fatal(err)
	}
	// The quote in the bound text never touched SQL text — no injection,
	// no escaping.
	rows, err := conn.Query("SELECT name FROM person WHERE name = ?", value.Text("o'hara"))
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Data[0][0].Text() != "o'hara" {
		t.Fatalf("bound text round trip = %+v", rows)
	}
	// UPDATE and DELETE bind too.
	if res, err := conn.Exec("UPDATE person SET name = ? WHERE id = ?", value.Text("ohara"), value.Int(1)); err != nil || res.RowsAffected != 1 {
		t.Fatalf("bound update: %v %v", res, err)
	}
	if res, err := conn.Exec("DELETE FROM person WHERE id = ?", value.Int(1)); err != nil || res.RowsAffected != 1 {
		t.Fatalf("bound delete: %v %v", res, err)
	}
}

// TestPreparedSelectUsesIndex verifies bound predicates still plan
// through secondary indexes (binding happens before planning).
func TestPreparedSelectUsesIndex(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)
	db.MustExec("CREATE INDEX ixname ON person (name)")

	conn := db.NewConn()
	st, err := conn.Prepare("SELECT id FROM person WHERE name = ?")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.Query(value.Text("heerde"))
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Data[0][0].Int() != 3 {
		t.Fatalf("indexed bound lookup = %+v", rows)
	}
}

func TestPreparedSurvivesOtherDDL(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)

	conn := db.NewConn()
	st, err := conn.Prepare("SELECT id FROM person WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE other (id INT PRIMARY KEY)")
	if rows, err := st.Query(value.Int(2)); err != nil || rows.Len() != 1 {
		t.Fatalf("prepared after unrelated DDL: %v %v", rows, err)
	}
	db.MustExec("DROP TABLE person")
	if _, err := st.Query(value.Int(2)); err == nil {
		t.Fatal("prepared statement on dropped table should fail")
	}
}

func TestPreparedInTransaction(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)

	conn := db.NewConn()
	ins, err := conn.Prepare("INSERT INTO person (id, name, location, salary) VALUES (?, ?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if _, err := ins.Exec(value.Int(i), value.Text("t"), value.Text("Dam 1"), value.Int(100)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if n := db.MustExec("SELECT COUNT(*) AS n FROM person").Rows.Data[0][0].Int(); n != 0 {
		t.Fatalf("rolled-back prepared inserts left %d rows", n)
	}
}

// TestAbortedTransactionState pins the abort contract: after a
// statement failure tears down an explicit transaction, the session
// refuses every statement until ROLLBACK — nothing issued in the
// aborted window can slip into autocommit.
func TestAbortedTransactionState(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)

	conn := db.NewConn()
	st, err := conn.Prepare("INSERT INTO person (id, name, location, salary) VALUES (?, ?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(value.Int(1), value.Text("a"), value.Text("Dam 1"), value.Int(1)); err != nil {
		t.Fatal(err)
	}
	// NOT NULL violation aborts the transaction.
	if _, err := conn.Exec("INSERT INTO person (id, name, location, salary) VALUES (?, ?, ?, ?)",
		value.Int(2), value.Null(), value.Text("Dam 1"), value.Int(1)); err == nil {
		t.Fatal("NULL into NOT NULL column should fail")
	}
	// Text, one-shot and prepared statements are all refused now.
	if _, err := conn.Exec("INSERT INTO person (id, name, location, salary) VALUES (3, 'c', 'Dam 1', 1)"); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("text statement in aborted tx: %v, want ErrTxAborted", err)
	}
	if _, err := st.Exec(value.Int(4), value.Text("d"), value.Text("Dam 1"), value.Int(1)); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("prepared statement in aborted tx: %v, want ErrTxAborted", err)
	}
	if _, err := conn.Exec("SELECT id FROM person"); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("select in aborted tx: %v, want ErrTxAborted", err)
	}
	// ROLLBACK acknowledges the abort and revives the session.
	if _, err := conn.Exec("ROLLBACK"); err != nil {
		t.Fatalf("rollback of aborted tx: %v", err)
	}
	if n := db.MustExec("SELECT COUNT(*) AS n FROM person").Rows.Data[0][0].Int(); n != 0 {
		t.Fatalf("aborted transaction left %d rows", n)
	}
	if _, err := conn.Exec("SELECT id FROM person"); err != nil {
		t.Fatalf("session dead after rollback: %v", err)
	}

	// COMMIT of an aborted tx errors but also clears the state, so a
	// pooled session cannot be wedged by an application that commits.
	if _, err := conn.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("INSERT INTO person (id, name, location, salary) VALUES (?, ?, ?, ?)",
		value.Int(5), value.Null(), value.Text("Dam 1"), value.Int(1)); err == nil {
		t.Fatal("NULL into NOT NULL column should fail")
	}
	if _, err := conn.Exec("COMMIT"); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("commit of aborted tx: %v, want ErrTxAborted", err)
	}
	if _, err := conn.Exec("SELECT id FROM person"); err != nil {
		t.Fatalf("session dead after failed commit: %v", err)
	}
}

// TestSelectFailureAbortsTransaction closes the read-path hole in the
// abort invariant: a failed SELECT inside an explicit transaction tears
// it down exactly like a failed write.
func TestSelectFailureAbortsTransaction(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)

	conn := db.NewConn()
	if _, err := conn.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("INSERT INTO person (id, name, location, salary) VALUES (1, 'a', 'Dam 1', 1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("SELECT nosuch FROM person"); err == nil {
		t.Fatal("unknown column should fail")
	}
	if _, err := conn.Exec("COMMIT"); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("commit after failed select: %v, want ErrTxAborted", err)
	}
	if n := db.MustExec("SELECT COUNT(*) AS n FROM person").Rows.Data[0][0].Int(); n != 0 {
		t.Fatalf("aborted transaction committed %d rows", n)
	}
	// The same via a prepared statement's cached-select fast path.
	st, err := conn.Prepare("SELECT id FROM person WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	db.MustExec("DROP TABLE person") // make the prepared select fail
	if _, err := st.Query(value.Int(1)); err == nil {
		t.Fatal("select on dropped table should fail")
	}
	if _, err := conn.Exec("SELECT id FROM person"); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("statement after failed prepared select: %v, want ErrTxAborted", err)
	}
	if _, err := conn.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
}

func TestClosedStmtErrors(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)

	st, err := db.NewConn().Prepare("SELECT id FROM person WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(value.Int(1)); !errors.Is(err, ErrStmtClosed) {
		t.Fatalf("exec after close: %v, want ErrStmtClosed", err)
	}
}

func TestInsertDuplicateColumnRejected(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)

	_, err := db.Exec("INSERT INTO person (id, name, name, location) VALUES (1, 'a', 'b', 'Dam 1')")
	if err == nil || !strings.Contains(err.Error(), "assigned twice") {
		t.Fatalf("duplicate column list: %v", err)
	}
}

// TestPreparedSelectsCounted: a SELECT counts in
// instantdb_queries_total however it runs — text, text with arguments,
// or a prepared statement.
func TestPreparedSelectsCounted(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)
	conn := db.NewConn()
	queries := db.met.queries.With("full")
	before := queries.Value()

	st, err := conn.Prepare("SELECT name FROM person WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if _, err := st.Query(value.Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 3; i++ {
		if _, err := conn.Query("SELECT name FROM person WHERE id = ?", value.Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Query("SELECT name FROM person WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if got := queries.Value() - before; got != 9 {
		t.Fatalf("queries counted = %d, want 9", got)
	}
}

// TestStmtCache pins the session's parse cache behind Exec with
// arguments: one entry per repeated text, none for a text without
// placeholders, a bounded size, and answers that stay those of a fresh
// parse across DDL.
func TestStmtCache(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)
	conn := db.NewConn()

	const q = "SELECT name, location FROM person WHERE id = ?"
	for i := int64(1); i <= 3; i++ {
		if _, err := conn.Query(q, value.Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(conn.stmts) != 1 || conn.stmts[q] == nil {
		t.Fatalf("cache after one text run three times = %v, want one entry", conn.stmts)
	}

	if _, err := conn.Query("SELECT name FROM person WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query("SELECT name FROM person WHERE id = 2", value.Int(2)); err == nil {
		t.Fatal("an argument for a statement without placeholders should fail")
	}
	if len(conn.stmts) != 1 {
		t.Fatalf("placeholder-free texts entered the cache: %d entries", len(conn.stmts))
	}

	for i := 0; i < 1000; i++ {
		if _, err := conn.Query(fmt.Sprintf("SELECT name FROM person WHERE id = ? AND salary > %d", i), value.Int(1)); err != nil {
			t.Fatal(err)
		}
		if len(conn.stmts) > stmtCacheCap {
			t.Fatalf("cache holds %d entries after %d texts, cap %d", len(conn.stmts), i+1, stmtCacheCap)
		}
	}

	if _, err := conn.Query(q, value.Int(3)); err != nil {
		t.Fatal(err)
	}
	db.MustExec("DROP TABLE person")
	db.MustExec("CREATE TABLE person (location TEXT, salary INT, id INT PRIMARY KEY, name TEXT NOT NULL)")
	db.MustExec("INSERT INTO person (id, name, location, salary) VALUES (3, 'again', 'Rotterdam', 7)")
	if conn.stmts[q] == nil {
		t.Fatal("the text left the cache")
	}
	got, err := conn.Query(q, value.Int(3))
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.NewConn().Query(q, value.Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Columns, got.Data) != fmt.Sprint(want.Columns, want.Data) || got.Len() != 1 {
		t.Fatalf("cached statement after re-create = %v %v, fresh parse = %v %v", got.Columns, got.Data, want.Columns, want.Data)
	}
}

// TestExecPartial: a SELECT run for its partial form answers AVG as SUM
// and COUNT, without ORDER BY and LIMIT, and its text with arguments
// enters the statement cache as for Exec; only a SELECT has a partial
// form.
func TestExecPartial(t *testing.T) {
	db, _ := openSim(t)
	installSchema(t, db)
	insertPeople(t, db)
	conn := db.NewConn()

	const q = "SELECT location, AVG(salary) AS a FROM person WHERE id > ? GROUP BY location ORDER BY a LIMIT 1"
	got, err := conn.ExecPartial(q, value.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	want, err := conn.Query("SELECT location, SUM(salary), COUNT(salary) FROM person WHERE id > 0 GROUP BY location")
	if err != nil {
		t.Fatal(err)
	}
	if g, w := fmt.Sprint(got.Rows.Columns, got.Rows.Data), fmt.Sprint(want.Columns, want.Data); g != w || want.Len() < 2 {
		t.Fatalf("partial form = %s, want %s", g, w)
	}
	if conn.stmts[q] == nil {
		t.Fatal("the partial form's text did not enter the statement cache")
	}
	if _, err := conn.ExecPartial("DELETE FROM person WHERE id = ?", value.Int(1)); err == nil {
		t.Fatal("partial form of a DELETE accepted")
	}
	if n := db.MustExec("SELECT id FROM person WHERE id = 1").Rows.Len(); n != 1 {
		t.Fatalf("a refused partial DELETE removed the row (%d left)", n)
	}
}
