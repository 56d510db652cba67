// Package sqldriver is the database/sql driver for InstantDB. It layers
// the standard library's connection pooling, statement caching and
// scanning machinery over the native client (instantdb/client), so any
// Go application speaks to an InstantDB server with the stock API:
//
//	import (
//		"database/sql"
//
//		_ "instantdb/sqldriver"
//	)
//
//	db, err := sql.Open("instantdb", "localhost:7654?purpose=stats")
//	...
//	rows, err := db.Query("SELECT place FROM visits WHERE who = ?", "alice")
//
// The data source name is "host:port" with optional query parameters:
// purpose=NAME dials every pooled connection in with that session
// purpose, coarse=1 enables the paper's §IV best-effort semantics, and
// maxframe=BYTES overrides the response size limit. Each sql.DB pooled
// connection is one server session, so purposes are uniform across the
// pool by construction; to keep them that way, the driver rejects
// session-scoped statement text (SET PURPOSE — open a second pool with
// a different ?purpose instead — and BEGIN/COMMIT/ROLLBACK, which
// belong to db.Begin).
//
// Arguments bind to `?` placeholders server-side; values never pass
// through SQL text, and every statement travels the same way, text and
// arguments in one round trip. A prepared statement (sql.Stmt) checks
// its syntax and counts its placeholders when prepared; the server's
// per-session parse cache spares the parse of each repeated execution,
// for db.Exec/db.Query with arguments as for a sql.Stmt. Transactions (db.Begin) map to the session
// transaction of the underlying connection. A read-only transaction
// (db.BeginTx with sql.TxOptions{ReadOnly: true}) maps to the engine's
// snapshot path: every statement reads one consistent snapshot, takes
// no server-side locks — so long scans never delay the degradation
// engine — and write statements fail. One deliberate deviation from
// classic snapshot isolation, inherited from the engine: degradation
// transitions crossing their deadline mid-transaction are visible,
// because expired accuracy states are never readable.
package sqldriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"
	"time"
	"unicode"

	"instantdb/client"
	"instantdb/internal/value"
)

func init() {
	sql.Register("instantdb", &Driver{})
}

// Driver implements driver.Driver and driver.DriverContext.
type Driver struct{}

// Open dials dsn ("host:port?purpose=...") and returns a connection.
func (d *Driver) Open(dsn string) (driver.Conn, error) {
	cn, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return cn.Connect(context.Background())
}

// OpenConnector parses dsn once; the returned connector dials on demand
// for the pool.
func (d *Driver) OpenConnector(dsn string) (driver.Connector, error) {
	addr, query, _ := strings.Cut(dsn, "?")
	if addr == "" {
		return nil, fmt.Errorf("sqldriver: empty address in DSN %q", dsn)
	}
	params, err := url.ParseQuery(query)
	if err != nil {
		return nil, fmt.Errorf("sqldriver: bad DSN parameters %q: %v", query, err)
	}
	var opts []client.Option
	for key, vals := range params {
		v := vals[len(vals)-1]
		switch key {
		case "purpose":
			opts = append(opts, client.WithPurpose(v))
		case "coarse":
			on, err := strconv.ParseBool(v)
			if err != nil {
				return nil, fmt.Errorf("sqldriver: bad coarse value %q", v)
			}
			if on {
				opts = append(opts, client.WithCoarse())
			}
		case "maxframe":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("sqldriver: bad maxframe value %q", v)
			}
			opts = append(opts, client.WithMaxFrame(n))
		default:
			return nil, fmt.Errorf("sqldriver: unknown DSN parameter %q", key)
		}
	}
	return &connector{addr: addr, opts: opts}, nil
}

type connector struct {
	addr string
	opts []client.Option
}

func (c *connector) Connect(ctx context.Context) (driver.Conn, error) {
	cc, err := client.Dial(ctx, c.addr, c.opts...)
	if err != nil {
		return nil, err
	}
	return &conn{c: cc}, nil
}

func (c *connector) Driver() driver.Driver { return &Driver{} }

// conn adapts one client session. database/sql guarantees a driver.Conn
// is used by one goroutine at a time.
type conn struct {
	c *client.Conn
}

// mapErr rewrites client errors for the pool: a connection found closed
// before anything was sent becomes driver.ErrBadConn (safe to retry on
// another connection); everything else passes through.
func mapErr(err error) error {
	if errors.Is(err, client.ErrClosed) {
		return driver.ErrBadConn
	}
	return err
}

func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

func (c *conn) PrepareContext(ctx context.Context, query string) (driver.Stmt, error) {
	if err := rejectSessionStmt(query); err != nil {
		return nil, err
	}
	cs, err := c.c.Prepare(ctx, query)
	if err != nil {
		return nil, mapErr(err)
	}
	return &stmt{cs}, nil
}

// rejectSessionStmt refuses session-scoped statements through the
// pool, where they would land on whichever pooled session happened to
// serve the call: SET PURPOSE would make later queries switch accuracy
// views nondeterministically (the inconsistency the per-pool DSN
// purpose exists to rule out), and a text BEGIN would open a
// transaction that later statements join or miss at random, its writes
// silently rolled back when the connection recycles.
func rejectSessionStmt(query string) error {
	switch firstKeyword(query) {
	case "SET":
		return errors.New("sqldriver: SET PURPOSE is per-session and unsafe over a connection pool; open a pool with ?purpose=NAME in the DSN instead")
	case "BEGIN", "COMMIT", "ROLLBACK":
		return fmt.Errorf("sqldriver: %s is per-session and unsafe over a connection pool; use db.Begin / tx.Commit / tx.Rollback", firstKeyword(query))
	}
	return nil
}

// firstKeyword extracts the statement's leading keyword the way the
// SQL lexer would: skip whitespace and `--` line comments, then take
// the identifier run. Punctuation after the word (e.g. "BEGIN;") does
// not hide it.
func firstKeyword(q string) string {
	i := 0
	for i < len(q) {
		if q[i] == '-' && i+1 < len(q) && q[i+1] == '-' {
			for i < len(q) && q[i] != '\n' {
				i++
			}
			continue
		}
		if unicode.IsSpace(rune(q[i])) {
			i++
			continue
		}
		break
	}
	j := i
	for j < len(q) && (q[j] == '_' || unicode.IsLetter(rune(q[j]))) {
		j++
	}
	return strings.ToUpper(q[i:j])
}

func (c *conn) Close() error { return c.c.Close() }

func (c *conn) Begin() (driver.Tx, error) {
	return c.BeginTx(context.Background(), driver.TxOptions{})
}

func (c *conn) BeginTx(ctx context.Context, opts driver.TxOptions) (driver.Tx, error) {
	if opts.Isolation != driver.IsolationLevel(sql.LevelDefault) {
		return nil, fmt.Errorf("sqldriver: isolation level %d not supported", opts.Isolation)
	}
	if opts.ReadOnly {
		// BEGIN READ ONLY: statements read one pinned snapshot, take no
		// locks server-side, and writes fail. LCP transitions crossing
		// their deadline mid-transaction remain visible (the engine's
		// documented deviation from classic snapshot isolation).
		if err := c.c.BeginReadOnly(ctx); err != nil {
			return nil, mapErr(err)
		}
		return &tx{c: c, ctx: ctx}, nil
	}
	if err := c.c.Begin(ctx); err != nil {
		return nil, mapErr(err)
	}
	return &tx{c: c, ctx: ctx}, nil
}

func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	if err := rejectSessionStmt(query); err != nil {
		return nil, err
	}
	vals, err := toValues(args)
	if err != nil {
		return nil, err
	}
	res, err := c.c.Exec(ctx, query, vals...)
	if err != nil {
		return nil, mapErr(err)
	}
	return result{res}, nil
}

func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	if err := rejectSessionStmt(query); err != nil {
		return nil, err
	}
	vals, err := toValues(args)
	if err != nil {
		return nil, err
	}
	r, err := c.c.Query(ctx, query, vals...)
	if err != nil {
		return nil, mapErr(err)
	}
	return &rows{r: r}, nil
}

func (c *conn) Ping(ctx context.Context) error { return mapErr(c.c.Ping(ctx)) }

// IsValid lets the pool drop sessions poisoned by fatal errors instead
// of handing them back out.
func (c *conn) IsValid() bool { return !c.c.Closed() }

// stmt adapts a prepared statement of the native client: a local
// handle (syntax checked, placeholders counted) whose executions send
// the text with its arguments, so the server holds nothing that could
// be evicted or leak and Close is local.
type stmt struct {
	cs *client.Stmt
}

func (s *stmt) Close() error { return nil }

func (s *stmt) NumInput() int { return s.cs.NumParams() }

func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.ExecContext(context.Background(), namedValues(args))
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.QueryContext(context.Background(), namedValues(args))
}

func (s *stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	vals, err := toValues(args)
	if err != nil {
		return nil, err
	}
	res, err := s.cs.Exec(ctx, vals...)
	if err != nil {
		return nil, mapErr(err)
	}
	return result{res}, nil
}

func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	vals, err := toValues(args)
	if err != nil {
		return nil, err
	}
	r, err := s.cs.Query(ctx, vals...)
	if err != nil {
		return nil, mapErr(err)
	}
	return &rows{r: r}, nil
}

// rows adapts a materialized result set.
type rows struct {
	r *client.Rows
	i int
}

func (r *rows) Columns() []string { return r.r.Columns }

func (r *rows) Close() error { return nil }

func (r *rows) Next(dest []driver.Value) error {
	if r.i >= len(r.r.Data) {
		return io.EOF
	}
	row := r.r.Data[r.i]
	r.i++
	for j := range dest {
		dest[j] = fromValue(row[j])
	}
	return nil
}

// result adapts a statement outcome.
type result struct {
	res *client.Result
}

func (r result) LastInsertId() (int64, error) { return int64(r.res.LastInsertID), nil }
func (r result) RowsAffected() (int64, error) { return int64(r.res.RowsAffected), nil }

// tx adapts the session transaction. It retains the BeginTx context:
// driver.Tx's Commit/Rollback take none, and without it they could
// block forever on an unresponsive server. A canceled context still
// ends the transaction — the interrupted round trip poisons the
// connection and the server rolls back on disconnect.
type tx struct {
	c   *conn
	ctx context.Context
}

func (t *tx) Commit() error   { return mapErr(t.c.c.Commit(t.ctx)) }
func (t *tx) Rollback() error { return mapErr(t.c.c.Rollback(t.ctx)) }

// toValues converts database/sql arguments to InstantDB values. Only
// positional arguments are supported; the standard library's default
// converter has already normalized Go values to the driver.Value types.
func toValues(args []driver.NamedValue) ([]value.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]value.Value, len(args))
	for i, a := range args {
		if a.Name != "" {
			return nil, fmt.Errorf("sqldriver: named argument %q not supported (use positional ?)", a.Name)
		}
		v, err := toValue(a.Value)
		if err != nil {
			return nil, fmt.Errorf("sqldriver: argument %d: %w", a.Ordinal, err)
		}
		out[i] = v
	}
	return out, nil
}

func toValue(v driver.Value) (value.Value, error) {
	switch x := v.(type) {
	case nil:
		return value.Null(), nil
	case int64:
		return value.Int(x), nil
	case float64:
		return value.Float(x), nil
	case bool:
		return value.Bool(x), nil
	case string:
		return value.Text(x), nil
	case []byte:
		if x == nil {
			return value.Null(), nil // nil []byte is SQL NULL by driver convention
		}
		return value.Text(string(x)), nil
	case time.Time:
		return value.Time(x), nil
	default:
		return value.Value{}, fmt.Errorf("unsupported type %T", v)
	}
}

// fromValue converts an InstantDB value to its driver.Value form.
func fromValue(v value.Value) driver.Value {
	switch v.Kind() {
	case value.KindInt:
		return v.Int()
	case value.KindFloat:
		return v.Float()
	case value.KindText:
		return v.Text()
	case value.KindBool:
		return v.Bool()
	case value.KindTime:
		return v.Time()
	default:
		return nil
	}
}

func namedValues(args []driver.Value) []driver.NamedValue {
	out := make([]driver.NamedValue, len(args))
	for i, a := range args {
		out[i] = driver.NamedValue{Ordinal: i + 1, Value: a}
	}
	return out
}
