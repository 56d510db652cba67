// Command instantdb is the interactive SQL shell: open (or create) a
// database directory — or run fully in memory — and execute the
// degradation-aware SQL dialect, including CREATE DOMAIN/POLICY,
// DECLARE PURPOSE, SET PURPOSE and FIRE EVENT. With -connect the shell
// speaks the same dialect to a remote instantdb-server instead, acting
// as a network REPL over the client package.
//
// Usage:
//
//	instantdb [-dir path] [-log shred|plain|vacuum] [-tick 1s] [-e 'stmt; stmt']
//	instantdb -connect host:7654 [-purpose name] [-e 'stmt; stmt']
//
// Without -e the shell reads statements from stdin, each ended by ';'
// (a statement may span lines, and a ';' inside a string literal or a
// -- comment does not end it).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"instantdb"
	"instantdb/client"
	"instantdb/internal/query"
)

// stmtResult is the shell's view of one statement outcome, common to
// the embedded and remote paths.
type stmtResult struct {
	cols     []string
	data     [][]instantdb.Value
	hasRows  bool
	affected int
}

// session abstracts where statements run: an embedded DB or a remote
// server.
type session interface {
	exec(stmt string) (*stmtResult, error)
	// command handles a bare shell command (help/quit are handled by the
	// REPL itself); handled=false means "not a shell command".
	command(word string) (handled bool)
	close()
}

func main() {
	dir := flag.String("dir", "", "database directory (empty = in-memory)")
	logMode := flag.String("log", "shred", "log mode for durable databases: shred, plain, vacuum")
	tick := flag.Duration("tick", time.Second, "background degradation tick interval (0 = manual)")
	connect := flag.String("connect", "", "connect to a remote instantdb-server at host:port instead of opening a database")
	purpose := flag.String("purpose", "", "initial session purpose (default: full accuracy)")
	exec := flag.String("e", "", "execute the given statements and exit")
	flag.Parse()

	var sess session
	if *connect != "" {
		rs, err := openRemote(*connect, *purpose)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sess = rs
	} else {
		ls, err := openLocal(*dir, *logMode, *purpose, *tick)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sess = ls
	}
	defer sess.close()

	if *exec != "" {
		stmts, rest := query.Split(*exec)
		if rest != "" {
			stmts = append(stmts, rest)
		}
		for _, stmt := range stmts {
			if err := runStatement(sess, stmt); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
		}
		return
	}

	if *connect != "" {
		fmt.Printf("InstantDB shell — connected to %s\n", *connect)
	} else {
		fmt.Println("InstantDB shell — enforcing timely degradation of sensitive data")
	}
	fmt.Println(`type SQL terminated by ';' — try "help;" or "quit;"`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	// acc holds input read but not yet ended by a ';'.
	var acc string
	prompt := func() {
		if acc == "" {
			fmt.Print("instantdb> ")
		} else {
			fmt.Print("       ... ")
		}
	}
	prompt()
	for sc.Scan() {
		var stmts []string
		stmts, acc = query.Split(acc + "\n" + sc.Text())
		for _, stmt := range stmts {
			switch strings.ToLower(stmt) {
			case "quit", "exit":
				return
			case "help":
				printHelp()
				continue
			}
			if sess.command(strings.ToLower(stmt)) {
				continue
			}
			if err := runStatement(sess, stmt); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}
		prompt()
	}
}

// localSession runs statements on an embedded database.
type localSession struct {
	db   *instantdb.DB
	conn *instantdb.Conn
}

func openLocal(dir, logMode, purpose string, tick time.Duration) (*localSession, error) {
	cfg := instantdb.Config{Dir: dir, AutoDegrade: tick}
	var err error
	if cfg.LogMode, err = instantdb.ParseLogMode(logMode); err != nil {
		return nil, err
	}
	db, err := instantdb.Open(cfg)
	if err != nil {
		return nil, err
	}
	conn := db.NewConn()
	if purpose != "" {
		if err := conn.SetPurpose(purpose); err != nil {
			db.Close()
			return nil, err
		}
	}
	return &localSession{db: db, conn: conn}, nil
}

func (s *localSession) exec(stmt string) (*stmtResult, error) {
	res, err := s.conn.Exec(stmt)
	if err != nil {
		return nil, err
	}
	out := &stmtResult{affected: res.RowsAffected}
	if res.Rows != nil {
		out.hasRows = true
		out.cols = res.Rows.Columns
		out.data = res.Rows.Data
	}
	return out, nil
}

func (s *localSession) command(word string) bool {
	switch word {
	case "purpose":
		fmt.Println("current purpose:", s.conn.Purpose())
	case "tick":
		n, err := s.db.DegradeNow()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		} else {
			fmt.Printf("%d transition(s)\n", n)
		}
	default:
		return false
	}
	return true
}

func (s *localSession) close() { s.db.Close() }

// remoteSession runs statements on an instantdb-server over the client
// package.
type remoteSession struct {
	conn *client.Conn
}

func openRemote(addr, purpose string) (*remoteSession, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var opts []client.Option
	if purpose != "" {
		opts = append(opts, client.WithPurpose(purpose))
	}
	conn, err := client.Dial(ctx, addr, opts...)
	if err != nil {
		return nil, fmt.Errorf("connect %s: %w", addr, err)
	}
	return &remoteSession{conn: conn}, nil
}

func (s *remoteSession) exec(stmt string) (*stmtResult, error) {
	res, err := s.conn.Exec(context.Background(), stmt)
	if err != nil {
		return nil, err
	}
	out := &stmtResult{affected: res.RowsAffected}
	if res.Rows != nil {
		out.hasRows = true
		out.cols = res.Rows.Columns
		out.data = res.Rows.Data
	}
	return out, nil
}

func (s *remoteSession) command(word string) bool {
	switch word {
	case "ping":
		start := time.Now()
		if err := s.conn.Ping(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		} else {
			fmt.Printf("pong in %v\n", time.Since(start).Round(time.Microsecond))
		}
	case "purpose", "tick":
		fmt.Fprintf(os.Stderr, "%q is a local-shell command; not available over -connect\n", word)
	default:
		return false
	}
	return true
}

func (s *remoteSession) close() { s.conn.Close() }

func runStatement(sess session, stmt string) error {
	start := time.Now()
	res, err := sess.exec(stmt)
	if err != nil {
		return err
	}
	if res.hasRows {
		printRows(res.cols, res.data)
		fmt.Printf("%d row(s) in %v\n", len(res.data), time.Since(start).Round(time.Microsecond))
		return nil
	}
	fmt.Printf("ok, %d row(s) affected in %v\n", res.affected, time.Since(start).Round(time.Microsecond))
	return nil
}

func printRows(columns []string, data [][]instantdb.Value) {
	widths := make([]int, len(columns))
	cells := make([][]string, 0, len(data)+1)
	header := make([]string, len(columns))
	for i, c := range columns {
		header[i] = c
		widths[i] = len(c)
	}
	cells = append(cells, header)
	for _, row := range data {
		line := make([]string, len(row))
		for i, v := range row {
			line[i] = v.String()
			if len(line[i]) > widths[i] {
				widths[i] = len(line[i])
			}
		}
		cells = append(cells, line)
	}
	for ri, line := range cells {
		for i, cell := range line {
			fmt.Printf("%-*s", widths[i]+2, cell)
		}
		fmt.Println()
		if ri == 0 {
			for _, w := range widths {
				fmt.Print(strings.Repeat("-", w), "  ")
			}
			fmt.Println()
		}
	}
}

func printHelp() {
	fmt.Print(`statements:
  CREATE DOMAIN d TREE LEVELS (a,b,c) PATH ('x','y','z') ...
  CREATE DOMAIN d RANGES (100, 1000, SUPPRESS)
  CREATE DOMAIN d TIME (exact, hour, day, month)
  CREATE POLICY p ON d (HOLD a FOR '15m', HOLD b FOR '1d') THEN DELETE
  CREATE TABLE t (id INT PRIMARY KEY, v TEXT DEGRADABLE DOMAIN d POLICY p)
  CREATE INDEX ix ON t (v) USING GT      -- or BTREE, BITMAP
  DECLARE PURPOSE stats SET ACCURACY LEVEL c FOR t.v
  SET PURPOSE stats
  INSERT / SELECT / UPDATE / DELETE / BEGIN / COMMIT / ROLLBACK
  FIRE EVENT 'name'
shell commands: help; purpose; tick; quit;   (remote: help; ping; quit;)
`)
}
