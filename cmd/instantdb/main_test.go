package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the shell itself when runShell starts the test binary
// as a child, so the tests drive main's flags and loops end to end.
func TestMain(m *testing.M) {
	if os.Getenv("INSTANTDB_SHELL_TEST_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runShell runs the shell on an in-memory database with args, feeding
// it stdin, and returns what it printed.
func runShell(t *testing.T, stdin string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-tick", "0"}, args...)...)
	cmd.Env = append(os.Environ(), "INSTANTDB_SHELL_TEST_CHILD=1")
	cmd.Stdin = strings.NewReader(stdin)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("shell %q: %v\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errOut.String())
	}
	return out.String(), errOut.String()
}

// codesSchema holds ';' in a DDL literal and in a trailing comment.
const codesSchema = `CREATE DOMAIN codes TREE LEVELS (code, family) PATH ('x;y', 'z');
CREATE POLICY codepol ON codes (HOLD code FOR '1h') THEN DELETE; -- a; comment
CREATE TABLE t (id INT PRIMARY KEY, c TEXT DEGRADABLE DOMAIN codes POLICY codepol);
INSERT INTO t (id, c) VALUES (1, 'x;y')`

// TestShellSplitsOnlyAtStatementEnds: a -e list splits where the
// statements end, not at a ';' inside a literal or a comment.
func TestShellSplitsOnlyAtStatementEnds(t *testing.T) {
	out, _ := runShell(t, "", "-e", codesSchema+"; SELECT c FROM t -- last; no ';' after it")
	if !strings.Contains(out, "x;y") || !strings.Contains(out, "1 row(s) in") {
		t.Fatalf("want the row 'x;y' back, got:\n%s", out)
	}
}

// TestShellInteractiveReadsWholeStatements: typed input keeps reading
// while a literal is open, and the shell words still work.
func TestShellInteractiveReadsWholeStatements(t *testing.T) {
	in := codesSchema + ";\n" +
		"INSERT INTO t (id, c) VALUES (2, 'x;y'), (3, 'x;\nnot a code');\n" +
		"help; -- a; comment\n" +
		"SELECT id FROM t;\n" +
		"tick;\n" +
		"quit;\n" +
		"SELECT c FROM t;\n"
	out, errOut := runShell(t, in)
	for _, want := range []string{"statements:", "1 row(s) in", "0 transition(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
	// The two-row INSERT reached the engine whole, and failed there on
	// its second row's value, which is no path of the domain.
	if !strings.Contains(errOut, `"x;\nnot a code"`) {
		t.Errorf("want the multi-line literal in the engine's error, got stderr:\n%s", errOut)
	}
	if n := strings.Count(errOut, "error:"); n != 1 {
		t.Errorf("want exactly one error, got %d:\n%s", n, errOut)
	}
	if strings.Contains(out, "x;y") {
		t.Errorf("the SELECT after quit ran:\n%s", out)
	}
}
