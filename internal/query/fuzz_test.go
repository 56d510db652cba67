package query

import (
	"reflect"
	"slices"
	"testing"

	"instantdb/internal/value"
)

// fuzzSeeds is the DDL/DML corpus from parser_test.go plus placeholder
// forms and known-tricky fragments (escapes, comments, negatives).
var fuzzSeeds = []string{
	"SELECT * FROM person WHERE location LIKE '%France%' AND salary = '2000-3000'",
	`SELECT name AS n, COUNT(*), AVG(salary) AS avgsal FROM person
	  WHERE salary BETWEEN 1000 AND 3000 GROUP BY name ORDER BY n DESC LIMIT 10`,
	"SELECT p.name FROM person WHERE p.at >= TIMESTAMP '2008-04-07 12:00:00'",
	"SELECT place FROM visits FOR PURPOSE stats",
	"INSERT INTO person (id, name, salary) VALUES (1, 'alice', 2471), (2, 'bob', -50)",
	"UPDATE person SET name = 'x', active = FALSE WHERE id = 1",
	"DELETE FROM person WHERE NOT (id = 1)",
	`CREATE DOMAIN location TREE LEVELS (address, city, region, country)
	  PATH ('Dam 1', 'Amsterdam', 'Noord-Holland', 'Netherlands')`,
	"CREATE DOMAIN salary RANGES (100, 1000, SUPPRESS)",
	"CREATE DOMAIN ts TIME (exact, hour, day, month)",
	`CREATE POLICY locpol ON location (
	  HOLD address FOR '15m', HOLD city FOR '1h',
	  HOLD region FOR '1d', HOLD country FOR '1mo') THEN DELETE`,
	"CREATE POLICY p ON location (HOLD address FOR '1h' UNTIL EVENT 'gone', HOLD city FOR '2h' IF active)",
	`CREATE TABLE person (id INT PRIMARY KEY, name TEXT NOT NULL,
	  location TEXT DEGRADABLE DOMAIN location POLICY locpol) LAYOUT INPLACE`,
	"CREATE INDEX ixloc ON person (location) USING GT",
	"DROP TABLE person",
	"DROP INDEX ixid",
	`DECLARE PURPOSE stat SET ACCURACY LEVEL country FOR person.location,
	  range1000 FOR person.salary ALLOW UNLISTED`,
	"SET PURPOSE stat",
	"BEGIN", "COMMIT", "ROLLBACK",
	"FIRE EVENT 'consent-withdrawn'",
	// Placeholder forms.
	"SELECT id FROM person WHERE location = ? AND salary BETWEEN ? AND ?",
	"SELECT id FROM person WHERE id IN (?, ?, 3) OR name IS NOT NULL",
	"INSERT INTO person (id, name) VALUES (?, ?), (?, 'fixed')",
	"UPDATE person SET name = ? WHERE id = ?",
	"DELETE FROM person WHERE id = ?",
	// Tricky fragments.
	"SELECT id FROM t WHERE name = 'it''s' -- trailing comment",
	"SELECT id FROM t WHERE x = -1.5; ",
	"SELECT id FROM t WHERE x <> 3 AND y <= 4;",
	"??", "?;?", "SELECT ? FROM t", "' unterminated",
}

// FuzzParse feeds arbitrary statement text through the full pipeline:
// Parse must never panic, and on success the statement must satisfy the
// prepared-statement invariants — NumPlaceholders agrees with Bind, and
// binding a matching argument list always succeeds.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ParseScript(src) // no-panic only; scripts share the lexer/parser
		st, nparams, err := ParseWithParams(src)
		if err != nil {
			return
		}
		// The parser's running count and the AST walk must agree.
		n := NumPlaceholders(st)
		if n != nparams {
			t.Fatalf("NumPlaceholders = %d, parser counted %d", n, nparams)
		}
		args := make([]value.Value, n)
		for i := range args {
			args[i] = value.Int(int64(i))
		}
		bound, err := Bind(st, args)
		if err != nil {
			t.Fatalf("Bind with matching arity failed on %q: %v", src, err)
		}
		if NumPlaceholders(bound) != 0 {
			t.Fatalf("bound statement of %q still has placeholders", src)
		}
	})
}

// FuzzParseScript checks the statement texts ParseScript returns: each
// must parse on its own to the statement the script gave for it, so a
// catalog that persists the texts replays the same schema. Split, which
// the shell cuts its input with, must find the same texts.
func FuzzParseScript(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Add("CREATE DOMAIN d TREE LEVELS (a, b) PATH ('x;y', 'z');; DROP TABLE t -- a ; in a comment\n;")
	f.Add("SELECT id FROM t WHERE name = 'a;''b'; -- the end")
	f.Fuzz(func(t *testing.T, src string) {
		stmts, texts, err := ParseScript(src)
		if err != nil {
			return
		}
		if len(texts) != len(stmts) {
			t.Fatalf("%d statements, %d texts", len(stmts), len(texts))
		}
		split, rest := Split(src)
		if rest != "" {
			split = append(split, rest)
		}
		if !slices.Equal(split, texts) {
			t.Fatalf("Split(%q) = %q, ParseScript's texts %q", src, split, texts)
		}
		for i, text := range texts {
			st, err := Parse(text)
			if err != nil {
				t.Fatalf("statement %d text %q of %q does not parse: %v", i+1, text, src, err)
			}
			if !reflect.DeepEqual(st, stmts[i]) {
				t.Fatalf("statement %d text %q parses to %#v, the script gave %#v", i+1, text, st, stmts[i])
			}
		}
	})
}
