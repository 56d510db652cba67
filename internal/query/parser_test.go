package query

import (
	"slices"
	"testing"
	"time"

	"instantdb/internal/value"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return st
}

func TestParseSelectBasics(t *testing.T) {
	st := mustParse(t, "SELECT * FROM person WHERE location LIKE '%France%' AND salary = '2000-3000'")
	s := st.(*Select)
	if !s.Items[0].Star || s.Table != "person" || s.Where == nil {
		t.Fatalf("%+v", s)
	}
	and := s.Where.(*Logical)
	if and.Op != "AND" {
		t.Fatal("expected AND")
	}
	like := and.Left.(*Compare)
	if like.Op != "LIKE" || like.Left.(*ColumnRef).Column != "location" {
		t.Fatalf("%+v", like)
	}
	eq := and.Right.(*Compare)
	if eq.Op != "=" || eq.Right.(*Literal).Val.Text() != "2000-3000" {
		t.Fatalf("%+v", eq)
	}
}

func TestParseSelectFull(t *testing.T) {
	st := mustParse(t, `SELECT name AS n, COUNT(*), AVG(salary) AS avgsal FROM person
		WHERE (age > 30 OR age <= 20) AND name != 'bob' AND id IN (1, 2, 3)
		AND salary BETWEEN 1000 AND 2000 AND note IS NOT NULL
		GROUP BY name ORDER BY name DESC LIMIT 10 FOR PURPOSE stat`)
	s := st.(*Select)
	if len(s.Items) != 3 || s.Items[0].Alias != "n" || !s.Items[1].CountStar || s.Items[2].Agg != AggAvg {
		t.Fatalf("items: %+v", s.Items)
	}
	if len(s.GroupBy) != 1 || s.GroupBy[0].Column != "name" {
		t.Fatal("group by")
	}
	if len(s.Order) != 1 || !s.Order[0].Desc {
		t.Fatal("order by")
	}
	if s.Limit != 10 || s.Purpose != "stat" {
		t.Fatalf("limit/purpose: %d %q", s.Limit, s.Purpose)
	}
}

func TestParseQualifiedAndTimestamp(t *testing.T) {
	st := mustParse(t, "SELECT p.name FROM person WHERE p.at >= TIMESTAMP '2008-04-07 12:00:00'")
	s := st.(*Select)
	if s.Items[0].Col.Table != "p" || s.Items[0].Col.Column != "name" {
		t.Fatal("qualified column")
	}
	cmp := s.Where.(*Compare)
	ts := cmp.Right.(*Literal).Val
	if ts.Kind() != value.KindTime || ts.Time().Hour() != 12 {
		t.Fatalf("timestamp: %v", ts)
	}
}

func TestParseInsert(t *testing.T) {
	st := mustParse(t, "INSERT INTO person (id, name, salary) VALUES (1, 'alice', 2471), (2, 'bob', -50)")
	ins := st.(*Insert)
	if ins.Table != "person" || len(ins.Columns) != 3 || len(ins.Rows) != 2 {
		t.Fatalf("%+v", ins)
	}
	if ins.Rows[1][2].(*Literal).Val.Int() != -50 {
		t.Fatal("negative literal")
	}
}

func TestParseUpdateDelete(t *testing.T) {
	u := mustParse(t, "UPDATE person SET name = 'x', active = FALSE WHERE id = 1").(*Update)
	if len(u.Sets) != 2 || u.Sets[1].Column != "active" {
		t.Fatalf("%+v", u)
	}
	d := mustParse(t, "DELETE FROM person WHERE NOT (id = 1)").(*Delete)
	if d.Table != "person" {
		t.Fatal("delete table")
	}
	if _, ok := d.Where.(*Not); !ok {
		t.Fatal("NOT lost")
	}
}

func TestParseCreateDomainTree(t *testing.T) {
	st := mustParse(t, `CREATE DOMAIN location TREE LEVELS (address, city, region, country)
		PATH ('Dam 1', 'Amsterdam', 'Noord-Holland', 'Netherlands')
		PATH ('10 rue de Rivoli', 'Paris', 'Ile-de-France', 'France')`)
	cd := st.(*CreateDomain)
	if cd.Kind != "TREE" || len(cd.Levels) != 4 || len(cd.Paths) != 2 || cd.Paths[1][1] != "Paris" {
		t.Fatalf("%+v", cd)
	}
}

func TestParseCreateDomainRangesAndTime(t *testing.T) {
	cd := mustParse(t, "CREATE DOMAIN salary RANGES (100, 1000, SUPPRESS)").(*CreateDomain)
	if cd.Kind != "RANGES" || len(cd.Widths) != 3 || cd.Widths[2] != 0 {
		t.Fatalf("%+v", cd)
	}
	td := mustParse(t, "CREATE DOMAIN ts TIME (exact, hour, day, month)").(*CreateDomain)
	if td.Kind != "TIME" || len(td.Units) != 4 || td.Units[1] != "hour" {
		t.Fatalf("%+v", td)
	}
}

func TestParseCreatePolicyFigure2(t *testing.T) {
	st := mustParse(t, `CREATE POLICY locpol ON location (
		HOLD address FOR '0m',
		HOLD city FOR '1h',
		HOLD region FOR '1d',
		HOLD country FOR '1mo'
	) THEN DELETE`)
	cp := st.(*CreatePolicy)
	if cp.Domain != "location" || len(cp.Steps) != 4 || cp.Terminal != "DELETE" {
		t.Fatalf("%+v", cp)
	}
	if cp.Steps[2].Retention != 24*time.Hour || cp.Steps[3].Retention != 30*24*time.Hour {
		t.Fatalf("retentions: %+v", cp.Steps)
	}
}

func TestParseCreatePolicyTriggers(t *testing.T) {
	st := mustParse(t, `CREATE POLICY p ON location (
		HOLD address FOR '1h' UNTIL EVENT 'consent-withdrawn',
		HOLD city FOR '1d' IF case_closed
	) THEN SUPPRESS`)
	cp := st.(*CreatePolicy)
	if cp.Steps[0].Event != "consent-withdrawn" || cp.Steps[1].Predicate != "case_closed" {
		t.Fatalf("%+v", cp.Steps)
	}
	if cp.Terminal != "SUPPRESS" {
		t.Fatal("terminal")
	}
	// Default terminal is REMAIN.
	cp2 := mustParse(t, "CREATE POLICY q ON location (HOLD address FOR '1h')").(*CreatePolicy)
	if cp2.Terminal != "REMAIN" {
		t.Fatal("default terminal")
	}
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, `CREATE TABLE person (
		id INT PRIMARY KEY,
		name TEXT NOT NULL,
		location TEXT DEGRADABLE DOMAIN location POLICY locpol,
		salary INT DEGRADABLE DOMAIN salary POLICY salpol
	) LAYOUT INPLACE`)
	ct := st.(*CreateTable)
	if len(ct.Columns) != 4 || !ct.Columns[0].PrimaryKey || !ct.Columns[1].NotNull {
		t.Fatalf("%+v", ct)
	}
	if !ct.Columns[2].Degradable || ct.Columns[2].Policy != "locpol" {
		t.Fatalf("%+v", ct.Columns[2])
	}
	if ct.Layout != "INPLACE" {
		t.Fatal("layout")
	}
}

func TestParseCreateIndexAndDrop(t *testing.T) {
	ci := mustParse(t, "CREATE INDEX ixloc ON person (location) USING GT").(*CreateIndex)
	if ci.Using != "GT" || ci.Column != "location" {
		t.Fatalf("%+v", ci)
	}
	ci2 := mustParse(t, "CREATE INDEX ixid ON person (id)").(*CreateIndex)
	if ci2.Using != "BTREE" {
		t.Fatal("default index type")
	}
	if st := mustParse(t, "DROP TABLE person").(*DropTable); st.Name != "person" {
		t.Fatal("drop table")
	}
	if st := mustParse(t, "DROP INDEX ixid").(*DropIndex); st.Name != "ixid" {
		t.Fatal("drop index")
	}
}

func TestParseDeclarePurposePaperExample(t *testing.T) {
	st := mustParse(t, `DECLARE PURPOSE stat SET ACCURACY LEVEL country FOR person.location,
		range1000 FOR person.salary`)
	dp := st.(*DeclarePurpose)
	if dp.Name != "stat" || len(dp.Levels) != 2 {
		t.Fatalf("%+v", dp)
	}
	if dp.Levels[0].LevelName != "country" || dp.Levels[1].Column != "salary" {
		t.Fatalf("%+v", dp.Levels)
	}
	dp2 := mustParse(t, "DECLARE PURPOSE x SET ACCURACY LEVEL city FOR p.loc ALLOW UNLISTED").(*DeclarePurpose)
	if !dp2.AllowUnlisted {
		t.Fatal("ALLOW UNLISTED lost")
	}
}

func TestParseSessionStatements(t *testing.T) {
	if st := mustParse(t, "SET PURPOSE stat").(*SetPurpose); st.Name != "stat" {
		t.Fatal("set purpose")
	}
	if st := mustParse(t, "BEGIN").(*Begin); st.ReadOnly {
		t.Fatal("plain BEGIN parsed read-only")
	}
	if st := mustParse(t, "BEGIN READ ONLY").(*Begin); !st.ReadOnly {
		t.Fatal("BEGIN READ ONLY lost the read-only flag")
	}
	if _, err := Parse("BEGIN READ"); err == nil {
		t.Fatal("BEGIN READ without ONLY must not parse")
	}
	mustParse(t, "COMMIT")
	mustParse(t, "ROLLBACK")
	if st := mustParse(t, "FIRE EVENT 'consent-withdrawn'").(*FireEvent); st.Name != "consent-withdrawn" {
		t.Fatal("fire event")
	}
}

func TestParseScriptAndComments(t *testing.T) {
	stmts, texts, err := ParseScript(`
		-- the paper's running example
		CREATE DOMAIN salary RANGES (100, 1000, SUPPRESS);
		CREATE POLICY sp ON salary (HOLD exact FOR '12h') THEN SUPPRESS;;
		SELECT * FROM person -- all of it
		;
		SELECT id FROM t WHERE name = 'a;''b'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 4 {
		t.Fatalf("parsed %d statements", len(stmts))
	}
	want := []string{
		"CREATE DOMAIN salary RANGES (100, 1000, SUPPRESS)",
		"CREATE POLICY sp ON salary (HOLD exact FOR '12h') THEN SUPPRESS",
		"SELECT * FROM person",
		"SELECT id FROM t WHERE name = 'a;''b'",
	}
	if !slices.Equal(texts, want) {
		t.Fatalf("statement texts %q, want %q", texts, want)
	}
}

// TestSplit covers what a reader of lines meets: a ';' in a literal or
// a comment, input that ends inside a literal or before its ';', and
// nothing but a comment after the last ';'.
func TestSplit(t *testing.T) {
	cases := []struct {
		src   string
		stmts []string
		rest  string
	}{
		{"PATH ('x;y', 'z'); tick;", []string{"PATH ('x;y', 'z')", "tick"}, ""},
		{"help; -- a; comment\n", []string{"help"}, ""},
		{";; SELECT 1 -- one;\n;", []string{"SELECT 1"}, ""},
		{"SELECT 1; SELECT", []string{"SELECT 1"}, "SELECT"},
		{"INSERT INTO t VALUES ('a;\nb", nil, "INSERT INTO t VALUES ('a;\nb"},
		{"SELECT 'it''s;' -- c\n", nil, "SELECT 'it''s;'"},
		{"  -- only a comment", nil, ""},
	}
	for _, c := range cases {
		stmts, rest := Split(c.src)
		if !slices.Equal(stmts, c.stmts) || rest != c.rest {
			t.Errorf("Split(%q) = %q, %q; want %q, %q", c.src, stmts, rest, c.stmts, c.rest)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "SELECT", "SELECT * FROM", "SELECT * FROM t WHERE",
		"FROB x", "SELECT * FROM t LIMIT -1", "SELECT * FROM t extra",
		"INSERT INTO t", "CREATE DOMAIN d BLOB (1)",
		"CREATE POLICY p ON d (HOLD a FOR 'xyz')",
		"SELECT * FROM t WHERE a = 'unterminated",
		"SELECT * FROM t WHERE a ~ 1",
		"DECLARE PURPOSE p SET ACCURACY LEVEL x FOR noDot",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseDuration(t *testing.T) {
	good := map[string]time.Duration{
		"0m":    0,
		"90m":   90 * time.Minute,
		"1h30m": 90 * time.Minute,
		"1d":    24 * time.Hour,
		"2w":    14 * 24 * time.Hour,
		"1mo":   30 * 24 * time.Hour,
		"1y":    365 * 24 * time.Hour,
		"1d12h": 36 * time.Hour,
	}
	for s, want := range good {
		got, err := ParseDuration(s)
		if err != nil || got != want {
			t.Errorf("ParseDuration(%q)=(%v,%v) want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"", "h", "5", "5x", "-5h"} {
		if _, err := ParseDuration(s); err == nil {
			t.Errorf("ParseDuration(%q) should fail", s)
		}
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"France", "%France%", true},
		{"Ile-de-France", "%France%", true},
		{"France", "France", true},
		{"france", "France", false},
		{"abc", "a_c", true},
		{"abc", "a_d", false},
		{"abc", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abcdef", "a%e_", true},
		{"abcdef", "a%ef%", true},
		{"aaa", "a%a%a", true},
	}
	for _, c := range cases {
		if got := Like(c.s, c.p); got != c.want {
			t.Errorf("Like(%q,%q)=%v want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestEvalPredicate(t *testing.T) {
	row := map[string]value.Value{
		"age":  value.Int(35),
		"name": value.Text("alice"),
		"note": value.Null(),
	}
	get := func(ref *ColumnRef) (value.Value, error) { return row[ref.Column], nil }
	cases := []struct {
		src  string
		want bool
	}{
		{"age > 30", true},
		{"age > 30 AND name = 'alice'", true},
		{"age < 30 OR name LIKE 'ali%'", true},
		{"NOT age = 35", false},
		{"age IN (1, 35)", true},
		{"age BETWEEN 30 AND 40", true},
		{"age NOT BETWEEN 30 AND 40", false},
		{"note IS NULL", true},
		{"note IS NOT NULL", false},
		{"note = 5", false},  // NULL comparison is false
		{"name != 42", true}, // incomparable kinds: != is true
		{"name = 42", false}, // incomparable kinds: = is false
		{"age NOT IN (1, 2)", true},
	}
	for _, c := range cases {
		st := mustParse(t, "SELECT * FROM t WHERE "+c.src).(*Select)
		got, err := EvalPredicate(st.Where, get)
		if err != nil || got != c.want {
			t.Errorf("eval(%q)=(%v,%v) want %v", c.src, got, err, c.want)
		}
	}
}

func TestConjunctsAndSargable(t *testing.T) {
	st := mustParse(t, "SELECT * FROM t WHERE a = 1 AND b > 2 AND (c = 3 OR d = 4) AND e IN (5,6) AND 7 < f").(*Select)
	conj := Conjuncts(st.Where)
	if len(conj) != 5 {
		t.Fatalf("conjuncts=%d", len(conj))
	}
	sargs := 0
	for _, c := range conj {
		if s, ok := AsSargable(c); ok {
			sargs++
			switch s.Col.Column {
			case "a":
				if s.Op != "=" || s.Vals[0].Int() != 1 {
					t.Fatal("a")
				}
			case "b":
				if s.Op != ">" {
					t.Fatal("b")
				}
			case "e":
				if s.Op != "IN" || len(s.Vals) != 2 {
					t.Fatal("e")
				}
			case "f":
				// 7 < f flips to f > 7.
				if s.Op != ">" || s.Vals[0].Int() != 7 {
					t.Fatal("f flip")
				}
			}
		}
	}
	if sargs != 4 {
		t.Fatalf("sargable=%d want 4 (OR branch is not)", sargs)
	}
	cols := map[string]bool{}
	ColumnsOf(st.Where, cols)
	if len(cols) != 6 {
		t.Fatalf("cols=%v", cols)
	}
}

func TestEvalErrors(t *testing.T) {
	get := func(ref *ColumnRef) (value.Value, error) { return value.Int(1), nil }
	st := mustParse(t, "SELECT * FROM t WHERE a LIKE 'x'").(*Select)
	// LIKE over non-text errors.
	if _, err := EvalPredicate(st.Where, get); err == nil {
		t.Fatal("LIKE over int should error")
	}
}
