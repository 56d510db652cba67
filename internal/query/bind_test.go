package query

import (
	"strings"
	"testing"

	"instantdb/internal/value"
)

func TestParsePlaceholders(t *testing.T) {
	st := mustParse(t, "SELECT id FROM person WHERE location = ? AND salary BETWEEN ? AND ? OR id IN (?, 4)").(*Select)
	if n := NumPlaceholders(st); n != 4 {
		t.Fatalf("NumPlaceholders = %d, want 4", n)
	}
	cmp := st.Where.(*Logical).Left.(*Logical).Left.(*Compare)
	if ph, ok := cmp.Right.(*Placeholder); !ok || ph.Index != 0 {
		t.Fatalf("first placeholder = %#v, want index 0", cmp.Right)
	}

	ins := mustParse(t, "INSERT INTO person (id, name) VALUES (?, ?), (?, 'fixed')").(*Insert)
	if n := NumPlaceholders(ins); n != 3 {
		t.Fatalf("insert NumPlaceholders = %d, want 3", n)
	}

	up := mustParse(t, "UPDATE person SET name = ? WHERE id = ?").(*Update)
	if n := NumPlaceholders(up); n != 2 {
		t.Fatalf("update NumPlaceholders = %d, want 2", n)
	}
	if ph := up.Sets[0].Val.(*Placeholder); ph.Index != 0 {
		t.Fatalf("SET placeholder index = %d, want 0", ph.Index)
	}
	if ph := up.Where.(*Compare).Right.(*Placeholder); ph.Index != 1 {
		t.Fatalf("WHERE placeholder index = %d, want 1", ph.Index)
	}
}

func TestParseScriptRejectsPlaceholders(t *testing.T) {
	// Scripts have no bind path, so a stray ? must fail at parse time —
	// not data-dependently at evaluation time.
	_, _, err := ParseScript("INSERT INTO t (id) VALUES (1); DELETE FROM t WHERE id = ?;")
	if err == nil || !strings.Contains(err.Error(), "statement 2") {
		t.Fatalf("script with placeholder: %v, want statement-2 rejection", err)
	}
	if _, _, err := ParseScript("INSERT INTO t (id) VALUES (1); DELETE FROM t WHERE id = 1;"); err != nil {
		t.Fatalf("placeholder-free script rejected: %v", err)
	}
}

func TestBindSubstitutes(t *testing.T) {
	st := mustParse(t, "SELECT id FROM person WHERE location = ? AND id IN (?, ?)")
	bound, err := Bind(st, []value.Value{value.Text("Paris"), value.Int(1), value.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	sel := bound.(*Select)
	and := sel.Where.(*Logical)
	if lit := and.Left.(*Compare).Right.(*Literal); lit.Val.Text() != "Paris" {
		t.Fatalf("bound comparison = %v", lit.Val)
	}
	in := and.Right.(*InList)
	if lit := in.Vals[1].(*Literal); lit.Val.Int() != 2 {
		t.Fatalf("bound IN value = %v", lit.Val)
	}
	// The original AST must keep its placeholders (statements are reusable).
	orig := st.(*Select).Where.(*Logical)
	if _, ok := orig.Left.(*Compare).Right.(*Placeholder); !ok {
		t.Fatal("Bind mutated the source AST")
	}
}

func TestBindSharesUnparameterizedSubtrees(t *testing.T) {
	st := mustParse(t, "SELECT id FROM person WHERE name = 'a' AND id = ?").(*Select)
	bound, err := Bind(st, []value.Value{value.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	if got := bound.(*Select).Where.(*Logical).Left; got != st.Where.(*Logical).Left {
		t.Fatal("placeholder-free subtree was copied instead of shared")
	}
}

func TestBindArity(t *testing.T) {
	st := mustParse(t, "SELECT id FROM person WHERE id = ?")
	for _, args := range [][]value.Value{nil, {value.Int(1), value.Int(2)}} {
		if _, err := Bind(st, args); err == nil {
			t.Fatalf("Bind with %d args should fail", len(args))
		} else if !strings.Contains(err.Error(), "1 placeholders") {
			t.Fatalf("arity error = %v", err)
		}
	}
	// No placeholders + no args binds to the identical statement.
	plain := mustParse(t, "SELECT id FROM person")
	bound, err := Bind(plain, nil)
	if err != nil || bound != plain {
		t.Fatalf("zero-arg bind = (%v, %v), want identity", bound, err)
	}
	// Args against a statement that takes none.
	if _, err := Bind(plain, []value.Value{value.Int(1)}); err == nil {
		t.Fatal("args against placeholder-free statement should fail")
	}
	if _, err := Bind(mustParse(t, "BEGIN"), []value.Value{value.Int(1)}); err == nil {
		t.Fatal("args against BEGIN should fail")
	}
}

func TestBindInsertAndDelete(t *testing.T) {
	ins := mustParse(t, "INSERT INTO person (id, name) VALUES (?, ?)")
	bound, err := Bind(ins, []value.Value{value.Int(9), value.Text("zoe")})
	if err != nil {
		t.Fatal(err)
	}
	row := bound.(*Insert).Rows[0]
	if row[0].(*Literal).Val.Int() != 9 || row[1].(*Literal).Val.Text() != "zoe" {
		t.Fatalf("bound insert row = %#v", row)
	}
	if _, ok := ins.(*Insert).Rows[0][0].(*Placeholder); !ok {
		t.Fatal("Bind mutated the source INSERT")
	}

	del := mustParse(t, "DELETE FROM person WHERE NOT id = ? OR name IS NULL")
	bd, err := Bind(del, []value.Value{value.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	not := bd.(*Delete).Where.(*Logical).Left.(*Not)
	if lit := not.Inner.(*Compare).Right.(*Literal); lit.Val.Int() != 3 {
		t.Fatalf("bound NOT subtree = %#v", not.Inner)
	}
}

func TestUnboundPlaceholderEvalFails(t *testing.T) {
	st := mustParse(t, "SELECT id FROM person WHERE id = ?").(*Select)
	_, err := EvalPredicate(st.Where, func(*ColumnRef) (value.Value, error) {
		return value.Int(1), nil
	})
	if err == nil || !strings.Contains(err.Error(), "unbound placeholder") {
		t.Fatalf("evaluating unbound placeholder: %v", err)
	}
}
