package gentree

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"instantdb/internal/value"
)

func TestIntRangeValidation(t *testing.T) {
	if _, err := NewIntRange("s"); err == nil {
		t.Error("no widths should fail")
	}
	if _, err := NewIntRange("s", -5); err == nil {
		t.Error("negative width should fail")
	}
	if _, err := NewIntRange("s", 100, 250); err == nil {
		t.Error("non-multiple widths should fail")
	}
	if _, err := NewIntRange("s", 100, 0, 1000); err == nil {
		t.Error("suppression must be last")
	}
	if _, err := NewIntRange("s", 100, 1000, 0); err != nil {
		t.Errorf("valid domain failed: %v", err)
	}
}

func TestIntRangeLevelNames(t *testing.T) {
	d := Figure2Salary()
	want := []string{"exact", "range100", "range1000", "suppressed"}
	if d.Levels() != len(want) {
		t.Fatalf("Levels=%d want %d", d.Levels(), len(want))
	}
	for i, w := range want {
		if got := d.LevelName(i); got != w {
			t.Errorf("LevelName(%d)=%q want %q", i, got, w)
		}
		lvl, err := d.LevelByName(w)
		if err != nil || lvl != i {
			t.Errorf("LevelByName(%q)=(%d,%v)", w, lvl, err)
		}
	}
	// The paper's purpose syntax: RANGE1000.
	lvl, err := d.LevelByName("RANGE1000")
	if err != nil || lvl != 2 {
		t.Fatalf("LevelByName(RANGE1000)=(%d,%v)", lvl, err)
	}
}

func TestIntRangePaperExample(t *testing.T) {
	// Paper: SALARY = '2000-3000' under RANGE1000.
	d := Figure2Salary()
	stored, err := d.ResolveInsert(value.Int(2471))
	if err != nil {
		t.Fatal(err)
	}
	deg, err := d.Degrade(stored, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Render(deg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Text() != "2000-3000" {
		t.Fatalf("rendered %q want %q", r.Text(), "2000-3000")
	}
	// Locate accepts the same literal back.
	back, err := d.Locate(value.Text("2000-3000"), 2)
	if err != nil || len(back) != 1 || back[0].Int() != 2000 {
		t.Fatalf("Locate('2000-3000'): %v %v", back, err)
	}
}

func TestIntRangeNegativeValues(t *testing.T) {
	d := MustIntRange("delta", 10)
	deg, err := d.Degrade(value.Int(-3), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if deg.Int() != -10 {
		t.Fatalf("floor of -3 by 10 = %d want -10", deg.Int())
	}
	r, _ := d.Render(deg, 1)
	if r.Text() != "-10-0" {
		t.Fatalf("render %q want -10-0", r.Text())
	}
	lo, hi, err := ParseRangeLiteral("-10-0")
	if err != nil || lo != -10 || hi != 0 {
		t.Fatalf("ParseRangeLiteral: %d %d %v", lo, hi, err)
	}
}

func TestIntRangeSuppression(t *testing.T) {
	d := Figure2Salary()
	deg, err := d.Degrade(value.Int(2471), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := d.Render(deg, 3)
	if r.Text() != "*" {
		t.Fatalf("suppressed renders %q want *", r.Text())
	}
	if _, err := d.OrderKey(deg, 3); err != ErrNotOrdered {
		t.Fatalf("suppressed OrderKey err=%v", err)
	}
	got, err := d.Locate(value.Text("*"), 3)
	if err != nil || len(got) != 1 {
		t.Fatalf("Locate(*): %v %v", got, err)
	}
}

func TestIntRangeLocateErrors(t *testing.T) {
	d := Figure2Salary()
	if _, err := d.Locate(value.Text("2000-2500"), 2); err == nil {
		t.Error("misaligned bucket literal should fail")
	}
	if _, err := d.Locate(value.Text("banana"), 2); err == nil {
		t.Error("garbage literal should fail")
	}
	if _, err := d.Locate(value.Bool(true), 0); err == nil {
		t.Error("bool at level 0 should fail")
	}
	// An INT locates its enclosing bucket.
	got, err := d.Locate(value.Int(2471), 2)
	if err != nil || got[0].Int() != 2000 {
		t.Fatalf("Locate(2471)@2: %v %v", got, err)
	}
}

func TestParseRangeLiteralErrors(t *testing.T) {
	for _, s := range []string{"", "100", "-100", "300-200", "a-b", "100-"} {
		if _, _, err := ParseRangeLiteral(s); err == nil {
			t.Errorf("ParseRangeLiteral(%q) should fail", s)
		}
	}
}

// Property: buckets nest — degrading to a coarser level directly equals
// degrading via any intermediate level (the GT tree property for ranges).
func TestQuickIntRangeNesting(t *testing.T) {
	d := MustIntRange("q", 10, 100, 1000)
	if err := quick.Check(func(v int64) bool {
		for mid := 1; mid < 3; mid++ {
			a, err := d.Degrade(value.Int(v), 0, 3)
			if err != nil {
				return false
			}
			m, err := d.Degrade(value.Int(v), 0, mid)
			if err != nil {
				return false
			}
			b, err := d.Degrade(m, mid, 3)
			if err != nil {
				return false
			}
			if !value.Equal(a, b) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a value's bucket contains it.
func TestQuickIntRangeContains(t *testing.T) {
	d := MustIntRange("q", 7) // non-power-of-ten width
	if err := quick.Check(func(v int64) bool {
		// Avoid overflow at the extreme of the domain.
		if v > 1<<60 || v < -(1<<60) {
			return true
		}
		deg, err := d.Degrade(value.Int(v), 0, 1)
		if err != nil {
			return false
		}
		lo := deg.Int()
		return lo <= v && v < lo+7
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeTruncValidation(t *testing.T) {
	if _, err := NewTimeTrunc("t", UnitExact); err == nil {
		t.Error("single level should fail")
	}
	if _, err := NewTimeTrunc("t", UnitHour, UnitDay); err == nil {
		t.Error("must start at exact")
	}
	if _, err := NewTimeTrunc("t", UnitExact, UnitDay, UnitHour); err == nil {
		t.Error("units must coarsen")
	}
}

func TestTimeTruncDegrade(t *testing.T) {
	d := StandardTimestamp() // exact, hour, day, month
	ts := time.Date(2008, 4, 7, 14, 35, 22, 123456789, time.UTC)
	stored, err := d.ResolveInsert(value.Time(ts))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		level int
		want  time.Time
	}{
		{0, ts},
		{1, time.Date(2008, 4, 7, 14, 0, 0, 0, time.UTC)},
		{2, time.Date(2008, 4, 7, 0, 0, 0, 0, time.UTC)},
		{3, time.Date(2008, 4, 1, 0, 0, 0, 0, time.UTC)},
	}
	for _, c := range cases {
		got, err := d.Degrade(stored, 0, c.level)
		if err != nil {
			t.Fatalf("level %d: %v", c.level, err)
		}
		if !got.Time().Equal(c.want) {
			t.Errorf("level %d: %v want %v", c.level, got.Time(), c.want)
		}
	}
}

func TestTruncateWeek(t *testing.T) {
	// 2008-04-09 was a Wednesday; the ISO week starts Monday 2008-04-07.
	ts := time.Date(2008, 4, 9, 10, 0, 0, 0, time.UTC)
	got := Truncate(ts, UnitWeek)
	want := time.Date(2008, 4, 7, 0, 0, 0, 0, time.UTC)
	if !got.Equal(want) {
		t.Fatalf("week truncation %v want %v", got, want)
	}
	// A Monday truncates to itself.
	if got2 := Truncate(want, UnitWeek); !got2.Equal(want) {
		t.Fatalf("monday truncation %v want %v", got2, want)
	}
}

func TestTruncateYearAndSecond(t *testing.T) {
	ts := time.Date(2008, 4, 9, 10, 30, 45, 999, time.UTC)
	if got := Truncate(ts, UnitYear); !got.Equal(time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("year truncation %v", got)
	}
	if got := Truncate(ts, UnitSecond); got.Nanosecond() != 0 {
		t.Fatalf("second truncation kept nanos: %v", got)
	}
}

// Property: time truncation is idempotent and monotone (never moves
// forward), and nested units compose.
func TestQuickTimeTruncProperties(t *testing.T) {
	d := MustTimeTrunc("q", UnitExact, UnitMinute, UnitHour, UnitDay, UnitMonth, UnitYear)
	if err := quick.Check(func(sec int64, nsec int64) bool {
		sec = sec % (1 << 33) // keep within sane year range
		if sec < 0 {
			sec = -sec
		}
		ts := time.Unix(sec, nsec%1e9).UTC()
		stored := value.Time(ts)
		prev := ts
		for lvl := 1; lvl < d.Levels(); lvl++ {
			got, err := d.Degrade(stored, 0, lvl)
			if err != nil {
				return false
			}
			g := got.Time()
			if g.After(prev) {
				return false // coarser level moved forward
			}
			again, err := d.Degrade(got, lvl, lvl)
			if err != nil || !value.Equal(again, got) {
				return false // idempotence
			}
			// Stepwise composition equals direct truncation.
			if lvl >= 2 {
				mid, err := d.Degrade(stored, 0, lvl-1)
				if err != nil {
					return false
				}
				via, err := d.Degrade(mid, lvl-1, lvl)
				if err != nil || !value.Equal(via, got) {
					return false
				}
			}
			prev = g
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeTruncLevelNames(t *testing.T) {
	d := StandardTimestamp()
	lvl, err := d.LevelByName("DAY")
	if err != nil || lvl != 2 {
		t.Fatalf("LevelByName(DAY)=(%d,%v)", lvl, err)
	}
	if d.LevelName(1) != "hour" {
		t.Fatalf("LevelName(1)=%q", d.LevelName(1))
	}
}

func TestTimeTruncKindErrors(t *testing.T) {
	d := StandardTimestamp()
	if _, err := d.ResolveInsert(value.Int(5)); err == nil {
		t.Error("non-time insert should fail")
	}
	if _, err := d.Degrade(value.Int(5), 0, 1); err == nil {
		t.Error("non-time degrade should fail")
	}
	if _, err := d.Locate(value.Text("x"), 1); err == nil {
		t.Error("non-time locate should fail")
	}
}

// TestIntRangeExtremes: a range domain refuses, by name, an INT whose
// widest bucket does not fit in int64 — at insert, and as a literal to
// locate — and every value it accepts degrades, renders and spans a
// bucket that holds it at every level, with no bound wrapped around.
func TestIntRangeExtremes(t *testing.T) {
	salary := Figure2Salary() // widths 100, 1000, suppression
	exactOnly := MustIntRange("flag", 0)
	for _, c := range []struct {
		name string
		d    *IntRange
		v    int64
		ok   bool
	}{
		{"MinInt64", salary, math.MinInt64, false},
		{"MinInt64+1", salary, math.MinInt64 + 1, false},
		{"below the first bucket", salary, -9223372036854775001, false},
		{"first accepted", salary, -9223372036854775000, true},
		{"last accepted", salary, 9223372036854774999, true},
		{"above the last bucket", salary, 9223372036854775000, false},
		{"MaxInt64", salary, math.MaxInt64, false},
		{"MinInt64, exact and suppressed", exactOnly, math.MinInt64, true},
		{"MaxInt64-1, exact and suppressed", exactOnly, math.MaxInt64 - 1, true},
		{"MaxInt64, exact and suppressed", exactOnly, math.MaxInt64, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			stored, err := c.d.ResolveInsert(value.Int(c.v))
			if !c.ok {
				if !errors.Is(err, ErrUnknownValue) || !strings.Contains(err.Error(), c.d.Name()) {
					t.Fatalf("ResolveInsert(%d) = %v, %v; want ErrUnknownValue naming %s", c.v, stored, err, c.d.Name())
				}
				for level := range c.d.Levels() {
					if got, err := c.d.Locate(value.Int(c.v), level); !errors.Is(err, ErrUnknownValue) {
						t.Errorf("Locate(%d, %s) = %v, %v; want ErrUnknownValue", c.v, c.d.LevelName(level), got, err)
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("ResolveInsert(%d): %v", c.v, err)
			}
			for level := range c.d.Levels() {
				w := c.d.widthAt(level)
				if w == 0 {
					continue
				}
				deg, err := c.d.Degrade(stored, 0, level)
				if err != nil {
					t.Fatal(err)
				}
				lo, hi, err := c.d.BucketSpan(deg, level)
				if err != nil {
					t.Fatal(err)
				}
				if !(lo.Int() <= c.v && c.v < hi.Int() && hi.Int()-lo.Int() == w) {
					t.Errorf("%s: %d degrades to bucket [%d, %d)", c.d.LevelName(level), c.v, lo.Int(), hi.Int())
				}
				if got, err := c.d.Locate(value.Int(c.v), level); err != nil || got[0].Int() != deg.Int() {
					t.Errorf("%s: Locate(%d) = %v, %v; want %d", c.d.LevelName(level), c.v, got, err, deg.Int())
				}
				if level == 0 {
					continue
				}
				r, err := c.d.Render(deg, level)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := c.d.Locate(r, level); err != nil || got[0].Int() != deg.Int() {
					t.Errorf("%s: Locate(%q) = %v, %v; want %d", c.d.LevelName(level), r.Text(), got, err, deg.Int())
				}
			}
		})
	}
}
