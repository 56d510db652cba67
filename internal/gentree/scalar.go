package gentree

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"instantdb/internal/value"
)

// IntRange is a numeric generalization hierarchy: level 0 is the exact
// integer, level i>0 buckets the value into ranges of Widths[i-1]. A final
// width of 0 means full suppression (rendered "*"). Widths must be strictly
// increasing and each must divide the next so buckets nest — the defining
// property of a generalization tree over a numeric domain.
//
// Stored representation: value.Int — the exact value at level 0, the
// bucket floor at level i>0, and 0 at a suppression level. Rendered form
// at level i>0 is the paper's literal syntax "lo-hi" (hi exclusive), e.g.
// salary 2471 at RANGE1000 renders "2000-3000".
type IntRange struct {
	name       string
	levelNames []string
	widths     []int64 // widths[i] applies to level i+1; 0 = suppression
}

// NewIntRange builds a numeric range domain. widths apply to levels 1..n;
// a trailing 0 adds a suppression level.
func NewIntRange(name string, widths ...int64) (*IntRange, error) {
	if len(widths) == 0 {
		return nil, fmt.Errorf("gentree: range domain %q needs at least one width", name)
	}
	names := []string{"exact"}
	var prev int64
	for i, w := range widths {
		switch {
		case w == 0:
			if i != len(widths)-1 {
				return nil, fmt.Errorf("gentree: range domain %q: suppression (width 0) must be last", name)
			}
			names = append(names, "suppressed")
		case w < 0:
			return nil, fmt.Errorf("gentree: range domain %q: negative width %d", name, w)
		case prev > 0 && (w <= prev || w%prev != 0):
			return nil, fmt.Errorf("gentree: range domain %q: width %d must be an increasing multiple of %d",
				name, w, prev)
		default:
			names = append(names, fmt.Sprintf("range%d", w))
		}
		if w != 0 {
			prev = w
		}
	}
	return &IntRange{name: name, levelNames: names, widths: append([]int64(nil), widths...)}, nil
}

// MustIntRange is NewIntRange for static fixtures; it panics on error.
func MustIntRange(name string, widths ...int64) *IntRange {
	d, err := NewIntRange(name, widths...)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements Domain.
func (d *IntRange) Name() string { return d.name }

// Levels implements Domain.
func (d *IntRange) Levels() int { return len(d.widths) + 1 }

// LevelName implements Domain.
func (d *IntRange) LevelName(level int) string {
	if level < 0 || level >= len(d.levelNames) {
		return fmt.Sprintf("level%d", level)
	}
	return d.levelNames[level]
}

// LevelByName implements Domain.
func (d *IntRange) LevelByName(name string) (int, error) {
	for i, n := range d.levelNames {
		if strings.EqualFold(n, name) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: level %q of domain %s", ErrBadLevel, name, d.name)
}

// InsertKind implements Domain: range domains ingest INT.
func (d *IntRange) InsertKind() value.Kind { return value.KindInt }

// ResolveInsert implements Domain. It refuses an INT whose widest bucket
// does not fit in int64 (see inBuckets).
func (d *IntRange) ResolveInsert(v value.Value) (value.Value, error) {
	if v.Kind() != value.KindInt {
		return value.Null(), fmt.Errorf("gentree: range %s stores INT, got %s", d.name, v.Kind())
	}
	if err := d.inBuckets(v.Int()); err != nil {
		return value.Null(), err
	}
	return v, nil
}

// inBuckets reports, as ErrUnknownValue naming the domain, an INT whose
// bucket at the widest width — [lo, lo+w), hi exclusive — does not fit
// in int64. Widths nest, so that bucket bounds the value's bucket at
// every level, the exact level [v, v+1) included: past the check, bucket
// arithmetic on the value and on every form it degrades to cannot wrap.
func (d *IntRange) inBuckets(v int64) error {
	w := int64(1)
	for _, x := range d.widths {
		w = max(w, x)
	}
	q := floorDiv(v, w)
	if lo := q * w; lo/w != q || lo > math.MaxInt64-w {
		return fmt.Errorf("%w: %d: its %d-wide bucket of range %s does not fit in a 64-bit integer",
			ErrUnknownValue, v, w, d.name)
	}
	return nil
}

// widthAt returns the bucket width of a level (1 at level 0 meaning exact,
// 0 meaning suppression).
func (d *IntRange) widthAt(level int) int64 {
	if level == 0 {
		return 1
	}
	return d.widths[level-1]
}

// Degrade implements Domain.
func (d *IntRange) Degrade(stored value.Value, from, to int) (value.Value, error) {
	if err := checkSpan(d, from, to); err != nil {
		return value.Null(), err
	}
	if stored.Kind() != value.KindInt {
		return value.Null(), fmt.Errorf("gentree: range %s stored form is INT, got %s", d.name, stored.Kind())
	}
	w := d.widthAt(to)
	if w == 0 {
		return value.Int(0), nil // suppressed
	}
	return value.Int(floorDiv(stored.Int(), w) * w), nil
}

// Render implements Domain.
func (d *IntRange) Render(stored value.Value, level int) (value.Value, error) {
	if err := checkLevel(d, level); err != nil {
		return value.Null(), err
	}
	if stored.Kind() != value.KindInt {
		return value.Null(), fmt.Errorf("gentree: range %s stored form is INT, got %s", d.name, stored.Kind())
	}
	w := d.widthAt(level)
	switch {
	case level == 0:
		return stored, nil
	case w == 0:
		return value.Text("*"), nil
	default:
		lo := stored.Int()
		return value.Text(fmt.Sprintf("%d-%d", lo, lo+w)), nil
	}
}

// Locate implements Domain. At level 0 it accepts an INT; at bucket levels
// it accepts either the "lo-hi" literal or an INT inside the bucket; at a
// suppression level it accepts "*".
func (d *IntRange) Locate(v value.Value, level int) ([]value.Value, error) {
	if err := checkLevel(d, level); err != nil {
		return nil, err
	}
	w := d.widthAt(level)
	switch {
	case level == 0:
		if v.Kind() != value.KindInt {
			return nil, fmt.Errorf("gentree: range %s level 0 locates INT, got %s", d.name, v.Kind())
		}
		if err := d.inBuckets(v.Int()); err != nil {
			return nil, err
		}
		return []value.Value{v}, nil
	case w == 0:
		if v.Kind() == value.KindText && v.Text() == "*" {
			return []value.Value{value.Int(0)}, nil
		}
		return nil, fmt.Errorf("%w: suppression level of %s only holds %q", ErrUnknownValue, d.name, "*")
	default:
		switch v.Kind() {
		case value.KindInt:
			if err := d.inBuckets(v.Int()); err != nil {
				return nil, err
			}
			return []value.Value{value.Int(floorDiv(v.Int(), w) * w)}, nil
		case value.KindText:
			lo, hi, err := ParseRangeLiteral(v.Text())
			if err != nil {
				return nil, err
			}
			if err := d.inBuckets(lo); err != nil {
				return nil, err
			}
			if hi-lo != w || floorDiv(lo, w)*w != lo {
				return nil, fmt.Errorf("%w: %q is not a %s bucket of %s",
					ErrUnknownValue, v.Text(), d.LevelName(level), d.name)
			}
			return []value.Value{value.Int(lo)}, nil
		default:
			return nil, fmt.Errorf("gentree: range %s locates INT or \"lo-hi\", got %s", d.name, v.Kind())
		}
	}
}

// BucketSpan returns the half-open order-key interval [lo, hi) covered
// by a stored representation at the given level — the set of finer
// values that generalize to it. Used by index planning for equality
// predicates at degraded accuracy.
func (d *IntRange) BucketSpan(stored value.Value, level int) (lo, hi value.Value, err error) {
	if err := checkLevel(d, level); err != nil {
		return value.Null(), value.Null(), err
	}
	if stored.Kind() != value.KindInt {
		return value.Null(), value.Null(), fmt.Errorf("gentree: range %s stored form is INT, got %s", d.name, stored.Kind())
	}
	w := d.widthAt(level)
	if w == 0 {
		return value.Null(), value.Null(), ErrNotOrdered
	}
	return stored, value.Int(stored.Int() + w), nil
}

// OrderKey implements Domain: the bucket floor orders buckets.
func (d *IntRange) OrderKey(stored value.Value, level int) (value.Value, error) {
	if err := checkLevel(d, level); err != nil {
		return value.Null(), err
	}
	if d.widthAt(level) == 0 {
		return value.Null(), ErrNotOrdered
	}
	if stored.Kind() != value.KindInt {
		return value.Null(), fmt.Errorf("gentree: range %s stored form is INT, got %s", d.name, stored.Kind())
	}
	return stored, nil
}

// ParseRangeLiteral parses the paper's "lo-hi" range literal. The
// separator is the first '-' past the first byte, so negative bounds
// parse ("-100--50").
func ParseRangeLiteral(s string) (lo, hi int64, err error) {
	i := strings.IndexByte(s[min(1, len(s)):], '-') + 1
	if i <= 0 {
		return 0, 0, fmt.Errorf("gentree: bad range literal %q", s)
	}
	lo, err = strconv.ParseInt(s[:i], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("gentree: bad range literal %q: %v", s, err)
	}
	hi, err = strconv.ParseInt(s[i+1:], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("gentree: bad range literal %q: %v", s, err)
	}
	if hi <= lo {
		return 0, 0, fmt.Errorf("gentree: empty range literal %q", s)
	}
	return lo, hi, nil
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

var _ Domain = (*IntRange)(nil)

// TimeUnit is a truncation granularity of a TimeTrunc domain.
type TimeUnit uint8

// Truncation granularities, fine to coarse.
const (
	UnitExact TimeUnit = iota
	UnitSecond
	UnitMinute
	UnitHour
	UnitDay
	UnitWeek
	UnitMonth
	UnitYear
)

// String returns the lowercase unit name.
func (u TimeUnit) String() string {
	switch u {
	case UnitExact:
		return "exact"
	case UnitSecond:
		return "second"
	case UnitMinute:
		return "minute"
	case UnitHour:
		return "hour"
	case UnitDay:
		return "day"
	case UnitWeek:
		return "week"
	case UnitMonth:
		return "month"
	case UnitYear:
		return "year"
	default:
		return fmt.Sprintf("unit%d", uint8(u))
	}
}

// TimeTrunc generalizes timestamps by truncation: exact → second → minute
// → hour → day → month → … in UTC. Stored representation: value.Time
// truncated to the level's unit.
type TimeTrunc struct {
	name  string
	units []TimeUnit // units[0] must be UnitExact
}

// NewTimeTrunc builds a time-truncation domain from a strictly coarsening
// unit sequence starting at UnitExact.
func NewTimeTrunc(name string, units ...TimeUnit) (*TimeTrunc, error) {
	if len(units) < 2 {
		return nil, fmt.Errorf("gentree: time domain %q needs at least 2 levels", name)
	}
	if units[0] != UnitExact {
		return nil, fmt.Errorf("gentree: time domain %q must start at exact", name)
	}
	for i := 1; i < len(units); i++ {
		if units[i] <= units[i-1] {
			return nil, fmt.Errorf("gentree: time domain %q: units must strictly coarsen", name)
		}
	}
	return &TimeTrunc{name: name, units: append([]TimeUnit(nil), units...)}, nil
}

// MustTimeTrunc is NewTimeTrunc for static fixtures; it panics on error.
func MustTimeTrunc(name string, units ...TimeUnit) *TimeTrunc {
	d, err := NewTimeTrunc(name, units...)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements Domain.
func (d *TimeTrunc) Name() string { return d.name }

// Levels implements Domain.
func (d *TimeTrunc) Levels() int { return len(d.units) }

// LevelName implements Domain.
func (d *TimeTrunc) LevelName(level int) string {
	if level < 0 || level >= len(d.units) {
		return fmt.Sprintf("level%d", level)
	}
	return d.units[level].String()
}

// LevelByName implements Domain.
func (d *TimeTrunc) LevelByName(name string) (int, error) {
	for i, u := range d.units {
		if strings.EqualFold(u.String(), name) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: level %q of domain %s", ErrBadLevel, name, d.name)
}

// Truncate truncates t to the unit, in UTC.
func Truncate(t time.Time, u TimeUnit) time.Time {
	t = t.UTC()
	switch u {
	case UnitExact:
		return t
	case UnitSecond:
		return t.Truncate(time.Second)
	case UnitMinute:
		return t.Truncate(time.Minute)
	case UnitHour:
		return t.Truncate(time.Hour)
	case UnitDay:
		return time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
	case UnitWeek:
		d := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
		// ISO weeks start Monday.
		off := (int(d.Weekday()) + 6) % 7
		return d.AddDate(0, 0, -off)
	case UnitMonth:
		return time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, time.UTC)
	case UnitYear:
		return time.Date(t.Year(), 1, 1, 0, 0, 0, 0, time.UTC)
	default:
		return t
	}
}

// InsertKind implements Domain: time domains ingest TIME.
func (d *TimeTrunc) InsertKind() value.Kind { return value.KindTime }

// ResolveInsert implements Domain.
func (d *TimeTrunc) ResolveInsert(v value.Value) (value.Value, error) {
	if v.Kind() != value.KindTime {
		return value.Null(), fmt.Errorf("gentree: time %s stores TIME, got %s", d.name, v.Kind())
	}
	return v, nil
}

// Degrade implements Domain.
func (d *TimeTrunc) Degrade(stored value.Value, from, to int) (value.Value, error) {
	if err := checkSpan(d, from, to); err != nil {
		return value.Null(), err
	}
	if stored.Kind() != value.KindTime {
		return value.Null(), fmt.Errorf("gentree: time %s stored form is TIME, got %s", d.name, stored.Kind())
	}
	return value.Time(Truncate(stored.Time(), d.units[to])), nil
}

// Render implements Domain: the stored form is already user-visible.
func (d *TimeTrunc) Render(stored value.Value, level int) (value.Value, error) {
	if err := checkLevel(d, level); err != nil {
		return value.Null(), err
	}
	if stored.Kind() != value.KindTime {
		return value.Null(), fmt.Errorf("gentree: time %s stored form is TIME, got %s", d.name, stored.Kind())
	}
	return stored, nil
}

// Locate implements Domain: a timestamp locates its truncation.
func (d *TimeTrunc) Locate(v value.Value, level int) ([]value.Value, error) {
	if err := checkLevel(d, level); err != nil {
		return nil, err
	}
	if v.Kind() != value.KindTime {
		return nil, fmt.Errorf("gentree: time %s locates TIME, got %s", d.name, v.Kind())
	}
	return []value.Value{value.Time(Truncate(v.Time(), d.units[level]))}, nil
}

// BucketSpan returns the half-open time interval [lo, hi) covered by a
// truncated timestamp at the given level.
func (d *TimeTrunc) BucketSpan(stored value.Value, level int) (lo, hi value.Value, err error) {
	if err := checkLevel(d, level); err != nil {
		return value.Null(), value.Null(), err
	}
	if stored.Kind() != value.KindTime {
		return value.Null(), value.Null(), fmt.Errorf("gentree: time %s stored form is TIME, got %s", d.name, stored.Kind())
	}
	t := stored.Time()
	var end time.Time
	switch d.units[level] {
	case UnitExact:
		end = t.Add(time.Nanosecond)
	case UnitSecond:
		end = t.Add(time.Second)
	case UnitMinute:
		end = t.Add(time.Minute)
	case UnitHour:
		end = t.Add(time.Hour)
	case UnitDay:
		end = t.AddDate(0, 0, 1)
	case UnitWeek:
		end = t.AddDate(0, 0, 7)
	case UnitMonth:
		end = t.AddDate(0, 1, 0)
	case UnitYear:
		end = t.AddDate(1, 0, 0)
	default:
		return value.Null(), value.Null(), fmt.Errorf("gentree: unknown unit")
	}
	return stored, value.Time(end), nil
}

// OrderKey implements Domain: truncated timestamps order naturally.
func (d *TimeTrunc) OrderKey(stored value.Value, level int) (value.Value, error) {
	if err := checkLevel(d, level); err != nil {
		return value.Null(), err
	}
	if stored.Kind() != value.KindTime {
		return value.Null(), fmt.Errorf("gentree: time %s stored form is TIME, got %s", d.name, stored.Kind())
	}
	return stored, nil
}

var _ Domain = (*TimeTrunc)(nil)
