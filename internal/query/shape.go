package query

import (
	"fmt"
	"sort"
	"strings"

	"instantdb/internal/value"
)

// This file is everything a SELECT does above σP,k: projection,
// grouping, aggregation, ordering, limiting. There is one copy of it.
// A single node (and each shard of a cluster) Feeds it the qualified
// input rows; the router asks the shards for the Partial form of an
// aggregated statement and Merges what they answer; Rows finishes
// either. Rows are plain [][]value.Value, so neither the engine's nor
// the wire's row type is privileged.

// Shape is the post-filter half of one SELECT, resolved once against
// the names of the input columns.
type Shape struct {
	// Columns names the output columns.
	Columns []string

	sel   *Select
	items []SelectItem // * expanded
	agg   bool         // aggregates or GROUP BY: rows fold into groups
	// src[i] is where item i reads: an input position, a position in
	// the group key for a grouping column of an aggregated shape, -1
	// for COUNT(*).
	src   []int
	group []int // input position per GROUP BY column
	order []int // output position per ORDER BY key
	// The partial layout: item i occupies cells [off[i], off[i+1]) of a
	// Partial row (AVG travels as sum and count, everything else as one
	// cell), and keyOff[g] is the cell carrying GROUP BY column g, -1
	// when the statement does not select it.
	off    []int
	keyOff []int
}

// NewShape resolves s against the input column names (lowercase, in the
// order input rows carry them): * expands, plain columns of an
// aggregated statement must be grouping columns, ORDER BY keys must
// name output columns (by name or alias, case-insensitively).
func NewShape(s *Select, input []string) (*Shape, error) {
	sh := &Shape{sel: s, items: s.Items, agg: len(s.GroupBy) > 0}
	star := false
	for _, it := range s.Items {
		if it.Agg != AggNone {
			sh.agg = true
		}
		if it.Star {
			star = true
		}
	}
	if star && sh.agg {
		return nil, fmt.Errorf("query: * cannot mix with aggregates or GROUP BY")
	}
	pos := func(c *ColumnRef) (int, error) {
		for i, name := range input {
			if name == c.Column {
				return i, nil
			}
		}
		return 0, fmt.Errorf("query: unknown column %s", c.Column)
	}
	for _, g := range s.GroupBy {
		p, err := pos(&g)
		if err != nil {
			return nil, err
		}
		sh.group = append(sh.group, p)
		sh.keyOff = append(sh.keyOff, -1)
	}
	if star {
		sh.items = nil
		for _, it := range s.Items {
			if !it.Star {
				sh.items = append(sh.items, it)
				continue
			}
			for _, name := range input {
				sh.items = append(sh.items, SelectItem{Col: &ColumnRef{Column: name}})
			}
		}
	}
	n := len(sh.items)
	ints := make([]int, 2*n+1)
	sh.Columns, sh.src, sh.off = make([]string, n), ints[:n], ints[n:]
	for i, it := range sh.items {
		sh.Columns[i] = outputName(it)
		sh.off[i+1] = sh.off[i] + 1
		p := -1
		switch {
		case it.CountStar:
		case it.Agg != AggNone || !sh.agg:
			var err error
			if p, err = pos(it.Col); err != nil {
				return nil, err
			}
		default: // a plain column of an aggregated statement reads the group key
			for g, gb := range s.GroupBy {
				if gb.Column == it.Col.Column {
					p = g
					if sh.keyOff[g] == -1 {
						sh.keyOff[g] = sh.off[i]
					}
					break
				}
			}
			if p == -1 {
				return nil, fmt.Errorf("query: column %s must appear in GROUP BY or an aggregate", it.Col.Column)
			}
		}
		if it.Agg == AggAvg {
			sh.off[i+1]++
		}
		sh.src[i] = p
	}
	for _, ob := range s.Order {
		found := -1
		for ci, name := range sh.Columns {
			if strings.EqualFold(name, ob.Col.Column) {
				found = ci
				break
			}
		}
		if found == -1 {
			return nil, fmt.Errorf("query: ORDER BY column %s not in output", ob.Col.Column)
		}
		sh.order = append(sh.order, found)
	}
	return sh, nil
}

// Aggregated reports whether rows fold into groups (the statement has
// an aggregate or a GROUP BY). Only then does Partial differ from the
// statement itself.
func (sh *Shape) Aggregated() bool { return sh.agg }

// outputName labels one output column: the alias, else the lowercase
// rendered form of the item.
func outputName(it SelectItem) string {
	switch {
	case it.Alias != "":
		return it.Alias
	case it.Agg == AggNone:
		return it.Col.Column
	case it.CountStar:
		return "count(*)"
	}
	return strings.ToLower(aggName(it.Agg)) + "(" + it.Col.Column + ")"
}

func aggName(fn AggFunc) string {
	switch fn {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return ""
}

// Partial is the statement a shard executes so that the router can
// recombine the answer exactly. A plain scan is its own partial form
// (ORDER BY and LIMIT push down; the router applies them again over
// the union). An aggregated statement travels with AVG split into SUM
// and COUNT — per-shard averages lose their weights — and with ORDER
// BY and LIMIT withheld, because they are only meaningful over merged
// groups. Every GROUP BY column must be selected: the merge finds a
// row's group in the row itself.
func (sh *Shape) Partial() (*Select, error) {
	if !sh.agg {
		return sh.sel, nil
	}
	for g, off := range sh.keyOff {
		if off == -1 {
			return nil, fmt.Errorf("query: GROUP BY column %s must be selected for cross-shard recombination", sh.sel.GroupBy[g].Column)
		}
	}
	p := &Select{Table: sh.sel.Table, Where: sh.sel.Where, GroupBy: sh.sel.GroupBy,
		Limit: -1, Purpose: sh.sel.Purpose}
	for _, it := range sh.items {
		it.Alias = "" // partial rows are read by position
		if it.Agg == AggAvg {
			p.Items = append(p.Items, SelectItem{Agg: AggSum, Col: it.Col}, SelectItem{Agg: AggCount, Col: it.Col})
			continue
		}
		p.Items = append(p.Items, it)
	}
	return p, nil
}

// Accum folds rows into the result of one Shape.
type Accum struct {
	sh     *Shape
	rows   [][]value.Value // plain shape: the output so far
	groups map[string]*group
	order  []*group // first-seen order
	enc    []byte   // group-key scratch
}

type group struct {
	key  []value.Value // GROUP BY order
	aggs []aggState    // per item; idle for grouping columns
}

// Begin starts an evaluation.
func (sh *Shape) Begin() *Accum {
	a := &Accum{sh: sh}
	if sh.agg {
		a.groups = make(map[string]*group)
	}
	return a
}

// groupOf finds or creates the group of a row whose cell at[g] carries
// GROUP BY column g.
func (a *Accum) groupOf(row []value.Value, at []int) *group {
	a.enc = a.enc[:0]
	for _, p := range at {
		a.enc = value.Encode(a.enc, row[p])
	}
	if gr, ok := a.groups[string(a.enc)]; ok {
		return gr
	}
	gr := &group{key: make([]value.Value, len(at)), aggs: make([]aggState, len(a.sh.items))}
	for g, p := range at {
		gr.key[g] = row[p]
	}
	for i, it := range a.sh.items {
		gr.aggs[i].fn = it.Agg
	}
	a.groups[string(a.enc)] = gr
	a.order = append(a.order, gr)
	return gr
}

// Feed folds in one qualified input row (laid out like the input
// columns the shape was resolved against).
func (a *Accum) Feed(in []value.Value) error {
	sh := a.sh
	if !sh.agg {
		row := make([]value.Value, len(sh.items))
		for i, p := range sh.src {
			row[i] = in[p]
		}
		a.rows = append(a.rows, row)
		return nil
	}
	gr := a.groupOf(in, sh.group)
	for i, it := range sh.items {
		switch {
		case it.Agg == AggNone:
		case it.CountStar:
			gr.aggs[i].count++
		default:
			if err := gr.aggs[i].feed(in[sh.src[i]]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Merge folds in one row a shard computed for Partial.
func (a *Accum) Merge(part []value.Value) error {
	sh := a.sh
	if want := sh.off[len(sh.items)]; len(part) != want {
		return fmt.Errorf("query: partial row has %d cells, want %d", len(part), want)
	}
	if !sh.agg {
		a.rows = append(a.rows, part)
		return nil
	}
	gr := a.groupOf(part, sh.keyOff)
	for i, it := range sh.items {
		if it.Agg == AggNone {
			continue
		}
		if err := gr.aggs[i].merge(part[sh.off[i]:sh.off[i+1]]); err != nil {
			return err
		}
	}
	return nil
}

// Rows finishes the evaluation: one row per group in first-seen order
// (a global aggregate over no input still answers one row), then ORDER
// BY as a stable sort over the output columns, then LIMIT.
func (a *Accum) Rows() ([][]value.Value, error) {
	sh := a.sh
	rows := a.rows
	if sh.agg {
		if len(a.order) == 0 && len(sh.group) == 0 {
			a.groupOf(nil, nil)
		}
		for _, gr := range a.order {
			row := make([]value.Value, len(sh.items))
			for i, it := range sh.items {
				if it.Agg == AggNone {
					row[i] = gr.key[sh.src[i]]
				} else {
					row[i] = gr.aggs[i].result()
				}
			}
			rows = append(rows, row)
		}
	}
	if len(sh.order) > 0 {
		var sortErr error
		sort.SliceStable(rows, func(x, y int) bool {
			for i, ci := range sh.order {
				cmp, err := value.Compare(rows[x][ci], rows[y][ci])
				if err != nil {
					sortErr = err
					return false
				}
				if cmp != 0 {
					return (cmp > 0) == sh.sel.Order[i].Desc
				}
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}
	if sh.sel.Limit >= 0 && len(rows) > sh.sel.Limit {
		rows = rows[:sh.sel.Limit]
	}
	return rows, nil
}

// aggState accumulates one aggregate of one group. NULL inputs are
// skipped (SQL semantics). Integer sums are exact: they stay in an
// int64 and only continue as a float once that overflows or a float
// input arrives. MIN and MAX skip a value that does not compare with
// the running extreme (a degradable column read under coarse semantics
// can show an integer beside a text bucket), so the kind seen first
// wins.
type aggState struct {
	fn    AggFunc
	count int64       // non-NULL inputs (rows, for COUNT(*))
	isum  int64       // exact sum of the integer inputs
	fsum  float64     // sum of everything that left the integers
	float bool        // the sum is no longer an integer
	ext   value.Value // running MIN or MAX
}

func (a *aggState) feed(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	a.count++
	switch a.fn {
	case AggSum, AggAvg:
		return a.add(v)
	case AggMin, AggMax:
		if a.ext.IsNull() {
			a.ext = v
		} else if c, err := value.Compare(v, a.ext); err == nil && c != 0 && (c < 0) == (a.fn == AggMin) {
			a.ext = v
		}
	}
	return nil
}

func (a *aggState) add(v value.Value) error {
	switch v.Kind() {
	case value.KindInt:
		y := v.Int()
		if s := a.isum + y; (s > a.isum) == (y > 0) {
			a.isum = s
		} else { // int64 overflow
			a.fsum += float64(a.isum) + float64(y)
			a.isum, a.float = 0, true
		}
	case value.KindFloat:
		a.fsum += v.Float()
		a.float = true
	default:
		return fmt.Errorf("query: %s over non-numeric value %s", aggName(a.fn), v.Kind())
	}
	return nil
}

// merge folds in the cells one shard answered for this aggregate in the
// partial form: a count adds, AVG arrives as (sum, count), and a SUM,
// MIN or MAX partial is just one more input.
func (a *aggState) merge(cells []value.Value) error {
	if a.fn != AggCount && a.fn != AggAvg {
		return a.feed(cells[0])
	}
	cnt := cells[len(cells)-1]
	if cnt.Kind() != value.KindInt {
		return fmt.Errorf("query: %s partial count has kind %s", aggName(a.fn), cnt.Kind())
	}
	a.count += cnt.Int()
	if a.fn == AggAvg && !cells[0].IsNull() {
		return a.add(cells[0])
	}
	return nil
}

func (a *aggState) sum() value.Value {
	if a.float {
		return value.Float(a.fsum + float64(a.isum))
	}
	return value.Int(a.isum)
}

func (a *aggState) result() value.Value {
	switch {
	case a.fn == AggCount:
		return value.Int(a.count)
	case a.count == 0:
		return value.Null()
	case a.fn == AggSum:
		return a.sum()
	case a.fn == AggAvg:
		f, _ := a.sum().AsFloat()
		return value.Float(f / float64(a.count))
	}
	return a.ext
}
