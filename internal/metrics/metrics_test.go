package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("test_events_total", "events"); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(7)
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
	v := r.CounterVec("test_by_purpose_total", "by purpose", "purpose")
	v.With("stats").Add(3)
	v.With("full").Inc()
	if got := v.With("stats").Value(); got != 3 {
		t.Fatalf("vec counter = %d, want 3", got)
	}
}

func TestNilRegistryAndInstrumentsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "x")
	c.Inc()
	c.Add(2)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	r.Gauge("g", "g").Set(3)
	r.Histogram("h", "h", nil).Observe(time.Second)
	r.CounterVec("cv", "cv", "l").With("a").Inc()
	r.HistogramVec("hv", "hv", "l", nil).With("a").Observe(time.Second)
	r.GaugeFunc("gf", "gf", func() float64 { return 1 })
	r.CounterFunc("cf", "cf", func() float64 { return 1 })
	r.GaugeFuncVec("gfv", "gfv", "l", func(func(string, float64)) {})
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", s)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond) // bucket le=0.001
	h.Observe(time.Millisecond)       // le=0.001 (inclusive bound)
	h.Observe(50 * time.Millisecond)  // le=0.1
	h.Observe(2 * time.Second)        // +Inf
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.001"} 2`,
		`test_latency_seconds_bucket{le="0.01"} 2`,
		`test_latency_seconds_bucket{le="0.1"} 3`,
		`test_latency_seconds_bucket{le="+Inf"} 4`,
		`test_latency_seconds_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpositionLintsClean(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a").Inc()
	r.Gauge("b", "b gauge with words").Set(-3)
	r.Histogram("c_seconds", "c", nil).Observe(3 * time.Millisecond)
	r.CounterVec("d_total", "d", "op").With("exec").Add(2)
	r.HistogramVec("e_seconds", "e", "op", []float64{0.01, 1}).With("query").Observe(time.Millisecond)
	r.GaugeFunc("f_seconds", "f", func() float64 { return 1.5 })
	r.GaugeFuncVec("g_depth", "g", "table", func(emit func(string, float64)) {
		emit("visits", 2)
		emit("orders", 0)
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if errs := Lint([]byte(b.String())); len(errs) != 0 {
		t.Fatalf("exposition does not lint: %v\n%s", errs, b.String())
	}
}

func TestSnapshotMatchesInstruments(t *testing.T) {
	r := NewRegistry()
	r.Counter("snap_total", "c").Add(9)
	r.CounterVec("snap_by_op_total", "c", "op").With("exec").Add(2)
	r.Histogram("snap_seconds", "h", nil).Observe(time.Second)
	r.GaugeFunc("snap_lag_seconds", "g", func() float64 { return 0.25 })
	got := make(map[string]float64)
	for _, s := range r.Snapshot() {
		got[s.Key] = s.Value
	}
	for key, want := range map[string]float64{
		"snap_total":                  9,
		`snap_by_op_total{op="exec"}`: 2,
		"snap_seconds_count":          1,
		"snap_seconds_sum":            1,
		"snap_lag_seconds":            0.25,
	} {
		if got[key] != want {
			t.Errorf("snapshot[%s] = %v, want %v (all: %v)", key, got[key], want, got)
		}
	}
}

// TestSeveralLabelKeys renders families keyed by two labels: each
// series carries both pairs, and a value with a comma stays one value.
func TestSeveralLabelKeys(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("multi_total", "c", "table,attr").With("person", "location").Add(3)
	r.CounterVec("multi_total", "c", "table,attr").With("a,b", "").Inc()
	r.HistogramVec("multi_seconds", "h", "table,attr", []float64{1}).With("person", "salary").Observe(time.Second)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if errs := Lint([]byte(b.String())); len(errs) != 0 {
		t.Fatalf("exposition does not lint: %v\n%s", errs, b.String())
	}
	for _, want := range []string{
		`multi_total{table="person",attr="location"} 3`,
		`multi_total{table="a,b",attr=""} 1`,
		`multi_seconds_bucket{table="person",attr="salary",le="1"} 1`,
		`multi_seconds_count{table="person",attr="salary"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %s:\n%s", want, b.String())
		}
	}
}

func TestLintCatchesViolations(t *testing.T) {
	for name, bad := range map[string]string{
		"no trailing newline": "a_total 1",
		"malformed sample":    "not a sample!\n",
		"bad value":           "a_total one\n",
		"duplicate series":    "a_total 1\na_total 2\n",
		"bad label name":      `a_total{9bad="x"} 1` + "\n",
		"unquoted label":      `a_total{op=exec} 1` + "\n",
		"unknown type":        "# TYPE a_total countr\na_total 1\n",
	} {
		if errs := Lint([]byte(bad)); len(errs) == 0 {
			t.Errorf("%s: lint accepted %q", name, bad)
		}
	}
	if errs := Lint([]byte("# HELP a_total ok\n# TYPE a_total counter\na_total 1\n")); len(errs) != 0 {
		t.Errorf("lint rejected valid exposition: %v", errs)
	}
}

// TestConcurrentWritersAndReader is the satellite race test: parallel
// writers on every instrument kind while a reader continuously renders
// and snapshots. Beyond being race-clean, every scrape must be
// internally consistent: a histogram's +Inf cumulative bucket must
// equal its _count (they are computed from one pass over the bucket
// atomics), and final totals must be exact once writers finish.
func TestConcurrentWritersAndReader(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "c")
	g := r.Gauge("cc_depth", "g")
	h := r.Histogram("cc_seconds", "h", []float64{0.001, 0.01})
	vec := r.CounterVec("cc_by_op_total", "c", "op")

	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Exposition reader: hammer renders while writers run, checking
	// histogram internal consistency on every pass.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
			out := b.String()
			if errs := Lint([]byte(out)); len(errs) != 0 {
				t.Errorf("mid-write exposition does not lint: %v", errs)
				return
			}
			infLine, countLine := "", ""
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, `cc_seconds_bucket{le="+Inf"} `) {
					infLine = strings.TrimPrefix(line, `cc_seconds_bucket{le="+Inf"} `)
				}
				if strings.HasPrefix(line, "cc_seconds_count ") {
					countLine = strings.TrimPrefix(line, "cc_seconds_count ")
				}
			}
			if infLine != countLine {
				t.Errorf("torn histogram read: +Inf bucket %s != count %s", infLine, countLine)
				return
			}
			r.Snapshot()
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ops := [...]string{"exec", "query", "backup"}
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(time.Duration(i%3) * time.Millisecond)
				vec.With(ops[i%len(ops)]).Inc()
			}
		}(w)
	}
	// Wait for the writers only, then stop the reader.
	doneWriters := make(chan struct{})
	go func() {
		wg.Wait()
		close(doneWriters)
	}()
	for i := 0; i < writers*2; i++ {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-doneWriters

	const total = writers * perWriter
	if got := c.Value(); got != total {
		t.Fatalf("counter = %d, want %d", got, total)
	}
	if got := g.Value(); got != total {
		t.Fatalf("gauge = %d, want %d", got, total)
	}
	if got := h.Count(); got != total {
		t.Fatalf("histogram count = %d, want %d", got, total)
	}
	var vecTotal uint64
	for _, op := range []string{"exec", "query", "backup"} {
		vecTotal += vec.With(op).Value()
	}
	if vecTotal != total {
		t.Fatalf("vec total = %d, want %d", vecTotal, total)
	}
}

func TestHistogramQuantileKnownDistribution(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_test_seconds", "quantile fixture", []float64{1, 2, 4})
	// 50 observations ≤ 1s (uniform within bucket → interpolates from
	// 0), 50 in (1,2]: Q(0.5) lands exactly at the first bound.
	for i := 0; i < 50; i++ {
		h.Observe(500 * time.Millisecond)
		h.Observe(1500 * time.Millisecond)
	}
	checks := []struct{ q, want float64 }{
		{0.25, 0.5}, // rank 25 of 50 in [0,1] → 0.5
		{0.50, 1.0}, // rank 50 = whole first bucket → upper bound 1.0
		{0.75, 1.5}, // rank 75: halfway through (1,2]
		{1.00, 2.0},
	}
	for _, c := range checks {
		if got := h.Quantile(c.q); abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// +Inf bucket clamps to the highest finite bound.
	h.Observe(100 * time.Second)
	if got := h.Quantile(1); got != 4 {
		t.Errorf("Quantile(1) with +Inf observation = %v, want clamp to 4", got)
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil Histogram Quantile must be 0")
	}
	if r.Histogram("q_empty_seconds", "empty", nil).Quantile(0.99) != 0 {
		t.Error("empty Histogram Quantile must be 0")
	}
}

func TestSnapshotHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("snap_q_seconds", "labeled quantile fixture", "op", []float64{0.01, 0.1, 1}).With("exec")
	for i := 0; i < 100; i++ {
		h.Observe(5 * time.Millisecond)
	}
	snap := map[string]float64{}
	for _, s := range r.Snapshot() {
		snap[s.Key] = s.Value
	}
	p50, ok := snap[`snap_q_seconds_p50{op="exec"}`]
	if !ok {
		t.Fatalf("snapshot missing p50 key; have %v", snap)
	}
	if p50 <= 0 || p50 > 0.01 {
		t.Errorf("p50 = %v, want in (0, 0.01]", p50)
	}
	if _, ok := snap[`snap_q_seconds_p99{op="exec"}`]; !ok {
		t.Error("snapshot missing p99 key")
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
