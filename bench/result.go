package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// metricDef is one row of the gate table: an end-to-end metric, the
// bound by which it may worsen, and the workloads that report it and on
// which `compare` gates it (nil = all four).
type metricDef struct {
	name, unit, better string
	bound              float64
	on                 []string
}

// endToEndDefs is the one gate table: `compare` reads it, BENCHMARK.json
// is written from it (manifestJSON) and README.md prints it. The
// benchmark driver has no per-workload column — it gates every metric it
// is given on every workload — so BENCHMARK.json lists the rows gated on
// all four.
var endToEndDefs = []metricDef{
	// Median wall time of the run's three set-ups (schema, preload, aging
	// waves, server start, dial, prepare). It carries 0.25 because the
	// benchmark contract wants it listed with the largest bound and it
	// cannot be demoted; README.md has the spreads measured on this box.
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	// WAL bytes appended per byte of inserted values over the measured
	// phase, degrade records included.
	{name: "wal_bytes_per_user_byte", unit: "ratio", better: "lower", bound: 0.02, on: []string{"oltp_durable", "wave_openloop"}},
	// Bytes in the deployment's database directories per byte of
	// preloaded values, right after set-up.
	{name: "disk_bytes_per_user_byte", unit: "ratio", better: "lower", bound: 0.02},
	// Live heap (after a forced GC) the preloaded, open deployment adds,
	// per preloaded row.
	{name: "resident_bytes_per_row", unit: "B", better: "lower", bound: 0.05},
}

// demoted are the ISSUE's timing metrics. None of them repeats within
// 0.10 on this box (README.md has the spreads), so, as the ISSUE
// prescribes, they are per-layer metrics: reported under their own
// names, first in every listing, gated nowhere.
var demoted = []metricDef{
	// Correct ops completed per second, median over the ten windows (open
	// loop: the offered rate unless ops fail).
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	// Per window, each op type's median latency weighted by its share of
	// the ops; median over windows; counted from the intended send time on
	// the open loop.
	{name: "lat_p50_ms", unit: "ms", better: "lower"},
	// 99th-percentile op latency per window, median over windows.
	{name: "lat_p99_ms", unit: "ms", better: "lower"},
	// Transitions enforced per second of DegradeNow wall time under
	// foreground load, median over the run's waves.
	{name: "wave_transitions_per_s", unit: "1/s", better: "higher", on: []string{"wave_openloop"}},
	// Median intended-start latency of the ops due while a wave was being
	// enforced, per wave; median over waves.
	{name: "wave_lat_p50_ms", unit: "ms", better: "lower", on: []string{"wave_openloop"}},
}

// reportedOn says whether workload reports d (and, for an end-to-end
// metric, whether `compare` gates it there).
func (d *metricDef) reportedOn(workload string) bool {
	return d.on == nil || slices.Contains(d.on, workload)
}

// perLayerUnit gives the unit of a per-layer metric by name suffix; the
// names carry their unit.
func perLayerUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_us", "us"}, {"_ms", "ms"}, {"_us_per_krow", "us/krow"}, {"_mb_per_s", "MB/s"}, {"_per_s", "1/s"},
		{"_share", "ratio"}, {"_per_commit", "count"}, {"_per_group", "count"}, {"_per_op", "count"},
		{"_per_wave", "count"}, {"_per_kop", "s/kop"}, {"_per_transition", "us"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}

// driverPerLayer lists the per-layer metrics BENCHMARK.json names: the
// ones a traced run of any workload produces — the demoted metrics every
// workload reports, the layer probes, the process-wide runtime costs,
// the tracing overhead. Workload-specific ones (wave_*, wal.*,
// degrade.*, client.*, loadgen.*, span.*) are in the result file only.
var driverPerLayer = []string{
	"ops_per_s", "lat_p50_ms", "lat_p99_ms",
	"query.parse_us",
	"engine.insert_mem_us", "engine.point_mem_us", "engine.insert_durable_us", "engine.point_durable_us",
	"engine.eq_index_us", "engine.group_agg_us", "engine.avg_us",
	"txn.acquire_release_us",
	"storage.insert_us", "storage.get_us", "storage.degrade_attr_us", "storage.snapshot_scan_us_per_krow",
	"index.btree_add_us", "index.btree_exact_us",
	"wal.group_append_us", "wal.replay_mb_per_s",
	"degrade.idle_us_per_transition",
	"wire.ping_rtt_us",
	"server.point_us", "server.insert_us", "server.hop_us",
	"shard.point_us", "shard.hop_us", "shard.scatter_agg_us", "shard.merge_share",
	"runtime.cpu_s_per_kop", "runtime.allocs_per_op",
	"trace.overhead_share",
}

// metric is one reported value. Min and Max are the extremes over the
// windows (or waves, or set-ups) the median was taken over.
type metric struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Min   *float64 `json:"min,omitempty"`
	Max   *float64 `json:"max,omitempty"`
}

type metrics map[string]metric

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEndDefs, demoted} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return perLayerUnit(name)
}

func (m metrics) set(name string, v float64) { m[name] = metric{Value: v, Unit: unitOf(name)} }

func (m metrics) setSummary(name string, s summary) {
	m[name] = metric{Value: s.median, Unit: unitOf(name), Min: &s.min, Max: &s.max}
}

// workloadResult is one workload's section of a result file.
type workloadResult struct {
	Name      string  `json:"name"`
	Why       string  `json:"why"`
	Correct   bool    `json:"correct"`
	Oracle    string  `json:"oracle_failure,omitempty"`
	Attempted int     `json:"ops_attempted"`
	Failed    int     `json:"ops_failed"`
	Spans     int     `json:"spans_recorded,omitempty"`
	EndToEnd  metrics `json:"end_to_end"`
	PerLayer  metrics `json:"per_layer"`
}

// header identifies the run a result file came from.
type header struct {
	Commit      string  `json:"commit"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"measured_seconds"`
	Quick       bool    `json:"quick,omitempty"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Kernel      string  `json:"kernel"`
	FlushPolicy string  `json:"flush_policy"`
	Claim       *string `json:"claim"`
}

// resultFile is what one invocation writes. Layers holds the layer
// probes: they run once per invocation, on a deployment of their own, so
// they belong to no workload.
type resultFile struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
	Layers    metrics           `json:"layers,omitempty"`
}

func newHeader(seed int64, seconds float64, quick bool) header {
	h := header{
		Commit: "unknown", Seed: seed, Seconds: seconds, Quick: quick,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", FlushPolicy: flushPolicy,
	}
	// A driver checkout is not a git repository; the commit then stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if out, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(out))
	}
	return h
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *resultFile) workload(name string) *workloadResult {
	for _, w := range f.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// print writes every metric of a workload by name with its unit: the
// gated end-to-end ones, then the demoted ones, then the other per-layer
// ones by name.
func (w *workloadResult) print(out io.Writer) {
	status := "oracle passed"
	if !w.Correct {
		status = "ORACLE FAILED: " + w.Oracle
	}
	fmt.Fprintf(out, "\n== %s: ops_attempted=%d ops_failed=%d, %s\n", w.Name, w.Attempted, w.Failed, status)
	line := func(name, note string, m metric) {
		fmt.Fprintf(out, "  %-40s %14.6g %-7s", name, m.Value, m.Unit)
		if m.Min != nil {
			fmt.Fprintf(out, " (min %.6g, max %.6g)", *m.Min, *m.Max)
		}
		fmt.Fprintln(out, note)
	}
	for _, d := range endToEndDefs {
		if m, ok := w.EndToEnd[d.name]; ok {
			line(d.name, fmt.Sprintf("  [bound %g]", d.bound), m)
		}
	}
	for _, n := range w.PerLayer.names() {
		line(n, "", w.PerLayer[n])
	}
}

// names lists the metrics' names: the demoted ones first, in the order
// of their table, then the rest alphabetically.
func (m metrics) names() []string {
	var head, rest []string
	for _, d := range demoted {
		if _, ok := m[d.name]; ok {
			head = append(head, d.name)
		}
	}
	for n := range m {
		if !slices.Contains(head, n) {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	return append(head, rest...)
}

// print writes the metrics, each with its unit.
func (m metrics) print(out io.Writer) {
	for _, n := range m.names() {
		fmt.Fprintf(out, "  %-40s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// driverLine is the last line of output in driver mode.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine picks the metrics BENCHMARK.json lists for the trace mode;
// layers are the invocation's layer probes. A listed metric the run did
// not produce is an error: the driver requires every one.
func (w *workloadResult) driverLine(traced bool, layers metrics) (*driverLine, error) {
	line := &driverLine{Correct: w.Correct, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]driverMetric{}}
	pick := func(name string) error {
		for _, from := range []metrics{w.EndToEnd, w.PerLayer, layers} {
			if m, ok := from[name]; ok {
				line.Metrics[name] = driverMetric{m.Value, m.Unit}
				return nil
			}
		}
		return fmt.Errorf("%s: metric %s was not measured", w.Name, name)
	}
	if traced {
		for _, name := range driverPerLayer {
			if err := pick(name); err != nil {
				return nil, err
			}
		}
		return line, nil
	}
	for _, d := range endToEndDefs {
		if d.on == nil {
			if err := pick(d.name); err != nil {
				return nil, err
			}
		}
	}
	return line, nil
}

// runSeconds is the length of the measured phase the benchmark driver
// asks for (BENCHMARK.json's run_seconds).
const runSeconds = 20

// manifestJSON renders BENCHMARK.json from the harness's own tables:
// `bench manifest > BENCHMARK.json` at the repository root.
func manifestJSON() []byte {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricEntry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	m := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []metricEntry   `json:"end_to_end"`
		PerLayer   []metricEntry   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadEntry{w.name, w.why})
	}
	for i := range endToEndDefs {
		if d := &endToEndDefs[i]; d.on == nil {
			m.EndToEnd = append(m.EndToEnd, metricEntry{d.name, d.unit, d.better, &d.bound})
		}
	}
	for _, name := range driverPerLayer {
		// Of the probes and runtime costs only rates are better when higher.
		better := "lower"
		if strings.HasSuffix(name, "_per_s") {
			better = "higher"
		}
		for _, d := range demoted {
			if d.name == name {
				better = d.better
			}
		}
		m.PerLayer = append(m.PerLayer, metricEntry{Name: name, Unit: unitOf(name), Better: better})
	}
	data, _ := json.MarshalIndent(m, "", "  ") //nolint:errcheck // plain struct of numbers and strings
	return append(data, '\n')
}
