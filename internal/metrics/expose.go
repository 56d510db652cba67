// Prometheus text exposition and the flat snapshot used by the wire
// Stats opcode. Both walk families in registration order and series in
// label order, so successive scrapes of a quiet registry are
// byte-identical (tests diff them).
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Sample is one flattened metric sample: Key is the Prometheus series
// name including the label pair ("instantdb_degrade_lag_seconds" or
// `instantdb_queries_total{purpose="stats"}`), Value the current value.
// Histograms flatten to two samples, <name>_count and <name>_sum
// (seconds).
type Sample struct {
	Key   string
	Value float64
}

// WritePrometheus renders the registry in the Prometheus text format
// (version 0.0.4): # HELP and # TYPE lines followed by the samples,
// histograms with cumulative le buckets, _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	for _, f := range r.snapshotFamilies() {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot returns every sample flattened to key→value, sorted by key.
// The wire Stats opcode ships exactly this.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	var out []Sample
	for _, f := range r.snapshotFamilies() {
		out = append(out, f.flatten()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// snapshotFamilies copies the family list under the registry lock so
// rendering never holds it (collect callbacks may take subsystem locks).
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	return fams
}

// seriesSorted returns the family's static series sorted by label value.
func (f *family) seriesSorted() (labels []string, ins []any) {
	f.mu.RLock()
	for lv := range f.series {
		labels = append(labels, lv)
	}
	f.mu.RUnlock()
	sort.Strings(labels)
	ins = make([]any, len(labels))
	f.mu.RLock()
	for i, lv := range labels {
		ins[i] = f.series[lv]
	}
	f.mu.RUnlock()
	return labels, ins
}

// seriesName renders the family name with the label pairs for one value.
func (f *family) seriesName(labelValue string) string {
	if f.label == "" {
		return f.name
	}
	return f.name + "{" + f.pairs(labelValue) + "}"
}

// pairs renders the label pairs of one series: each of the family's keys
// with its value, taken in order from labelValue (joined by labelSep).
func (f *family) pairs(labelValue string) string {
	var b strings.Builder
	for i, k := range f.keys {
		v, rest, _ := strings.Cut(labelValue, labelSep)
		labelValue = rest
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, v)
	}
	return b.String()
}

// render writes the family's samples in exposition format.
func (f *family) render(b *strings.Builder) {
	if f.valueFn != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, fmtFloat(f.valueFn()))
		return
	}
	if f.vecFn != nil {
		var samples []Sample
		f.vecFn(func(lv string, v float64) {
			samples = append(samples, Sample{Key: f.seriesName(lv), Value: v})
		})
		sort.Slice(samples, func(i, j int) bool { return samples[i].Key < samples[j].Key })
		for _, s := range samples {
			fmt.Fprintf(b, "%s %s\n", s.Key, fmtFloat(s.Value))
		}
		return
	}
	labels, ins := f.seriesSorted()
	for i, in := range ins {
		switch m := in.(type) {
		case *Counter:
			fmt.Fprintf(b, "%s %s\n", f.seriesName(labels[i]), fmtFloat(float64(m.Value())))
		case *Gauge:
			fmt.Fprintf(b, "%s %s\n", f.seriesName(labels[i]), fmtFloat(float64(m.Value())))
		case *Histogram:
			m.render(b, f, labels[i])
		}
	}
}

// render writes one histogram series: cumulative le buckets whose total
// equals _count by construction (each bucket atomic is read exactly
// once), then _sum and _count.
func (h *Histogram) render(b *strings.Builder, f *family, labelValue string) {
	labelPrefix := ""
	if f.label != "" {
		labelPrefix = f.pairs(labelValue) + ","
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", f.name, labelPrefix, fmtFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", f.name, labelPrefix, cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", f.name, suffixLabels(f, labelValue), fmtFloat(h.Sum().Seconds()))
	fmt.Fprintf(b, "%s_count%s %d\n", f.name, suffixLabels(f, labelValue), cum)
}

// flatten returns the family's snapshot samples (histograms as _count
// and _sum).
func (f *family) flatten() []Sample {
	if f.valueFn != nil {
		return []Sample{{Key: f.name, Value: f.valueFn()}}
	}
	if f.vecFn != nil {
		var out []Sample
		f.vecFn(func(lv string, v float64) {
			out = append(out, Sample{Key: f.seriesName(lv), Value: v})
		})
		return out
	}
	labels, ins := f.seriesSorted()
	var out []Sample
	for i, in := range ins {
		name := f.seriesName(labels[i])
		switch m := in.(type) {
		case *Counter:
			out = append(out, Sample{Key: name, Value: float64(m.Value())})
		case *Gauge:
			out = append(out, Sample{Key: name, Value: float64(m.Value())})
		case *Histogram:
			// Snapshot-only quantile estimates (interpolated; see
			// Histogram.Quantile). They ride the wire Stats opcode for
			// degradectl and the router but stay out of the Prometheus
			// exposition, which carries the raw buckets instead.
			out = append(out,
				Sample{Key: f.name + "_count" + suffixLabels(f, labels[i]), Value: float64(m.Count())},
				Sample{Key: f.name + "_sum" + suffixLabels(f, labels[i]), Value: m.Sum().Seconds()},
				Sample{Key: f.name + "_p50" + suffixLabels(f, labels[i]), Value: m.Quantile(0.50)},
				Sample{Key: f.name + "_p99" + suffixLabels(f, labels[i]), Value: m.Quantile(0.99)})
		}
	}
	return out
}

// suffixLabels renders the label pairs for histogram _sum/_count sample
// names ("" for unlabeled families).
func suffixLabels(f *family, labelValue string) string {
	if f.label == "" {
		return ""
	}
	return "{" + f.pairs(labelValue) + "}"
}

// fmtFloat renders a sample value the way Prometheus expects: shortest
// round-trip representation.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes help text per the exposition format. Label values
// go through %q instead, whose escaping (backslash, quote, newline) is
// a superset of what the format requires for the identifier-like label
// values this codebase produces.
func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}
