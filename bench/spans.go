package main

import (
	"encoding/json"
	"os"
	"sort"
)

// span is one timed interval recorded by the harness (or converted from
// a program trace fetched with TraceDump). Times are nanoseconds since
// the recorder's origin; Parent 0 marks an op's root span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// recorder keeps spans in a preallocated slice; nothing is written
// until the run is over.
type recorder struct {
	spans []span
	ops   int32
}

func newRecorder(capacity int) *recorder {
	return &recorder{spans: make([]span, 0, capacity)}
}

// add records a finished span and returns its id (ids start at 1).
func (r *recorder) add(name string, start, end int64, parent, op int32) int32 {
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, ID: id, Parent: parent, Op: op})
	return id
}

// finish sets the end of a span recorded before its end was known.
func (r *recorder) finish(id int32, end int64) { r.spans[id-1].End = end }

// nextOp allocates the identifier the spans of one operation share.
func (r *recorder) nextOp() int32 {
	r.ops++
	return r.ops
}

// selfTimes returns, per span (indexed like spans), its duration minus
// the part of its interval covered by its children — overlapping
// children count once, and a child's overhang outside the parent does
// not count at all.
func selfTimes(spans []span) []int64 {
	index := make(map[int32]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make(map[int32][]int)
	for i, s := range spans {
		if _, ok := index[s.Parent]; ok && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (p.End - p.Start) - covered
	}
	return self
}

// spanStat summarises one span name over a traced run.
type spanStat struct {
	Count        int     `json:"count"`
	SelfMedianUS float64 `json:"self_median_us"`
	SelfTotalMS  float64 `json:"self_total_ms"`
}

func spanStats(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	hists := map[string]*hist{}
	totals := map[string]int64{}
	for i, s := range spans {
		h := hists[s.Name]
		if h == nil {
			h = &hist{}
			hists[s.Name] = h
		}
		h.add(self[i])
		totals[s.Name] += self[i]
	}
	out := make(map[string]spanStat, len(hists))
	for name, h := range hists {
		out[name] = spanStat{
			Count:        int(h.count()),
			SelfMedianUS: h.quantile(0.5) / 1e3,
			SelfTotalMS:  float64(totals[name]) / 1e6,
		}
	}
	return out
}

// spanFileCap bounds the spans written per workload: a full traced run
// records a few hundred thousand, and results/ keeps these files in
// git. The per-name summary in the same file covers every span.
const spanFileCap = 1500

type spanFile struct {
	Workload string              `json:"workload"`
	Recorded int                 `json:"spans_recorded"`
	Written  int                 `json:"spans_written"`
	Summary  map[string]spanStat `json:"summary"`
	Spans    []span              `json:"spans"`
}

// writeSpans stores the run's spans (whole ops only, up to the cap)
// and the summary over all of them.
func writeSpans(path, workload string, spans []span) error {
	n := len(spans)
	if n > spanFileCap {
		n = spanFileCap
		for n > 0 && spans[n].Op == spans[n-1].Op {
			n--
		}
	}
	data, err := json.Marshal(spanFile{
		Workload: workload, Recorded: len(spans), Written: n,
		Summary: spanStats(spans), Spans: spans[:n],
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
