package main

import (
	"testing"
	"time"
)

// The same seed must give byte-identical inputs — schema script, preload
// and every connection's op stream — and another seed different ones.
func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		a := newGen(7).digest(w, true, 2, 3000)
		b := newGen(7).digest(w, true, 2, 3000)
		c := newGen(8).digest(w, true, 2, 3000)
		if a != b {
			t.Errorf("%s: seed 7 gave two different input digests", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same input digest", w.name)
		}
	}
}

// recordingExec stands in for the system under test and keeps what it
// was sent.
type recordingExec struct{ got []op }

func (x *recordingExec) do(o *op) bool {
	x.got = append(x.got, *o)
	return true
}

// The drivers must hand the system exactly the generated stream, in
// order and without inventing or skipping ops: what a loop executed has
// to equal the prefix of a freshly generated stream of the same seed.
func TestDriversSendOnlyGeneratedOps(t *testing.T) {
	for _, w := range workloads[:3] {
		g := newGen(3)
		rows := g.preload(200)
		x := &recordingExec{}
		origin := time.Now()
		deadline := int64(30 * time.Millisecond)
		if w.rate > 0 {
			openLoop(w.stream(g, 0, rows, 0.01), x, origin, 0, int64(100*time.Microsecond), deadline, nil, &loadgenStats{})
		} else {
			closedLoop(w.stream(g, 0, rows, 0.01), x, origin, deadline, nil)
		}
		if len(x.got) < 10 {
			t.Fatalf("%s: loop executed only %d ops", w.name, len(x.got))
		}
		fresh := w.stream(newGen(3), 0, rows, 0.01)
		for i, got := range x.got {
			want := fresh.emit()
			if got.kind != want.kind || got.id != want.id || len(got.args) != len(want.args) {
				t.Fatalf("%s: op %d executed %v(%d), generator says %v(%d)", w.name, i, got.kind, got.id, want.kind, want.id)
			}
			for j := range got.args {
				if got.args[j].String() != want.args[j].String() {
					t.Fatalf("%s: op %d arg %d executed %s, generator says %s", w.name, i, j, got.args[j], want.args[j])
				}
			}
		}
	}
}

// A probe pair asks for the same row twice — at full accuracy, then at
// purpose stat — and only for rows the schedule says are past their hold.
func TestWaveProbesTargetExpiredRows(t *testing.T) {
	g := newGen(5)
	rows := g.preload(50)
	s := workloadByName("wave_openloop").stream(g, 0, rows, 0.5)
	inserted := map[int64]int{}
	probes := 0
	for i := 0; i < 200000; i++ {
		o := s.emit()
		switch o.kind {
		case opInsert:
			inserted[o.id] = i
		case opProbeFull:
			probes++
			if at, own := inserted[o.id]; own && i-at < s.probeLag {
				t.Fatalf("probe at position %d targets a row inserted at %d, lag %d", i, at, s.probeLag)
			}
			next := s.emit()
			i++
			if next.kind != opPoint || next.id != o.id {
				t.Fatalf("probe of row %d followed by %v of row %d", o.id, next.kind, next.id)
			}
		}
	}
	if probes < 500 {
		t.Fatalf("only %d probe pairs in 200000 ops", probes)
	}
}
