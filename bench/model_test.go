package main

import (
	"math"
	"math/rand"
	"net"
	"sort"
	"testing"
	"time"
)

// The histogram's quantiles must be within 4 % of the exact ones.
func TestHistogramQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	var exact []float64
	for i := 0; i < 200000; i++ {
		// Log-uniform over 1 µs … 10 s, the range latencies take.
		v := int64(1e3 * math.Pow(10, 7*rng.Float64()))
		h.add(v)
		exact = append(exact, float64(v))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		want := exact[int(q*float64(len(exact)))]
		if got := h.quantile(q); math.Abs(got-want)/want > 0.04 {
			t.Errorf("q%.3f = %.0f, exact %.0f: error %.1f%%", q, got, want, 100*math.Abs(got-want)/want)
		}
	}
	var small hist
	for v := int64(0); v < 50; v++ {
		small.add(v)
	}
	if got := small.quantile(0.5); got < 24 || got > 26 {
		t.Errorf("median of 0..49 = %v", got)
	}
}

// Self time is duration minus the union of the children's intervals,
// clipped to the parent.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, ID: 1},
		{Name: "a", Start: 10, End: 40, ID: 2, Parent: 1},
		{Name: "b", Start: 30, End: 60, ID: 3, Parent: 1},  // overlaps a by 10
		{Name: "c", Start: 90, End: 120, ID: 4, Parent: 1}, // overhangs the root by 20
		{Name: "a1", Start: 15, End: 25, ID: 5, Parent: 2},
		{Name: "orphan", Start: 0, End: 7, ID: 6, Parent: 99},
	}
	want := []int64{100 - (50 + 10), 30 - 10, 30, 30, 10, 7}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	stats := spanStats(spans)
	if stats["root"].Count != 1 || stats["root"].SelfTotalMS != 40e-6 {
		t.Errorf("summary of root = %+v", stats["root"])
	}
}

// stallingEcho answers every byte with a byte, except that it sits on
// request number stallAt for stall before answering.
func stallingEcho(t *testing.T, stallAt int, stall time.Duration) net.Conn {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 1)
		for n := 0; ; n++ {
			if _, err := c.Read(buf); err != nil {
				return
			}
			if n == stallAt {
				time.Sleep(stall)
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		ln.Close()
		<-done
	})
	return c
}

type echoExec struct {
	c   net.Conn
	buf [1]byte
}

func (x *echoExec) do(*op) bool {
	if _, err := x.c.Write(x.buf[:]); err != nil {
		return false
	}
	_, err := x.c.Read(x.buf[:])
	return err == nil
}

// One 300 ms server stall at 1 000 ops/s must show up in the latency of
// every op that came due during it — about 300 of them, the longest
// waiting the whole stall — because latency counts from the intended
// send time. A driver that timed from the actual send would report one
// slow op. The generator itself must not be late: it fires each op as
// soon as it is due and the connection is free.
func TestOpenLoopChargesStallToWaitingOps(t *testing.T) {
	const (
		interval = int64(time.Millisecond)
		stall    = 300 * time.Millisecond
	)
	g := newGen(1)
	s := g.newStream("stall", 0, g.preload(100), nextOLTP)
	x := &echoExec{c: stallingEcho(t, 200, stall)}
	var lg loadgenStats
	recs := openLoop(s, x, time.Now(), 0, interval, int64(time.Second), nil, &lg)

	if len(recs) != 1000 {
		t.Fatalf("sent %d ops, schedule has 1000", len(recs))
	}
	var worst int64
	slow := 0
	for _, r := range recs {
		if !r.ok {
			t.Fatalf("op due at %d failed", r.due)
		}
		lat := r.end - r.due
		worst = max(worst, lat)
		if lat > int64(10*time.Millisecond) {
			slow++
		}
	}
	if worst < int64(stall) {
		t.Errorf("longest intended-start latency %v, the stall was %v", time.Duration(worst), stall)
	}
	if slow < 250 || slow > 350 {
		t.Errorf("%d ops show the stall, want about 300", slow)
	}
	if late := lg.late.quantile(0.99); late > 1e6 {
		t.Errorf("loadgen.late_p99 = %.3f ms, want well under 1 ms", late/1e6)
	}
	if lg.backlogMax < 250 || lg.dropped != 0 {
		t.Errorf("backlog_max %d, dropped %d", lg.backlogMax, lg.dropped)
	}

	// The same records cut into windows: the stall lands in windows 2–4.
	ws := cutWindows(recs, 0, int64(100*time.Millisecond), 10, true)
	if p50, _ := latQuantile(0.5)(&ws[3]); p50 < 50 {
		t.Errorf("window 3 (due 300–400 ms) p50 = %.1f ms, it lies inside the stall", p50)
	}
	if p50, _ := latQuantile(0.5)(&ws[8]); p50 > 5 {
		t.Errorf("window 8 p50 = %.1f ms, the stall was long over", p50)
	}
}

// Closed-loop windows end on op completions, so a window's throughput
// is exact for one caller however few ops it holds.
func TestClosedLoopWindowsAlignToCompletions(t *testing.T) {
	var recs []rec
	// One caller, ops of 0.7 s back to back from t = 0.1 s.
	for start := int64(1e8); start < 12e9; start += 7e8 {
		recs = append(recs, rec{due: start, start: start, end: start + 7e8, kind: opReopen, ok: true})
	}
	ws := cutWindows(recs, 1e9, 1e9, 10, false)
	for i := range ws {
		rate, ok := opsPerSec(&ws[i])
		if !ok || math.Abs(rate-1/0.7) > 1e-9 {
			t.Errorf("window %d: %d ops in %.3f s = %.4f ops/s, want %.4f", i, ws[i].done, ws[i].seconds, rate, 1/0.7)
		}
	}
}
