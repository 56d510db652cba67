package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"instantdb"
	"instantdb/client"
)

// env is what every workload run shares.
type env struct {
	seed  int64
	quick bool
	// fault names an oracle to break on purpose (see faults).
	fault string
	tmp   string // scratch directory for database directories
	out   string // where spans files go
	log   io.Writer
}

// faults lists the deliberate breakages -fault accepts, one per
// workload's oracle.
var faults = map[string]string{
	"lose-insert": "oltp_durable: every 500th insert is acknowledged without being sent",
	"skip-wave":   "wave_openloop: from the third wave on the clock advances but DegradeNow is not called",
	"shard-miss":  "scan_router: one row is deleted on the shards behind the router's back",
	"no-degrade":  "reopen_cycle: the set-up wave is skipped, so the row the oracle expects degraded is not",
}

// plan says how long each part of a workload run lasts (see newPlan).
type plan struct {
	setups  int     // set-ups performed; setup_s is their median
	warm    float64 // seconds of discarded warm-up before each phase
	seconds float64 // measured phase, all connections, tracing off
	windows int
	// single and traced are the lengths of the one-connection untraced
	// and traced phases that follow (0 skips them).
	single, traced float64
}

// run is one workload run in progress.
type run struct {
	e            *env
	w            *workload
	p            plan
	g            *gen
	rows         []row
	streams      []*stream
	sut          *sut
	acked        int64     // inserts acknowledged over all phases
	waves        []waveRec // in-run waves over all phases
	lagged       int       // waves that left due transitions unfired
	wrongAnswers int
}

func (r *run) window() float64 { return r.p.seconds / float64(r.p.windows) }

// walCounters is a reading of the logs' public counters.
type walCounters struct {
	fsyncs, batches, groups uint64
	bytes                   int64
}

func readWAL(dbs []*instantdb.DB) walCounters {
	var c walCounters
	for _, db := range dbs {
		l := db.Log()
		c.fsyncs += l.FsyncCount()
		c.batches += l.BatchCount()
		c.groups += l.GroupCount()
		c.bytes += l.SizeBytes()
	}
	return c
}

func (c walCounters) minus(o walCounters) walCounters {
	return walCounters{c.fsyncs - o.fsyncs, c.batches - o.batches, c.groups - o.groups, c.bytes - o.bytes}
}

// counters is everything read at the two edges of a measured phase.
type counters struct {
	wal                             walCounters
	transitions, batches, lockSkips uint64
	cpu, sys                        time.Duration
	minflt                          int64
	mallocs, gcPauseNS              uint64
}

func readCounters(dbs []*instantdb.DB) counters {
	c := counters{wal: readWAL(dbs)}
	for _, db := range dbs {
		st := db.Degrader().Stats()
		c.transitions += st.Transitions
		c.batches += st.Batches
		c.lockSkips += st.LockSkips
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		c.sys = time.Duration(ru.Stime.Nano())
		c.minflt = ru.Minflt
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.gcPauseNS = ms.Mallocs, ms.PauseTotalNs
	return c
}

// settle flushes every dirty page to disk, so that writeback of what
// the previous step wrote (a preload, a discarded set-up, the previous
// run) is not competing with the next step's fsyncs. On this box 600 MB
// of unsynced data elsewhere on the filesystem takes a third off the
// fsync rate for the half minute the kernel needs to write it back.
func settle() { syscall.Sync() }

// liveHeap forces a collection and returns the bytes still allocated.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// phase is the outcome of one driven phase.
type phase struct {
	recs          []rec
	t0, width     int64 // measured interval start and window width, ns since the phase origin
	windows       int
	open          bool
	lg            loadgenStats
	waves         []waveRec // waves enforced in [t0, end)
	before, after counters
}

// drive runs execs (connection i consuming stream i) through a warm-up
// and a measured interval, with the wave goroutine beside them when the
// workload has one, and reads the counters at the interval's edges.
// setOrigin, when not nil, is told the phase's time origin before any
// op runs (the traced executors stamp spans against it).
func (r *run) drive(execs []executor, warm, seconds float64, windows int, setOrigin func(time.Time)) phase {
	ph := phase{
		t0:      int64(warm * 1e9),
		width:   int64(seconds * 1e9 / float64(windows)),
		windows: windows,
		open:    r.w.rate > 0,
	}
	deadline := ph.t0 + ph.width*int64(windows)
	// Sized so that the phase does not grow them.
	perConn := make([][]rec, len(execs))
	for i := range perConn {
		perConn[i] = make([]rec, 0, int((warm+seconds)*float64(r.w.opsPerConn)))
	}
	lgs := make([]loadgenStats, len(execs))
	origin := time.Now()
	if setOrigin != nil {
		setOrigin(origin)
	}
	var wg sync.WaitGroup
	for i := range execs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if ph.open {
				interval := int64(r.w.conns) * int64(time.Second) / int64(r.w.rate)
				first := int64(i) * interval / int64(r.w.conns)
				perConn[i] = openLoop(r.streams[i], execs[i], origin, first, interval, deadline, perConn[i], &lgs[i])
			} else {
				perConn[i] = closedLoop(r.streams[i], execs[i], origin, deadline, perConn[i])
			}
		}(i)
	}
	var allWaves []waveRec
	if r.w.waves {
		wg.Add(1)
		go func() {
			defer wg.Done()
			allWaves = r.waveLoop(origin, ph.t0, ph.width, deadline)
		}()
	}
	sleepUntil(origin, ph.t0)
	ph.before = readCounters(r.sut.counted)
	sleepUntil(origin, deadline)
	ph.after = readCounters(r.sut.counted)
	wg.Wait()

	for i := range perConn {
		ph.recs = append(ph.recs, perConn[i]...)
		ph.lg.late.merge(&lgs[i].late)
		ph.lg.backlogMax = max(ph.lg.backlogMax, lgs[i].backlogMax)
		ph.lg.dropped += lgs[i].dropped
	}
	for _, rc := range ph.recs {
		if rc.kind == opInsert && rc.ok {
			r.acked++
		}
	}
	r.waves = append(r.waves, allWaves...)
	for _, w := range allWaves {
		if w.start >= ph.t0 {
			ph.waves = append(ph.waves, w)
		}
	}
	return ph
}

// residentHeap reads the live heap with the deployment up.
// reopen_cycle's database is closed between ops, so it is opened once
// more for the reading.
func (r *run) residentHeap() int64 {
	if r.sut.addr != "" {
		return liveHeap()
	}
	if err := r.sut.node.open(); err != nil {
		fmt.Fprintf(r.e.log, "%s: %v\n", r.w.name, err)
		return 0
	}
	defer r.sut.node.close()
	return liveHeap()
}

func sleepUntil(origin time.Time, at int64) {
	if d := at - since(origin); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// waveLoop stands in for the server's own AutoDegrade loop: a third of
// the way into every window (warm-up included) it moves the clock past
// the address hold and enforces what became due.
func (r *run) waveLoop(origin time.Time, t0, width, deadline int64) []waveRec {
	n := r.sut.node
	var waves []waveRec
	at := t0 + width/3
	for at-width >= 0 {
		at -= width
	}
	for ; at < deadline; at += width {
		sleepUntil(origin, at)
		skip := r.e.fault == "skip-wave" && len(r.waves)+len(waves) >= 2
		n.clock.Advance(waveAdvance)
		w := waveRec{start: since(origin)}
		if !skip {
			k, err := n.db.DegradeNow()
			if err != nil {
				fmt.Fprintf(r.e.log, "wave: %v\n", err)
				r.lagged++
			}
			w.transitions = k
		}
		w.end = since(origin)
		w.wall = time.Duration(w.end - w.start)
		if n.db.Degrader().Lag(n.clock.Now()) > 0 {
			r.lagged++
		}
		waves = append(waves, w)
	}
	return waves
}

// serviceRate is ok ops per second of time spent inside ops, over the
// phase's measured interval: on a closed loop with one connection it is
// the throughput, on an open loop it still says how fast ops were served.
func (ph *phase) serviceRate() float64 {
	var n int
	var busy int64
	for _, rc := range ph.recs {
		if rc.ok && rc.due >= ph.t0 {
			n++
			busy += rc.end - rc.start
		}
	}
	if busy == 0 {
		return 0
	}
	return float64(n) / (float64(busy) / 1e9)
}

// tracedSend sends each op as text under a forced server-side trace
// whose root hangs off the harness's op span, then — outside the op's
// timed interval — fetches the program's spans and files them under it.
func tracedSend(conn *client.Conn, rec *recorder, origin *time.Time, idBase uint64) func(o *op) (reply, error) {
	return func(o *op) (reply, error) {
		opID := rec.nextOp()
		traceID := idBase + uint64(opID)
		root := int32(len(rec.spans) + 1)
		start := since(*origin)
		res, err := conn.ExecTracedAs(bg, traceID, uint64(root), stmtSQL[o.kind], o.args...)
		end := since(*origin)
		rec.add("op."+o.kind.String(), start, end, 0, opID)
		dump, derr := conn.TraceDump(bg, client.TraceByID, traceID)
		if derr == nil {
			for _, tr := range dump {
				ids := make(map[uint64]int32, len(tr.Spans))
				first := len(rec.spans)
				for _, sp := range tr.Spans {
					s := sp.Start.UnixNano() - origin.UnixNano()
					ids[sp.SpanID] = rec.add(sp.Service+"."+sp.Name, s, s+int64(sp.Duration), root, opID)
				}
				for i, sp := range tr.Spans {
					if p, ok := ids[sp.ParentID]; ok {
						rec.spans[first+i].Parent = p
					}
				}
			}
		}
		return clientReply(res, err)
	}
}

// runWorkload performs one workload run according to plan p.
func runWorkload(e *env, w *workload, p plan) (*workloadResult, error) {
	r := &run{e: e, w: w, p: p, g: newGen(e.seed)}
	r.rows = r.g.preload(w.rows(e.quick))
	for c := 0; c < w.conns; c++ {
		r.streams = append(r.streams, w.stream(r.g, c, r.rows, r.window()))
	}
	res := &workloadResult{Name: w.name, Why: w.why, EndToEnd: metrics{}, PerLayer: metrics{}}
	dir, err := os.MkdirTemp(e.tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch data

	// Set-up, several times over: the last one is kept.
	heapBefore := liveHeap()
	var setupSeconds []float64
	for i := 0; i < p.setups; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if r.sut != nil {
			r.sut.close()
			os.RemoveAll(filepath.Join(dir, fmt.Sprintf("setup%d", i-1))) //nolint:errcheck // scratch data
		}
		settle()
		if r.sut, err = w.setup(r, sub); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupSeconds = append(setupSeconds, r.sut.seconds)
		fmt.Fprintf(e.log, "%s: set-up %d/%d took %.3fs\n", w.name, i+1, p.setups, r.sut.seconds)
	}
	defer func() { r.sut.close() }()
	var preloadBytes int64
	for _, row := range r.rows {
		preloadBytes += r.g.userBytes(row)
	}
	// The static footprint is read now, with only the preload in: taken
	// after the measured phase it would depend on how many inserts the
	// run happened to complete.
	r.footprint(res, heapBefore, preloadBytes)
	var oracleErr error
	if r.sut.cluster != nil {
		oracleErr = checkAgainstReference(r, r.sut, filepath.Join(dir, "reference.db"))
	}

	// Measured phase: every connection, tracing off.
	settle()
	ph := r.drive(r.sut.execs, p.warm, p.seconds, p.windows, nil)
	ws := cutWindows(ph.recs, ph.t0, ph.width, ph.windows, ph.open)
	for i := range ws {
		res.Attempted += ws[i].ok + ws[i].failed
		res.Failed += ws[i].failed
	}
	r.headline(res, &ph, ws, setupSeconds)
	r.phaseLayers(res, &ph, ws)

	// One connection, untraced then traced.
	if p.traced > 0 {
		if err := r.tracedPhases(res); err != nil {
			return nil, err
		}
	}

	r.wrongAnswers += wrong(r.sut.execs)
	if oracleErr == nil {
		oracleErr = w.oracle(r)
	}
	if oracleErr == nil && r.wrongAnswers > 0 {
		oracleErr = fmt.Errorf("%d operations were answered wrongly (wrong row, wrong country, or an expired state served)", r.wrongAnswers)
	}
	res.Correct = oracleErr == nil
	if oracleErr != nil {
		res.Oracle = oracleErr.Error()
	}
	return res, nil
}

// headline fills, from the measured phase, the gated end-to-end metrics
// and the demoted ones (which live among the per-layer metrics).
func (r *run) headline(res *workloadResult, ph *phase, ws []winStat, setupSeconds []float64) {
	lo, hi := minMax(setupSeconds)
	res.EndToEnd.setSummary("setup_s", summary{median(setupSeconds), lo, hi})
	if wal, user := ph.written(); user > 0 {
		res.EndToEnd.set("wal_bytes_per_user_byte", float64(wal.bytes)/float64(user))
	}

	pl := res.PerLayer
	pl.setSummary("ops_per_s", summarize(ws, opsPerSec))
	pl.setSummary("lat_p50_ms", summarize(ws, typicalLatency))
	pl.setSummary("lat_p99_ms", summarize(ws, latQuantile(0.99)))
	if r.w.waves {
		var rates []float64
		for _, wv := range ph.waves {
			if wv.transitions > 0 {
				rates = append(rates, float64(wv.transitions)/wv.wall.Seconds())
			}
		}
		lo, hi = minMax(rates)
		pl.setSummary("wave_transitions_per_s", summary{median(rates), lo, hi})
		pl.set("wave_lat_p50_ms", ph.stalledP50())
	}
}

// written returns the log counters' deltas over the measured interval
// and the user bytes of the inserts acknowledged in it (0 on the
// workloads that only read).
func (ph *phase) written() (walCounters, int64) {
	var user int64
	for _, rc := range ph.recs {
		if rc.kind == opInsert && rc.ok && rc.end >= ph.t0 && rc.end < ph.t0+ph.width*int64(ph.windows) {
			user += int64(rc.bytes)
		}
	}
	return ph.after.wal.minus(ph.before.wal), user
}

// stalledP50 returns the median, over the phase's waves, of the median
// intended-start latency (ms) of the ops of the given kinds (none = all)
// that came due while the wave was being enforced.
func (ph *phase) stalledP50(kinds ...opKind) float64 {
	var perWave []float64
	for _, wv := range ph.waves {
		var h hist
		for _, rc := range ph.recs {
			if rc.ok && rc.due >= wv.start && rc.due <= wv.end && (len(kinds) == 0 || slices.Contains(kinds, rc.kind)) {
				h.add(rc.end - rc.due)
			}
		}
		if h.count() > 0 {
			perWave = append(perWave, h.quantile(0.5)/1e6)
		}
	}
	return median(perWave)
}

// footprint fills the two static metrics right after set-up: bytes on
// disk per byte of preloaded values, and live heap per preloaded row.
func (r *run) footprint(res *workloadResult, heapBefore, preloadBytes int64) {
	var disk int64
	for _, d := range r.sut.dirs {
		n, err := dirBytes(d)
		if err != nil {
			fmt.Fprintf(r.e.log, "%s: %v\n", r.w.name, err)
		}
		disk += n
	}
	res.EndToEnd.set("disk_bytes_per_user_byte", float64(disk)/float64(preloadBytes))
	res.EndToEnd.set("resident_bytes_per_row", float64(r.residentHeap()-heapBefore)/float64(len(r.rows)))
}

// phaseLayers fills the per-layer metrics that come from the measured
// phase itself: counter deltas, the per-op-type split, the load
// generator's own lateness, and process-wide runtime costs.
func (r *run) phaseLayers(res *workloadResult, ph *phase, ws []winStat) {
	pl := res.PerLayer
	d, _ := ph.written()
	if d.batches > 0 {
		pl.set("wal.fsyncs_per_commit", float64(d.fsyncs)/float64(d.batches))
		pl.set("wal.bytes_per_commit", float64(d.bytes)/float64(d.batches))
	}
	if d.groups > 0 {
		pl.set("wal.batches_per_group", float64(d.batches)/float64(d.groups))
	}

	if r.w.waves {
		var tick, perTrans, count []float64
		for _, wv := range ph.waves {
			tick = append(tick, wv.wall.Seconds()*1e3)
			count = append(count, float64(wv.transitions))
			if wv.transitions > 0 {
				perTrans = append(perTrans, wv.wall.Seconds()*1e6/float64(wv.transitions))
			}
		}
		pl.set("degrade.tick_ms", median(tick))
		pl.set("degrade.us_per_transition", median(perTrans))
		pl.set("degrade.transitions_per_wave", median(count))
		pl.set("loadgen.late_p99_ms", ph.lg.late.quantile(0.99)/1e6)
		pl.set("loadgen.backlog_max", float64(ph.lg.backlogMax))
		// Foreground ops due while a wave was being enforced, by type.
		pl.set("client.wave_insert_p50_ms", ph.stalledP50(opInsert))
		pl.set("client.wave_point_p50_ms", ph.stalledP50(opPoint))
	} else if len(r.sut.counted) > 0 {
		// No waves: zero unless something fired on its own.
		pl.set("degrade.transitions_per_wave", float64(ph.after.transitions-ph.before.transitions))
	}
	if len(r.sut.counted) > 0 {
		pl.set("degrade.lock_skips", float64(ph.after.lockSkips-ph.before.lockSkips))
		pl.set("degrade.batches", float64(ph.after.batches-ph.before.batches))
	}

	split := []struct {
		name  string
		q     float64
		kinds []opKind
	}{
		{"client.insert_p50_ms", 0.50, []opKind{opInsert}}, {"client.insert_p99_ms", 0.99, []opKind{opInsert}},
		{"client.point_p50_ms", 0.50, []opKind{opPoint}}, {"client.point_p99_ms", 0.99, []opKind{opPoint}},
		{"client.eq_p50_ms", 0.50, []opKind{opEqLoc, opEqSal}}, {"client.agg_p50_ms", 0.50, []opKind{opGroupAgg, opAvg}},
		{"client.reopen_p50_ms", 0.50, []opKind{opReopen}},
	}
	for _, s := range split {
		if sm := summarize(ws, latQuantile(s.q, s.kinds...)); sm.median > 0 {
			pl.set(s.name, sm.median)
		}
	}

	ops := float64(res.Attempted - res.Failed)
	if ops > 0 {
		pl.set("runtime.cpu_s_per_kop", (ph.after.cpu-ph.before.cpu).Seconds()/ops*1e3)
		pl.set("runtime.allocs_per_op", float64(ph.after.mallocs-ph.before.mallocs)/ops)
		pl.set("runtime.minor_faults_per_op", float64(ph.after.minflt-ph.before.minflt)/ops)
		pl.set("runtime.sys_cpu_share", (ph.after.sys-ph.before.sys).Seconds()/(ph.after.cpu-ph.before.cpu).Seconds())
	}
	pl.set("runtime.gc_pause_ms", float64(ph.after.gcPauseNS-ph.before.gcPauseNS)/1e6)
}

// tracedPhases runs the workload's op stream on one connection twice —
// as untraced text statements, then under forced traces with harness
// spans — and derives the tracing overhead and the span self times.
func (r *run) tracedPhases(res *workloadResult) error {
	p, w := r.p, r.w
	rec := newRecorder(int(p.traced*float64(w.opsPerConn))*12 + 64)
	var origin time.Time
	var plain, traced executor
	if r.sut.addr == "" {
		base := r.sut.execs[0].(*reopenExec)
		plain, traced = &reopenExec{node: base.node, rows: base.rows}, &reopenExec{node: base.node, rows: base.rows, rec: rec}
	} else {
		conns, err := dial(r.sut.addr, 1)
		if err != nil {
			return err
		}
		defer closeConns(conns)
		plain = &sendExec{send: textSend(conns[0]), expect: r.sut.expect}
		traced = &sendExec{send: tracedSend(conns[0], rec, &origin, uint64(subSeed(r.e.seed, w.name))<<20), expect: r.sut.expect}
	}
	defer func() { r.wrongAnswers += wrong([]executor{plain, traced}) }()
	windows := func(seconds float64) int { return max(1, int(seconds/r.window()+0.5)) }

	untracedPh := r.drive([]executor{plain}, p.warm/2, p.single, windows(p.single), nil)
	tracedPh := r.drive([]executor{traced}, p.warm/2, p.traced, windows(p.traced), func(t time.Time) {
		origin = t
		if x, ok := traced.(*reopenExec); ok {
			x.origin = t
		}
	})
	for _, ph := range []*phase{&untracedPh, &tracedPh} {
		for _, rc := range ph.recs {
			if rc.due >= ph.t0 {
				res.Attempted++
				if !rc.ok {
					res.Failed++
				}
			}
		}
	}
	if u, t := untracedPh.serviceRate(), tracedPh.serviceRate(); u > 0 {
		res.PerLayer.set("trace.untraced_ops_per_s", u)
		res.PerLayer.set("trace.traced_ops_per_s", t)
		res.PerLayer.set("trace.overhead_share", 1-t/u)
	}

	stats := spanStats(rec.spans)
	for name, metric := range programSpans {
		if st, ok := stats[name]; ok {
			res.PerLayer.set(metric, st.SelfMedianUS)
		}
	}
	for name, st := range stats {
		if len(name) > 3 && name[:3] == "op." || len(name) > 7 && name[:7] == "engine." {
			res.PerLayer.set("span."+name+"_self_us", st.SelfMedianUS)
		}
	}
	res.Spans = len(rec.spans)
	if err := os.MkdirAll(r.e.out, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(r.e.out, w.name+".spans.json"), w.name, rec.spans)
}

// programSpans maps the spans the program itself emits (service.name as
// TraceDump returns them) to the per-layer metric carrying their median
// self time in µs.
var programSpans = map[string]string{
	"server.parse_bind":    "span.parse_bind_self_us",
	"server.plan":          "span.plan_self_us",
	"server.lock_wait":     "span.lock_wait_self_us",
	"server.snapshot_read": "span.snapshot_read_self_us",
	"server.wal_encode":    "span.wal_encode_self_us",
	"server.group_enqueue": "span.group_enqueue_self_us",
	"server.group_fsync":   "span.group_fsync_self_us",
	"server.publish":       "span.publish_self_us",
	"router.shard_exec":    "span.shard_exec_self_us",
	"router.merge":         "span.merge_self_us",
}
