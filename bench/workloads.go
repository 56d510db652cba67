package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"instantdb"
	"instantdb/client"
)

// waveAdvance is how far each in-run wave moves the simulated clock:
// just past the 15-minute address hold, so everything inserted since
// the previous wave loses its address together.
const waveAdvance = 16 * time.Minute

// workload is one traffic shape against one deployment.
type workload struct {
	name string
	// why is recorded in BENCHMARK.json and every result file.
	why          string
	preload      int // rows inserted at set-up
	quickPreload int
	conns        int
	indexed      bool
	// rate is the open loop's total ops/s; 0 makes the loop closed.
	rate int
	// waves runs the degradation wave goroutine beside the traffic.
	waves bool
	// opsPerConn is a generous ceiling on a connection's ops/s, used
	// only to preallocate record buffers.
	opsPerConn int
	kinds      []opKind
	next       func(*stream) op
	setup      func(r *run, dir string) (*sut, error)
	oracle     func(r *run) error
}

var workloads = []*workload{
	{
		name: "oltp_durable",
		why: "Everyday deployment: 2 connections, closed loop, single-row INSERT / PK read on a durable DB, clock still; " +
			"time goes to WAL group fsync and the wire/server hop; degrader and scan executor idle.",
		preload: 20000, quickPreload: 2000, conns: 2, opsPerConn: 12000,
		kinds: []opKind{opInsert, opPoint},
		next:  nextOLTP, setup: setupServed, oracle: oracleServed,
	},
	{
		name: "wave_openloop",
		why: "The paper's promise under load: fixed 2000 ops/s open loop while a wave per window degrades that window's inserts " +
			"in place (storage rewrite, WAL records, key shreds); no expired state may be served.",
		preload: 20000, quickPreload: 2000, conns: 2, rate: 2000, waves: true, opsPerConn: 1000,
		kinds: []opKind{opInsert, opPoint, opProbeFull},
		next:  nextWave, setup: setupServed, oracle: oracleServed,
	},
	{
		name: "scan_router",
		why: "CPU-bound reads, no fsync: index probes, snapshot scans, read-time generalization and GROUP BY/AVG scatter-merge " +
			"via the router over 2 shards at mixed accuracy levels; a WAL change must not move it.",
		preload: 40000, quickPreload: 2000, conns: 2, indexed: true, opsPerConn: 4000,
		kinds: []opKind{opEqLoc, opEqSal, opGroupAgg, opAvg},
		next:  nextScan, setup: setupCluster, oracle: func(*run) error { return nil },
	},
	{
		name: "reopen_cycle",
		why: "Recovery path: each op reopens a never-checkpointed 100k-row directory (WAL replay rebuilding storage and indexes), " +
			"so a log or index change that helps OLTP at recovery's expense shows.",
		preload: 100000, quickPreload: 2000, conns: 1, indexed: true, opsPerConn: 200,
		next: nextReopen, setup: setupReopen, oracle: oracleReopen,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) rows(quick bool) int {
	if quick {
		return w.quickPreload
	}
	return w.preload
}

// stream builds connection conn's op stream. window is the measurement
// window in seconds; only the open loop's probe lag depends on it.
func (w *workload) stream(g *gen, conn int, rows []row, window float64) *stream {
	s := g.newStream(w.name, conn, rows, w.next)
	if w.rate > 0 {
		s.probeLag = int(2 * window * float64(w.rate) / float64(w.conns))
	}
	return s
}

// sut is the system under test as one set-up built it.
type sut struct {
	node    *node    // oltp_durable, wave_openloop: the served database; reopen_cycle: the closed one
	cluster *cluster // scan_router
	addr    string   // where connections dial; empty for reopen_cycle
	conns   []*client.Conn
	execs   []executor
	expect  expectations
	dirs    []string // database directories of the deployment
	// counted are the open databases whose counters describe the run
	// (none for reopen_cycle, whose database is closed between ops).
	counted []*instantdb.DB
	seconds float64 // set-up wall time
}

func (s *sut) close() {
	closeConns(s.conns)
	if s.cluster != nil {
		s.cluster.close()
	}
	if s.node != nil {
		s.node.close()
	}
}

// wrong sums the executors' wrong-answer counts.
func wrong(execs []executor) int {
	n := 0
	for _, x := range execs {
		switch x := x.(type) {
		case *sendExec:
			n += x.wrong
		case *reopenExec:
			n += x.wrong
		}
	}
	return n
}

// connect dials the workload's connections and prepares its statements
// on each: the last step of a client-facing set-up.
func (s *sut) connect(r *run) error {
	conns, err := dial(s.addr, r.w.conns)
	if err != nil {
		return err
	}
	s.conns = conns
	for _, c := range conns {
		// The router refuses prepared statements ("use Exec with
		// arguments"), so its statements travel as text plus arguments.
		send := textSend(c)
		if s.cluster == nil {
			if send, err = preparedSend(c, r.w.kinds); err != nil {
				return fmt.Errorf("prepare: %w", err)
			}
		}
		x := &sendExec{send: send, expect: s.expect}
		if r.e.fault == "lose-insert" {
			x.dropEvery = 500
		}
		s.execs = append(s.execs, x)
	}
	return nil
}

// setupServed builds the oltp_durable / wave_openloop deployment: one
// durable database, preloaded, aged two days so the preload sits at
// country accuracy, served over TCP.
func setupServed(r *run, dir string) (*sut, error) {
	start := time.Now()
	n, err := openNode(filepath.Join(dir, "db"), r.g.schema(r.w.indexed))
	if err != nil {
		return nil, err
	}
	s := &sut{node: n, dirs: []string{n.dir}, counted: []*instantdb.DB{n.db}}
	var aging []waveRec
	if err = n.load(r.g, r.rows); err == nil {
		aging, err = n.advance(agingSpan)
	}
	if err == nil {
		err = n.serve()
	}
	if err == nil {
		s.addr = n.addr
		err = s.connect(r)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	s.seconds = time.Since(start).Seconds()
	// Every preloaded row crossed three location deadlines and one
	// salary deadline; anything else means the aging waves missed some.
	fired := 0
	for _, w := range aging {
		fired += w.transitions
	}
	if want := 4 * len(r.rows); fired != want {
		s.close()
		return nil, fmt.Errorf("aging waves fired %d transitions, %d were due", fired, want)
	}
	return s, nil
}

// oracleServed checks the served database after the run: no insert was
// lost, and — when waves ran — every transition that came due fired.
func oracleServed(r *run) error {
	db := r.sut.node.db
	total, err := queryInt(db, countSQL)
	if err != nil {
		return err
	}
	if want := int64(len(r.rows)) + r.acked; total != want {
		return fmt.Errorf("COUNT(*) = %d, want %d (preload %d + %d acknowledged inserts)", total, want, len(r.rows), r.acked)
	}
	fired := 0
	for _, w := range r.waves {
		fired += w.transitions
	}
	if !r.w.waves {
		if fired != 0 || db.Degrader().Stats().Transitions != uint64(4*len(r.rows)) {
			return fmt.Errorf("the clock stood still, yet the degrader fired outside set-up")
		}
		return nil
	}
	if r.lagged > 0 {
		return fmt.Errorf("%d waves left due transitions unfired (degrader lag > 0 after DegradeNow)", r.lagged)
	}
	// Levels descended as SQL sees them: a row no longer computable at
	// level l has crossed l+1 deadlines. The preload crossed all three
	// at set-up; the rest must be what the in-run waves fired.
	descended := int64(0)
	for l := 0; l < 3; l++ {
		visible, err := queryInt(db, levelCountSQL[l])
		if err != nil {
			return err
		}
		descended += total - visible
	}
	if visible, err := queryInt(db, levelCountSQL[3]); err != nil || visible != total {
		return fmt.Errorf("%d of %d rows readable at purpose stat (err %v)", visible, total, err)
	}
	if want := descended - int64(3*len(r.rows)); int64(fired) != want {
		return fmt.Errorf("waves fired %d transitions, the table shows %d levels descended", fired, want)
	}
	return nil
}

func queryInt(db *instantdb.DB, sql string) (int64, error) {
	rows, err := db.NewConn().Query(sql)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", sql, err)
	}
	if rows.Len() != 1 {
		return 0, fmt.Errorf("%s: %d rows", sql, rows.Len())
	}
	return rows.Data[0][0].Int(), nil
}

// setupCluster builds the scan_router deployment and connects to the
// router. The reference comparison runs after it, outside set-up time.
func setupCluster(r *run, dir string) (*sut, error) {
	start := time.Now()
	c, err := buildCluster(dir, r.g, r.rows)
	if err != nil {
		return nil, err
	}
	s := &sut{
		cluster: c, addr: c.addr,
		dirs:    []string{c.shards[0].dir, c.shards[1].dir},
		counted: []*instantdb.DB{c.shards[0].db, c.shards[1].db},
	}
	s.expect = expectations{}
	if err := s.connect(r); err != nil {
		s.close()
		return nil, err
	}
	s.seconds = time.Since(start).Seconds()
	return s, nil
}

// canonical renders a result as sorted row strings, floats to nine
// digits: the router computes AVG as SUM/COUNT, which may differ from
// the engine's own AVG in the last bits.
func canonical(data [][]instantdb.Value) []string {
	out := make([]string, len(data))
	for i, row := range data {
		var sb strings.Builder
		for _, v := range row {
			if f, ok := v.AsFloat(); ok && f != math.Trunc(f) {
				fmt.Fprintf(&sb, "%.9g|", f)
			} else {
				sb.WriteString(v.String() + "|")
			}
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out
}

// checkAgainstReference is the scan_router oracle: every statement of
// the mix, for every argument the streams can draw, must return through
// the router exactly what the reference database holding all rows
// returns. It fills s.expect with the reference row counts, which the
// measured ops are then checked against.
func checkAgainstReference(r *run, s *sut, dir string) error {
	refNode, err := buildReference(dir, r.g, r.rows)
	if err != nil {
		return err
	}
	defer refNode.close()
	if r.e.fault == "shard-miss" {
		// Lose one row on one shard behind the router's back.
		victim := r.rows[len(r.rows)-1].id
		for _, n := range s.cluster.shards {
			if _, err := n.db.Exec("DELETE FROM person WHERE id = ?", instantdb.Int(victim)); err != nil {
				return err
			}
		}
	}
	ref := refNode.db.NewConn()
	args := map[opKind][]string{opGroupAgg: {""}, opAvg: {""}, opEqLoc: r.g.uni.cities}
	for lo := int64(0); lo < 20000; lo += 1000 {
		args[opEqSal] = append(args[opEqSal], salaryBucket(lo))
	}
	for _, k := range r.w.kinds {
		s.expect[k] = map[string]int{}
		for _, a := range args[k] {
			var vals []instantdb.Value
			if a != "" {
				vals = []instantdb.Value{instantdb.Text(a)}
			}
			want, err := ref.Query(stmtSQL[k], vals...)
			if err != nil {
				return fmt.Errorf("reference %s(%s): %w", k, a, err)
			}
			got, err := s.conns[0].Query(bg, stmtSQL[k], vals...)
			if err != nil {
				return fmt.Errorf("router %s(%s): %w", k, a, err)
			}
			w, g := canonical(want.Data), canonical(got.Data)
			if len(w) != len(g) {
				return fmt.Errorf("%s(%s): router returned %d rows, reference %d", k, a, len(g), len(w))
			}
			for i := range w {
				if w[i] != g[i] {
					return fmt.Errorf("%s(%s): router row %q, reference row %q", k, a, g[i], w[i])
				}
			}
			s.expect[k][a] = len(w)
		}
	}
	return nil
}

// setupReopen builds the reopen_cycle directory: half the rows, one
// wave that takes them from address to city, the other half, then a
// clean close with no checkpoint, so reopening replays the whole log.
func setupReopen(r *run, dir string) (*sut, error) {
	start := time.Now()
	n, err := openNode(filepath.Join(dir, "db"), r.g.schema(r.w.indexed))
	if err != nil {
		return nil, err
	}
	s := &sut{node: n, dirs: []string{n.dir}}
	half := len(r.rows) / 2
	if err = n.load(r.g, r.rows[:half]); err == nil {
		if r.e.fault == "no-degrade" {
			n.clock.Advance(waveAdvance)
		} else {
			_, err = n.wave(waveAdvance)
		}
	}
	if err == nil {
		err = n.load(r.g, r.rows[half:])
	}
	if err != nil {
		s.close()
		return nil, err
	}
	n.close()
	s.execs = []executor{&reopenExec{node: n, rows: int64(len(r.rows))}}
	s.seconds = time.Since(start).Seconds()
	return s, nil
}

// reopenExec performs one reopen_cycle op: open the directory (WAL
// replay), count, read one row, close. With a recorder it also records
// a span per step.
type reopenExec struct {
	node   *node
	rows   int64
	wrong  int
	rec    *recorder
	origin time.Time
}

func (x *reopenExec) do(o *op) bool {
	var opID, root int32
	t0 := since(x.origin)
	step := func(name string, from int64) int64 {
		now := since(x.origin)
		if x.rec != nil {
			x.rec.add(name, from, now, root, opID)
		}
		return now
	}
	if x.rec != nil {
		opID = x.rec.nextOp()
		root = x.rec.add("op.reopen", t0, t0, 0, opID) // end set below
	}
	if err := x.node.open(); err != nil {
		return false
	}
	t := step("engine.open", t0)
	n, err := queryInt(x.node.db, countSQL)
	t = step("engine.count", t)
	var rep reply
	if err == nil {
		rep, err = embeddedReply(x.node.db.NewConn().Exec(stmtSQL[opPoint], o.args...))
	}
	t = step("engine.point", t)
	cerr := x.node.db.Close()
	x.node.db = nil
	t = step("engine.close", t)
	if x.rec != nil {
		x.rec.finish(root, t)
	}
	if err != nil || cerr != nil {
		return false
	}
	point := *o
	point.kind = opPoint
	if n != x.rows || !expectations(nil).check(&point, rep, nil) {
		x.wrong++
		return false
	}
	return true
}

// oracleReopen reopens once more and checks what recovery must
// preserve: the count, and that a row degraded before the close is
// still unreadable at address accuracy yet readable at purpose stat.
func oracleReopen(r *run) error {
	n := r.sut.node
	if err := n.open(); err != nil {
		return err
	}
	defer n.close()
	if total, err := queryInt(n.db, countSQL); err != nil || total != int64(len(r.rows)) {
		return fmt.Errorf("COUNT(*) after reopen = %d (err %v), want %d", total, err, len(r.rows))
	}
	degraded := r.rows[0]
	conn := n.db.NewConn()
	full := op{kind: opProbeFull, args: []instantdb.Value{instantdb.Int(degraded.id)}}
	rep, err := embeddedReply(conn.Exec(stmtSQL[opProbeFull], full.args...))
	if !expectations(nil).check(&full, rep, err) {
		return fmt.Errorf("row %d, degraded before the close, is readable at address accuracy after reopen (%d rows, err %v)",
			degraded.id, rep.rows, err)
	}
	o := r.streams[0].pointOp(degraded.id, degraded.addr)
	rep, err = embeddedReply(conn.Exec(stmtSQL[opPoint], o.args...))
	if !expectations(nil).check(&o, rep, err) {
		return fmt.Errorf("row %d does not read back its country at purpose stat after reopen (err %v)", degraded.id, err)
	}
	return nil
}
