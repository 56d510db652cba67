package main

import (
	"fmt"
	"path/filepath"
	"time"

	"instantdb"
	"instantdb/client"
	"instantdb/internal/index"
	"instantdb/internal/query"
	"instantdb/internal/storage"
	"instantdb/internal/txn"
	"instantdb/internal/wal"
)

// Layer probes: the generator's own rows and statements pushed, by one
// caller, through one more layer per rung — parse → embedded ephemeral
// → embedded durable → one server over TCP → the router over two shards
// — plus direct calls into storage, index, lock manager and WAL. They
// run once per invocation, after the workloads, on a small deployment of
// their own (rigRows rows), and depend on the seed alone.

const (
	rigRows      = 4000
	quickRigRows = 500
	// probeIDBase keeps rows the probes insert clear of every other range.
	probeIDBase = 90_000_000
)

// prober times probes and files their medians as per-layer metrics. The
// first error sticks and turns every later probe into a no-op, so a
// sequence of probes needs one error check at its end.
type prober struct {
	pl  metrics
	err error
}

// timed runs f n times and files (and returns) the median duration in µs
// under name.
func (p *prober) timed(name string, n int, f func(i int) error) float64 {
	var h hist
	for i := 0; i < n && p.err == nil; i++ {
		start := time.Now()
		p.err = f(i)
		h.add(int64(time.Since(start)))
	}
	if p.err != nil {
		return 0
	}
	us := h.quantile(0.5) / 1e3
	if name != "" {
		p.pl.set(name, us)
	}
	return us
}

// send times a send function over ops, checking each reply.
func (p *prober) send(name string, send func(o *op) (reply, error), ops []op) float64 {
	return p.timed(name, len(ops), func(i int) error {
		r, err := send(&ops[i])
		if err == nil && !expectations(nil).check(&ops[i], r, nil) {
			err = fmt.Errorf("%s: wrong reply", ops[i].kind)
		}
		return err
	})
}

// must folds a set-up error into the sticky error and reports whether
// the probes may go on.
func (p *prober) must(err error) bool {
	if p.err == nil {
		p.err = err
	}
	return p.err == nil
}

func probeLayers(e *env, dir string) (metrics, error) {
	p := &prober{pl: metrics{}}
	n := rigRows
	if e.quick {
		n = quickRigRows
	}
	g := newGen(e.seed)
	rows := g.preload(n)

	// The ops of each kind the rungs share: reads over the rig's rows,
	// inserts of fresh rows (a distinct batch per rung).
	src := g.rowSource("probe")
	inserts := func(k int) []op {
		ops := make([]op, n/4)
		for i := range ops {
			ops[i] = op{kind: opInsert, args: g.insertArgs(src.next(probeIDBase + int64(k*n+i)))}
		}
		return ops
	}
	s := g.newStream("probe", 0, rows, nextScan)
	points := make([]op, n)
	for i := range points {
		points[i] = s.pointOp(rows[i].id, rows[i].addr)
	}
	scans := map[opKind][]op{}
	for len(scans[opEqLoc]) < 40 || len(scans[opGroupAgg]) < 20 || len(scans[opAvg]) < 20 {
		o := s.emit()
		scans[o.kind] = append(scans[o.kind], o)
	}
	allKinds := []opKind{opInsert, opPoint, opEqLoc, opEqSal, opGroupAgg, opAvg}

	// Rung 0: parse, over every statement text the workloads send.
	texts := []string{countSQL}
	for _, k := range allKinds {
		texts = append(texts, stmtSQL[k])
	}
	p.timed("query.parse_us", 2000, func(i int) error {
		_, _, err := query.ParseWithParams(texts[i%len(texts)])
		return err
	})

	// Rung 1: embedded, ephemeral.
	mem, err := openNode("", g.schema(true))
	if !p.must(err) {
		return nil, p.err
	}
	defer mem.close()
	memSend, err := embeddedSend(mem.db, allKinds)
	if !p.must(err) || !p.must(mem.load(g, rows)) {
		return nil, p.err
	}
	p.send("engine.insert_mem_us", memSend, inserts(0))
	p.send("engine.point_mem_us", memSend, points)

	// Rungs 2–4: a reference database holding the rig's rows is the
	// embedded durable rung, its server the TCP rung, and a router over
	// two shards holding the same rows between them the last.
	ref, err := buildReference(filepath.Join(dir, "ref.db"), g, rows)
	if !p.must(err) {
		return nil, p.err
	}
	defer ref.close()
	c, err := buildCluster(dir, g, rows)
	if !p.must(err) {
		return nil, p.err
	}
	defer c.close()
	var perTrans []float64
	for _, w := range c.waves {
		perTrans = append(perTrans, w.wall.Seconds()*1e6/float64(w.transitions))
	}
	p.pl.set("degrade.idle_us_per_transition", median(perTrans))

	refSend, err := embeddedSend(ref.db, allKinds)
	if !p.must(err) {
		return nil, p.err
	}
	p.send("engine.eq_index_us", refSend, scans[opEqLoc])
	p.send("engine.group_agg_us", refSend, scans[opGroupAgg])
	p.send("engine.avg_us", refSend, scans[opAvg])
	embeddedPoint := p.send("engine.point_durable_us", refSend, points)

	// Replay the reference's log (preload plus its waves) before the
	// insert probes append to it.
	log := ref.db.Log()
	var replay []float64
	for i := 0; i < 3 && p.err == nil; i++ {
		start := time.Now()
		p.err = log.Replay(func(*wal.Record) error { return nil })
		replay = append(replay, float64(log.SizeBytes())/1e6/time.Since(start).Seconds())
	}
	p.pl.set("wal.replay_mb_per_s", median(replay))

	// One connection each to the router, the two shards and the
	// reference's server.
	conns := make([]*client.Conn, 0, 4)
	defer func() { closeConns(conns) }()
	for _, addr := range []string{c.addr, c.shards[0].addr, c.shards[1].addr, ref.addr} {
		cs, err := dial(addr, 1)
		if !p.must(err) {
			return nil, p.err
		}
		conns = append(conns, cs...)
	}

	// Router rung first, while shards and reference still hold the same rows.
	routerSend := textSend(conns[0]) // the router takes no prepared statements
	routerPoint := p.send("shard.point_us", routerSend, points)
	routerAgg := p.send("shard.scatter_agg_us", routerSend, scans[opGroupAgg])
	slowestShard := 0.0
	for _, sc := range conns[1:3] {
		send, err := preparedSend(sc, []opKind{opGroupAgg})
		if !p.must(err) {
			return nil, p.err
		}
		slowestShard = max(slowestShard, p.send("", send, scans[opGroupAgg]))
	}

	// TCP rung: the reference database through its own server.
	serverSend, err := preparedSend(conns[3], []opKind{opInsert, opPoint})
	if !p.must(err) {
		return nil, p.err
	}
	serverPoint := p.send("server.point_us", serverSend, points)
	p.timed("wire.ping_rtt_us", n, func(int) error { return conns[3].Ping(bg) })

	// Durable inserts last: embedded, then through the server.
	p.send("engine.insert_durable_us", refSend, inserts(1))
	p.send("server.insert_us", serverSend, inserts(2))

	probeStorage(p, mem.db, g, rows)
	probeLog(p, filepath.Join(dir, "walprobe"), g, rows)
	if p.err != nil {
		return nil, p.err
	}
	p.pl.set("server.hop_us", serverPoint-embeddedPoint)
	p.pl.set("shard.hop_us", routerPoint-serverPoint)
	p.pl.set("shard.merge_share", 1-slowestShard/routerAgg)
	return p.pl, nil
}

// probeStorage calls TableStore, BTree and LockManager directly with
// the rig's rows in their stored forms.
func probeStorage(p *prober, db *instantdb.DB, g *gen, rows []row) {
	tbl, err := db.Catalog().Table("person")
	if !p.must(err) {
		return
	}
	loc := tbl.Columns[2].Domain
	sal := tbl.Columns[3].Domain
	stored := make([][]instantdb.Value, len(rows))
	cities := make([]instantdb.Value, len(rows))
	keys := make([][]byte, len(rows))
	for i, r := range rows {
		l, err := loc.ResolveInsert(instantdb.Text(g.uni.addrs[r.addr]))
		if !p.must(err) {
			return
		}
		s, err := sal.ResolveInsert(instantdb.Int(r.salary))
		if !p.must(err) {
			return
		}
		stored[i] = []instantdb.Value{instantdb.Int(r.id), instantdb.Text(r.name), l, s}
		cities[i], err = loc.Degrade(l, 0, 1)
		if !p.must(err) {
			return
		}
		keys[i], err = index.TreePathKey(loc.(*instantdb.Tree), l, 0)
		if !p.must(err) {
			return
		}
	}

	mgr := storage.NewManager(storage.NewMemStore())
	ts := mgr.Table(tbl)
	ids := make([]storage.TupleID, len(rows))
	p.timed("storage.insert_us", len(rows), func(i int) (err error) {
		ids[i], err = ts.Insert(stored[i], []uint8{0, 0}, instantdb.Epoch)
		return err
	})
	p.timed("storage.get_us", len(rows), func(i int) error { _, err := ts.Get(ids[i]); return err })
	scan := p.timed("", 20, func(int) error {
		return ts.SnapshotScan(mgr.StampEpoch(), func(storage.Tuple) bool { return true })
	})
	p.pl.set("storage.snapshot_scan_us_per_krow", scan*1000/float64(len(rows)))
	// State 1 of locpol is the city level.
	p.timed("storage.degrade_attr_us", len(rows), func(i int) error { return ts.DegradeAttr(ids[i], 0, cities[i], 1) })

	bt := index.NewBTree()
	p.timed("index.btree_add_us", len(rows), func(i int) error { bt.Add(keys[i], ids[i]); return nil })
	p.timed("index.btree_exact_us", len(rows), func(i int) error { bt.Exact(keys[i], func([]storage.TupleID) {}); return nil })

	lm := txn.NewLockManager(time.Second)
	p.timed("txn.acquire_release_us", len(rows), func(i int) error {
		id := txn.ID(i + 1)
		if err := lm.Acquire(id, txn.TableRes(tbl.ID), txn.LockIX); err != nil {
			return err
		}
		err := lm.Acquire(id, txn.RowRes(tbl.ID, ids[i]), txn.LockX)
		lm.ReleaseAll(id)
		return err
	})
}

// probeLog appends the commit payload of one generated insert to a log
// of its own, one caller, fsync on.
func probeLog(p *prober, dir string, g *gen, rows []row) {
	l, err := wal.Open(dir, wal.Options{Sync: true})
	if !p.must(err) {
		return
	}
	defer l.Close() //nolint:errcheck // probe log, discarded
	r := rows[len(rows)/2]
	payload, err := wal.EncodeRecords(nil, []*wal.Record{{
		Type: wal.RecInsert, Table: 1, Tuple: 1, InsertNano: instantdb.Epoch.UnixNano(),
		States:    []uint8{0, 0},
		StableRow: []instantdb.Value{instantdb.Int(r.id), instantdb.Text(r.name), instantdb.Null(), instantdb.Null()},
		DegVals:   []instantdb.Value{instantdb.Text(g.uni.addrs[r.addr]), instantdb.Int(r.salary)},
	}}, wal.PlainCodec{})
	if !p.must(err) {
		return
	}
	p.timed("wal.group_append_us", 300, func(int) error { _, err := l.GroupAppend(payload); return err })
}
