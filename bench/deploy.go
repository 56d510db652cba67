package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"instantdb"
	"instantdb/client"
	"instantdb/internal/server"
	"instantdb/internal/shard"
)

// flushPolicy is printed in every result header. It is what
// instantdb.Config gives a durable directory when only Dir and Clock
// are set, which is all openNode sets.
const flushPolicy = "LogShred, WALSync on, group commit on (GroupWindow 0), no checkpoint during measurement"

// loadBatch is the rows per preload transaction.
const loadBatch = 500

var bg = context.Background()

// node is one database on a simulated clock, optionally served over TCP.
type node struct {
	dir   string
	clock *instantdb.SimClock
	db    *instantdb.DB
	srv   *server.Server
	done  chan struct{} // closed when the Serve goroutine returns
	addr  string
}

// waveRec is one enforced degradation wave.
type waveRec struct {
	start, end  int64 // ns since the run origin (0 for set-up waves)
	wall        time.Duration
	transitions int
}

// openNode opens a database (durable when dir is not empty) and runs
// the schema script on it.
func openNode(dir string, schema string) (*node, error) {
	n := &node{dir: dir, clock: instantdb.NewSimClock(instantdb.Epoch)}
	if err := n.open(); err != nil {
		return nil, err
	}
	if err := n.db.ExecScript(schema); err != nil {
		n.close()
		return nil, fmt.Errorf("schema script: %w", err)
	}
	return n, nil
}

func (n *node) open() error {
	db, err := instantdb.Open(instantdb.Config{Dir: n.dir, Clock: n.clock})
	if err != nil {
		return fmt.Errorf("open %q: %w", n.dir, err)
	}
	n.db = db
	return nil
}

// serve starts a wire-protocol server for the node on a loopback port.
func (n *node) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.srv = server.New(n.db, server.Options{})
	n.done = make(chan struct{})
	n.addr = ln.Addr().String()
	go func() {
		defer close(n.done)
		n.srv.Serve(ln) //nolint:errcheck // nil after Close; a fatal Accept error surfaces as failed ops
	}()
	return nil
}

func (n *node) close() {
	if n.srv != nil {
		n.srv.Close() //nolint:errcheck // shutting down
		<-n.done
		n.srv = nil
	}
	if n.db != nil {
		n.db.Close() //nolint:errcheck // set-up and oracle already checked the data
		n.db = nil
	}
}

// load inserts rows through a prepared embedded statement, loadBatch
// rows per transaction.
func (n *node) load(g *gen, rows []row) error {
	conn := n.db.NewConn()
	ins, err := conn.Prepare(stmtSQL[opInsert])
	if err != nil {
		return err
	}
	for i, r := range rows {
		if i%loadBatch == 0 {
			if _, err := conn.Exec("BEGIN"); err != nil {
				return err
			}
		}
		if _, err := ins.Exec(g.insertArgs(r)...); err != nil {
			return fmt.Errorf("preload row %d: %w", r.id, err)
		}
		if i%loadBatch == loadBatch-1 || i == len(rows)-1 {
			if _, err := conn.Exec("COMMIT"); err != nil {
				return err
			}
		}
	}
	return nil
}

// wave advances the node's clock and enforces every transition that
// became due, timing the enforcement.
func (n *node) wave(advance time.Duration) (waveRec, error) {
	n.clock.Advance(advance)
	start := time.Now()
	k, err := n.db.DegradeNow()
	return waveRec{wall: time.Since(start), transitions: k}, err
}

// tickStep bounds how far the clock moves between two DegradeNow calls
// when a long span is crossed: shorter than the gap between any two
// deadlines of one policy (15 m and 1 h 15 m), so no tuple crosses two
// deadlines in one tick. The engine cannot do that for more than a batch
// of tuples of one epoch bucket — the first batch's second transition
// shreds the bucket's key for the state the second batch still has to
// pass through ("epoch key already shredded").
const tickStep = 50 * time.Minute

// advance moves the clock forward by total in ticks of at most tickStep
// and returns the ticks that enforced something.
func (n *node) advance(total time.Duration) ([]waveRec, error) {
	var waves []waveRec
	for total > 0 {
		step := min(total, tickStep)
		total -= step
		w, err := n.wave(step)
		if err != nil {
			return nil, err
		}
		if w.transitions > 0 {
			waves = append(waves, w)
		}
	}
	return waves, nil
}

// dial opens client connections to addr.
func dial(addr string, n int) ([]*client.Conn, error) {
	conns := make([]*client.Conn, 0, n)
	for i := 0; i < n; i++ {
		c, err := client.Dial(bg, addr)
		if err != nil {
			closeConns(conns)
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func closeConns(conns []*client.Conn) {
	for _, c := range conns {
		c.Close() //nolint:errcheck // read-side sessions, nothing to flush
	}
}

// agingSpan is how far set-up takes a freshly preloaded served database
// forward: past all four deadlines of the preload — address→city (15 m),
// city→region (1 h 15 m), salary exact→range1000 (12 h), region→country
// (25 h 15 m) — one bulk wave each. After it the preload sits at country
// / range1000 and no deadline of it falls inside a run.
const agingSpan = 48 * time.Hour

// cohortAges is how old each eighth of a cluster's rows is once the
// cluster is built — three cohorts end at country accuracy, three at
// region, one at city, one at address; salary is exact in the youngest
// four — so every purpose sees a different share of the table.
var cohortAges = []time.Duration{
	48 * time.Hour, 36 * time.Hour, 30 * time.Hour, 20 * time.Hour,
	10 * time.Hour, 2 * time.Hour, 40 * time.Minute, 5 * time.Minute,
}

// loadAged loads rows cohort by cohort, row r into nodes[pick(r)], with
// every node's clock advancing in step after each cohort, and returns
// the ticks that enforced something.
func loadAged(g *gen, rows []row, nodes []*node, pick func(row) int) ([]waveRec, error) {
	var waves []waveRec
	per := (len(rows) + len(cohortAges) - 1) / len(cohortAges)
	for i, age := range cohortAges {
		parts := make([][]row, len(nodes))
		for _, r := range rows[min(i*per, len(rows)):min((i+1)*per, len(rows))] {
			parts[pick(r)] = append(parts[pick(r)], r)
		}
		step := age
		if i+1 < len(cohortAges) {
			step -= cohortAges[i+1]
		}
		for k, n := range nodes {
			if err := n.load(g, parts[k]); err != nil {
				return nil, err
			}
			w, err := n.advance(step)
			if err != nil {
				return nil, err
			}
			waves = append(waves, w...)
		}
	}
	return waves, nil
}

// buildReference builds one served durable database holding every row,
// aged like a cluster's shards: the scan_router oracle's reference, and
// the embedded and single-server rungs of the layer ladder.
func buildReference(dir string, g *gen, rows []row) (*node, error) {
	n, err := openNode(dir, g.schema(true))
	if err != nil {
		return nil, err
	}
	if _, err = loadAged(g, rows, []*node{n}, func(row) int { return 0 }); err == nil {
		err = n.serve()
	}
	if err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// cluster is a two-shard deployment behind a router.
type cluster struct {
	shards [2]*node
	router *shard.Router
	rdone  chan struct{}
	addr   string // router address
	waves  []waveRec
}

// buildCluster creates two served durable databases under base, loads
// rows into the shard the routing table assigns each key, and starts
// the router. Shards must be durable: the router mirrors its catalog
// from the script only durable databases persist.
func buildCluster(base string, g *gen, rows []row) (*cluster, error) {
	c := &cluster{}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	var err error
	infos := make([]shard.Info, len(c.shards))
	for i := range c.shards {
		if c.shards[i], err = openNode(filepath.Join(base, fmt.Sprintf("shard%d.db", i)), g.schema(true)); err != nil {
			return nil, err
		}
		if err = c.shards[i].serve(); err != nil {
			return nil, err
		}
		infos[i] = shard.Info{Name: fmt.Sprintf("s%d", i), Addr: c.shards[i].addr}
	}
	table := shard.Uniform(infos)
	c.waves, err = loadAged(g, rows, c.shards[:], func(r row) int { return table.ShardForKey(instantdb.Int(r.id)) })
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	if c.router, err = shard.New(ctx, table, shard.Options{}); err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.addr = ln.Addr().String()
	c.rdone = make(chan struct{})
	go func() {
		defer close(c.rdone)
		c.router.Serve(ln) //nolint:errcheck // nil after Close
	}()
	ok = true
	return c, nil
}

func (c *cluster) close() {
	if c.rdone != nil {
		c.router.Close() //nolint:errcheck // shutting down
		<-c.rdone
	} else if c.router != nil {
		c.router.Close() //nolint:errcheck // never served
	}
	for _, n := range c.shards {
		if n != nil {
			n.close()
		}
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
