package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"instantdb/internal/degrade"
	"instantdb/internal/gentree"
	"instantdb/internal/index"
	"instantdb/internal/storage"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
)

// TestExpiredLevelKeysGone: an order key exists in a scalar column's
// index for as long as some tuple holds that value at that accuracy, and
// no longer — also not as an entry without tuples.
func TestExpiredLevelKeysGone(t *testing.T) {
	db, clock := openSim(t)
	installSchema(t, db)
	db.MustExec(`CREATE INDEX ix_sal ON person (salary) USING BTREE`)
	const rows = 500
	for id := 1; id <= rows; id++ {
		db.MustExec(`INSERT INTO person (id, name, location, salary) VALUES (?, 'x', 'Dam 1', ?)`,
			value.Int(int64(id)), value.Int(int64(1000+id*7)))
	}
	bt := db.indexes["ix_sal"].bt
	visited := func(lo, hi []byte) (keys int) {
		bt.Range(lo, hi, func([]byte, []storage.TupleID) bool { keys++; return true })
		return keys
	}
	exactLo, exactHi := index.ScalarLevelRange(0, value.Int(0), value.Null())
	if got := visited(exactLo, exactHi); got != rows {
		t.Fatalf("%d exact salaries indexed, want %d", got, rows)
	}
	if st := bt.Stats(); st.Keys != rows || st.Entries != rows {
		t.Fatalf("index holds %+v, want %d keys", st, rows)
	}

	clock.Advance(12*time.Hour + time.Minute)
	if _, err := db.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	if got := visited(exactLo, exactHi); got != 0 {
		t.Fatalf("Range over level 0 visits %d keys after every tuple left exact", got)
	}
	// 1007..4500 fall in four 1000-wide buckets; what the tree holds is
	// what a walk over it visits — no level-0 key lingers unseen.
	st := bt.Stats()
	if all := visited(nil, nil); st.Keys != all || all != 4 || st.Entries != rows {
		t.Fatalf("index holds %+v, a full Range visits %d keys, want 4 bucket keys over %d entries", st, all, rows)
	}

	// Past the last hold the column is suppressed and the index empty.
	clock.Advance(8 * 24 * time.Hour)
	if _, err := db.DegradeNow(); err != nil {
		t.Fatal(err)
	}
	if st := bt.Stats(); st != index.NewBTree().Stats() {
		t.Fatalf("index over a fully suppressed column still holds %+v", st)
	}
	// The primary key's index forgets deleted keys the same way.
	pk := db.indexes["pk_person"].bt
	stat := db.NewConn()
	if err := stat.SetPurpose("stat"); err != nil {
		t.Fatal(err)
	}
	if res, err := stat.Exec(`DELETE FROM person WHERE id <= 400`); err != nil || res.RowsAffected != 400 {
		t.Fatalf("delete: %+v, %v", res, err)
	}
	if st := pk.Stats(); st.Keys != rows-400 || st.Entries != rows-400 {
		t.Fatalf("primary key index holds %+v after 400 deletes of %d", st, rows)
	}
}

// derivedState renders everything recovery rebuilds: every index's
// answers and the degrader's backlog.
func derivedState(t *testing.T, db *DB) (indexes map[string][]string, backlog []degrade.Pending) {
	t.Helper()
	indexes = make(map[string][]string)
	for name, inst := range db.indexes {
		var out []string
		switch {
		case inst.bt != nil:
			inst.bt.Range(nil, nil, func(k []byte, tids []storage.TupleID) bool {
				out = append(out, fmt.Sprintf("%x=%v", k, tids))
				// Exact must agree with Range on every key.
				inst.bt.Exact(k, func(got []storage.TupleID) {
					if !reflect.DeepEqual(got, tids) {
						t.Errorf("%s: Exact(%x)=%v, Range saw %v", name, k, got, tids)
					}
				})
				return true
			})
		default:
			var walk func(n gentree.NodeID)
			walk = func(n gentree.NodeID) {
				var ids []storage.TupleID
				if inst.gt != nil {
					ids = inst.gt.CollectSubtree(n, nil)
				} else {
					inst.bm.QuerySubtree(n).ForEach(func(id storage.TupleID) bool { ids = append(ids, id); return true })
				}
				out = append(out, fmt.Sprintf("%d=%v", n, ids))
				for _, c := range inst.tree.Children(n) {
					walk(c)
				}
			}
			for _, r := range inst.tree.Roots() {
				walk(r)
			}
		}
		indexes[name] = out
	}
	// Tasks of tuples a user DELETE removed stay queued in a live engine
	// until they come due and are skipped; a reopened one never sees them.
	for _, p := range db.deg.Backlog() {
		tbl, err := db.cat.Table(p.Table)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.mgr.Table(tbl).Get(p.Tuple); err == nil {
			backlog = append(backlog, p)
		}
	}
	return indexes, backlog
}

// TestReopenEqualsLive applies one history to a live database, then
// reopens its directory: the state rebuilt in one pass over the pages
// must equal the state the live engine maintained op by op.
func TestReopenEqualsLive(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewSimulated(vclock.Epoch)
	nosync := false
	cfg := Config{Dir: dir, Clock: clock, WALSync: &nosync}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ExecScript(paperSchema + `
CREATE INDEX ix_loc ON person (location) USING BTREE;
CREATE INDEX ix_sal ON person (salary) USING BTREE;
CREATE INDEX ix_name ON person (name) USING BTREE;
CREATE INDEX gt_loc ON person (location) USING GT;
CREATE INDEX bm_loc ON person (location) USING BITMAP;`); err != nil {
		t.Fatal(err)
	}
	addrs := []string{"Dam 1", "Museumplein 6", "Coolsingel 40", "10 rue de Rivoli", "2 place de la Defense", "5 place Bellecour"}
	rng := rand.New(rand.NewSource(3))
	id := 0
	insert := func(n int) {
		for i := 0; i < n; i++ {
			id++
			db.MustExec(`INSERT INTO person (id, name, location, salary) VALUES (?, ?, ?, ?)`,
				value.Int(int64(id)), value.Text(fmt.Sprintf("n%03d", rng.Intn(200))),
				value.Text(addrs[rng.Intn(len(addrs))]), value.Int(int64(1000+rng.Intn(60)*50)))
		}
	}
	stat := db.NewConn()
	if err := stat.SetPurpose("stat"); err != nil {
		t.Fatal(err)
	}
	// Waves of inserts minutes to days apart, ticks in between, so that
	// tuples end up in every state of both policies; stable-column
	// updates and user deletes on top.
	for wave := 0; wave < 12; wave++ {
		insert(150)
		for _, stmt := range []string{`UPDATE person SET name = 'renamed' WHERE id = ?`, `DELETE FROM person WHERE id = ?`} {
			if _, err := stat.Exec(stmt, value.Int(int64(1+rng.Intn(id)))); err != nil {
				t.Fatal(err)
			}
		}
		clock.Advance([]time.Duration{3 * 24 * time.Hour, 5 * time.Hour, 20 * time.Minute, 4 * time.Minute}[wave%4])
		if _, err := db.DegradeNow(); err != nil {
			t.Fatal(err)
		}
	}
	insert(100)
	if db.mgr.Table(db.indexes["ix_loc"].tbl).Count() < 1000 {
		t.Fatal("history left too few tuples")
	}
	liveIdx, liveBacklog := derivedState(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	reIdx, reBacklog := derivedState(t, db2)
	if len(reIdx) != 6 || len(reIdx) != len(liveIdx) {
		t.Fatalf("%d indexes reopened, %d live", len(reIdx), len(liveIdx))
	}
	for name, live := range liveIdx {
		if !reflect.DeepEqual(reIdx[name], live) {
			t.Errorf("index %s: reopened and live answers differ (%d vs %d entries)", name, len(reIdx[name]), len(live))
		}
	}
	// Same tasks in the same queues. Within a queue the order is by
	// deadline in both; tuples inserted at one instant may swap places.
	key := func(p degrade.Pending) string { return fmt.Sprintf("%s/%d/%d", p.Table, p.Attr, p.State) }
	for _, bl := range [][]degrade.Pending{liveBacklog, reBacklog} {
		for i := 1; i < len(bl); i++ {
			if key(bl[i-1]) == key(bl[i]) && bl[i].Deadline.Before(bl[i-1].Deadline) {
				t.Fatalf("queue %s out of deadline order at %d", key(bl[i]), i)
			}
		}
	}
	set := func(bl []degrade.Pending) map[degrade.Pending]int {
		m := make(map[degrade.Pending]int)
		for _, p := range bl {
			m[p]++
		}
		return m
	}
	if len(reBacklog) == 0 || !reflect.DeepEqual(set(reBacklog), set(liveBacklog)) {
		t.Fatalf("reopened backlog (%d tasks) differs from the live one (%d tasks)", len(reBacklog), len(liveBacklog))
	}
	queues := make(map[string]bool)
	for _, p := range reBacklog {
		queues[key(p)] = true
	}
	if len(queues) != 7 { // location out of four states, salary out of two, tuple delete
		t.Fatalf("history exercised only %d queues: %v", len(queues), queues)
	}
}

// Resident budgets: bytes of live heap per row of the benchmark's schema
// (person: primary key plus B+tree indexes on both degradable columns)
// at 20 000 rows, measurement + 5 %. This test measures 39.5 (loaded
// live) and 37.7 (reopened), within a few tenths run after run; of the
// 37.7, the three indexes hold 18.6 (primary key 10.4, salary 5.9,
// location 2.3), the tuple directory 8, the degradation queues 2.3 (one
// arrival-log task per row on a clock standing still, however many
// transitions wait on it). With a chunk of its own for every B+tree key
// of two ids or more it measured 52.9 and 49.2 (salary 15.7), with a
// packed task per (row, queue) — three queues, 6.9 B — 57.7 and 53.5,
// with B+tree leaves of 8-byte value slots and 4-byte key offsets 68.2
// and 61.9, with 16-byte directory entries, float64 INT keys and the
// primary-key reservations kept at their peak 88.2 and 78.3, with
// postings of 8-byte ids 100 and 88, with 16-byte queue tasks before that
// 152 and 130, with a posting per key and two directory maps before that
// 336 and 275.
const (
	residentBudgetLive     = 41.5
	residentBudgetReopened = 39.6
)

// residentParts logs the heap per row of each structure an open
// database rebuilds — the tuple directory with the young tuples' births,
// each B+tree index, the degradation queues — and checks the directory:
// 8 bytes per tuple, and no birth kept once the load's last commit is
// published with no snapshot open.
func residentParts(t *testing.T, db *DB, when string, rows int) {
	t.Helper()
	tbl, err := db.cat.Table("person")
	if err != nil {
		t.Fatal(err)
	}
	st := db.mgr.Table(tbl).Stats()
	parts := fmt.Sprintf("directory %.1f", float64(st.DirectoryBytes)/float64(rows))
	for _, name := range []string{"pk_person", "ix_loc", "ix_sal"} {
		parts += fmt.Sprintf(", %s %.1f", name, float64(db.indexes[name].bt.Stats().Bytes)/float64(rows))
	}
	for _, s := range db.Metrics().Snapshot() {
		if s.Key == "instantdb_degrade_queue_bytes" {
			parts += fmt.Sprintf(", queues %.1f", s.Value/float64(rows))
		}
	}
	t.Logf("%s, B/row: %s", when, parts)
	if st.Young != 0 {
		t.Errorf("%s: %d tuples keep a birth epoch with no snapshot open", when, st.Young)
	}
	// 8-byte entries in chunks of 128 ids: 8 B per dense row, plus the
	// unfilled rest of the last chunk.
	if perRow := float64(st.DirectoryBytes) / float64(rows); perRow > 8.1 {
		t.Errorf("%s: the directory holds %.2f B per row, want 8-byte entries", when, perRow)
	}
}

func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestResidentBudget loads the benchmark's table and holds the heap the
// open database keeps per row to a committed budget, loaded live and
// reopened from its directory.
func TestResidentBudget(t *testing.T) {
	const rows, perTxn = 20000, 500
	var schema strings.Builder
	schema.WriteString("CREATE DOMAIN location TREE LEVELS (address, city, region, country)")
	var addrs []string
	for i := 0; i < 400; i++ {
		addrs = append(addrs, fmt.Sprintf("%d Main St", i))
		fmt.Fprintf(&schema, "\n  PATH ('%d Main St', 'city%d', 'region%d', 'country%d')", i, i/8, i/40, i/100)
	}
	schema.WriteString(`;
CREATE DOMAIN salary RANGES (100, 1000, SUPPRESS);
CREATE POLICY locpol ON location (HOLD address FOR '15m', HOLD city FOR '1h',
  HOLD region FOR '1d', HOLD country FOR '1mo') THEN DELETE;
CREATE POLICY salpol ON salary (HOLD exact FOR '12h', HOLD range1000 FOR '1w') THEN SUPPRESS;
CREATE TABLE person (
  id INT PRIMARY KEY,
  name TEXT NOT NULL,
  location TEXT DEGRADABLE DOMAIN location POLICY locpol,
  salary INT DEGRADABLE DOMAIN salary POLICY salpol
);
CREATE INDEX ix_loc ON person (location) USING BTREE;
CREATE INDEX ix_sal ON person (salary) USING BTREE;`)

	dir := t.TempDir()
	nosync := false
	cfg := Config{Dir: dir, Clock: vclock.NewSimulated(vclock.Epoch), WALSync: &nosync}
	before := liveHeap()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ExecScript(schema.String()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 8, uint64(len(addrs)-1))
	conn := db.NewConn()
	ins, err := conn.Prepare(`INSERT INTO person (id, name, location, salary) VALUES (?, ?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= rows; id++ {
		if id%perTxn == 1 {
			if _, err := conn.Exec(`BEGIN`); err != nil {
				t.Fatal(err)
			}
		}
		_, err := ins.Exec(value.Int(int64(id)), value.Text(fmt.Sprintf("name-%08d", rng.Intn(1e8))),
			value.Text(addrs[zipf.Uint64()]), value.Int(int64(rng.ExpFloat64()*2800)))
		if err != nil {
			t.Fatal(err)
		}
		if id%perTxn == 0 {
			if _, err := conn.Exec(`COMMIT`); err != nil {
				t.Fatal(err)
			}
		}
	}
	ins.Close()
	live := float64(liveHeap()-before) / rows
	runtime.KeepAlive(conn)
	residentParts(t, db, "loaded live", rows)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	before = liveHeap()
	db2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reopened := float64(liveHeap()-before) / rows
	if n := db2.indexes["pk_person"].bt.Len(); n != rows {
		t.Fatalf("reopened database indexes %d rows, want %d", n, rows)
	}
	residentParts(t, db2, "reopened", rows)
	db2.Close()
	t.Logf("resident heap per row: %.1f B loaded live (budget %.1f), %.1f B reopened (budget %.1f)",
		live, residentBudgetLive, reopened, residentBudgetReopened)
	if live > residentBudgetLive {
		t.Errorf("live-loaded database keeps %.1f B/row, budget %.1f", live, residentBudgetLive)
	}
	if reopened > residentBudgetReopened {
		t.Errorf("reopened database keeps %.1f B/row, budget %.1f", reopened, residentBudgetReopened)
	}
}
