// Benchmarks regenerating the paper's reproduction artifacts, one per
// experiment in DESIGN.md's index (run `go test -bench=. -benchmem`), plus
// micro-benchmarks of the engine's hot paths. cmd/benchrunner prints the
// same experiments as human-readable tables; end-to-end and per-layer
// performance is measured by the harness in bench/ (bench/README.md).
package instantdb_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"instantdb"
	"instantdb/client"
	"instantdb/internal/backup"
	"instantdb/internal/experiments"
	"instantdb/internal/repl"
	"instantdb/internal/server"
)

// --- experiment harness benches (F/E/B series) ---

func BenchmarkF1_GeneralizationTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunF1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF2_AttributeLCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunF2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF3_TupleLCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunF3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_Exposure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE1(io.Discard, 400)
		if err != nil {
			b.Fatal(err)
		}
		if res.LCP >= res.Retention["30d"] {
			b.Fatal("paper claim violated: LCP exposure above retention")
		}
	}
}

func BenchmarkE2_AttackWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE2(io.Discard, 300); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_Usability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE3(io.Discard, 400); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreDegradeMove(b *testing.B)    { benchStoreDegrade(b, "MOVE") }
func BenchmarkStoreDegradeInPlace(b *testing.B) { benchStoreDegrade(b, "INPLACE") }

// benchStoreDegrade measures one full first-transition wave per
// iteration (B-STORE).
func benchStoreDegrade(b *testing.B, layout string) {
	const tuples = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env, err := experiments.NewEnv(experiments.EnvOptions{Layout: layout})
		if err != nil {
			b.Fatal(err)
		}
		if err := env.Load(tuples); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		n, err := env.AdvanceAndTick(experiments.SimPolicyDelays[0])
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if n < tuples {
			b.Fatalf("degraded %d of %d", n, tuples)
		}
		env.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(tuples), "transitions/op")
}

func BenchmarkLogStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBLog(io.Discard, 300); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBIdx(io.Discard, 400, 40); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTxnInterference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBTxn(io.Discard, 2, 100*time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunBRec(io.Discard, 300)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if !r.StateOK || !r.ForensicOK {
				b.Fatal("recovery verification failed")
			}
		}
	}
}

// --- engine micro-benchmarks ---

// BenchmarkInsert measures SQL insert throughput (batched VALUES).
func BenchmarkInsert(b *testing.B) {
	env, err := experiments.NewEnv(experiments.EnvOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	b.ReportAllocs()
	b.ResetTimer()
	const chunk = 100
	for done := 0; done < b.N; done += chunk {
		take := chunk
		if b.N-done < take {
			take = b.N - done
		}
		if err := env.Load(take); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPointQuery measures country-level point queries per index kind.
func benchPointQuery(b *testing.B, index string) {
	env, err := experiments.NewEnv(experiments.EnvOptions{Index: index})
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	if err := env.Load(2000); err != nil {
		b.Fatal(err)
	}
	conn := env.DB.NewConn()
	if err := conn.SetPurpose("stat"); err != nil {
		b.Fatal(err)
	}
	countries := env.Uni.Tree.NodesAtLevel(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := env.Uni.Tree.NodeValue(countries[i%len(countries)])
		if _, err := conn.Exec(fmt.Sprintf(
			"SELECT id FROM person WHERE location = '%s'", c)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointQueryScan(b *testing.B)   { benchPointQuery(b, "") }
func BenchmarkPointQueryBTree(b *testing.B)  { benchPointQuery(b, "BTREE") }
func BenchmarkPointQueryBitmap(b *testing.B) { benchPointQuery(b, "BITMAP") }
func BenchmarkPointQueryGT(b *testing.B)     { benchPointQuery(b, "GT") }

// --- prepared-vs-text benchmarks ---
//
// The pairs below measure the parse-amortization win of the prepared-
// statement API: the Text variant re-lexes, re-parses and re-binds the
// SQL on every call, the Prepared variant parses once and binds typed
// arguments per call. The Net variants run the same workload through
// the TCP server and Go client, where prepared execution additionally
// skips re-sending and re-parsing the statement text.

// benchOpen opens an ephemeral database with a plain table, so the
// pairs measure statement overhead rather than degradation machinery.
func benchOpen(b *testing.B) *instantdb.DB {
	b.Helper()
	db, err := instantdb.Open(instantdb.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	db.MustExec("CREATE TABLE kv (id INT PRIMARY KEY, who TEXT NOT NULL, score INT)")
	return db
}

// benchServe serves an equally shaped database over loopback TCP.
func benchServe(b *testing.B) string {
	b.Helper()
	db := benchOpen(b)
	srv := server.New(db, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	b.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String()
}

const benchSelectSQL = "SELECT who, score FROM kv WHERE id = "

func benchFill(b *testing.B, exec func(id int) error) {
	b.Helper()
	for i := 0; i < 1000; i++ {
		if err := exec(i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertTextLocal(b *testing.B) {
	conn := benchOpen(b).NewConn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Exec(fmt.Sprintf(
			"INSERT INTO kv (id, who, score) VALUES (%d, 'writer-%d', %d)", i, i%8, i%100)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertPreparedLocal(b *testing.B) {
	conn := benchOpen(b).NewConn()
	st, err := conn.Prepare("INSERT INTO kv (id, who, score) VALUES (?, ?, ?)")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Exec(instantdb.Int(int64(i)),
			instantdb.Text(fmt.Sprintf("writer-%d", i%8)), instantdb.Int(int64(i%100))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectTextLocal(b *testing.B) {
	conn := benchOpen(b).NewConn()
	benchFill(b, func(id int) error {
		_, err := conn.Exec("INSERT INTO kv (id, who, score) VALUES (?, 'w', 1)", instantdb.Int(int64(id)))
		return err
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Exec(fmt.Sprintf("%s%d", benchSelectSQL, i%1000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectPreparedLocal(b *testing.B) {
	conn := benchOpen(b).NewConn()
	benchFill(b, func(id int) error {
		_, err := conn.Exec("INSERT INTO kv (id, who, score) VALUES (?, 'w', 1)", instantdb.Int(int64(id)))
		return err
	})
	st, err := conn.Prepare("SELECT who, score FROM kv WHERE id = ?")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Query(instantdb.Int(int64(i % 1000))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertTextNet(b *testing.B) {
	addr := benchServe(b)
	ctx := context.Background()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Exec(ctx, fmt.Sprintf(
			"INSERT INTO kv (id, who, score) VALUES (%d, 'writer-%d', %d)", i, i%8, i%100)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertPreparedNet(b *testing.B) {
	addr := benchServe(b)
	ctx := context.Background()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	st, err := c.Prepare(ctx, "INSERT INTO kv (id, who, score) VALUES (?, ?, ?)")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Exec(ctx, instantdb.Int(int64(i)),
			instantdb.Text(fmt.Sprintf("writer-%d", i%8)), instantdb.Int(int64(i%100))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectTextNet(b *testing.B) {
	addr := benchServe(b)
	ctx := context.Background()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	benchFill(b, func(id int) error {
		_, err := c.Exec(ctx, "INSERT INTO kv (id, who, score) VALUES (?, 'w', 1)", instantdb.Int(int64(id)))
		return err
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(ctx, fmt.Sprintf("%s%d", benchSelectSQL, i%1000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectPreparedNet(b *testing.B) {
	addr := benchServe(b)
	ctx := context.Background()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	benchFill(b, func(id int) error {
		_, err := c.Exec(ctx, "INSERT INTO kv (id, who, score) VALUES (?, 'w', 1)", instantdb.Int(int64(id)))
		return err
	})
	st, err := c.Prepare(ctx, "SELECT who, score FROM kv WHERE id = ?")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Query(ctx, instantdb.Int(int64(i%1000))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- scan-during-degradation benchmarks ---
//
// The pair below measures reader/degrader interference on a table under
// continuous degradation churn (wall clock, millisecond retentions, a
// background inserter and a 1ms degradation loop). The Locked variant
// scans through an explicit read-write transaction — the strict-2PL
// read path, where every matched row takes an S lock the degrader must
// skip — and the Snapshot variant runs the same scans as plain
// autocommit SELECTs over the lock-free snapshot path. Besides ns/op,
// each run reports the degrader's lock skips per scan and its maximum
// transition lag: the interference the snapshot path removes.

func benchScanDegradeDB(b *testing.B) *instantdb.DB {
	b.Helper()
	db, err := instantdb.Open(instantdb.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	loc := instantdb.Figure1Locations()
	if err := db.RegisterDomain(loc); err != nil {
		b.Fatal(err)
	}
	pol := instantdb.NewPolicy("fastloc", loc).
		Hold(0, 4*time.Millisecond).
		Hold(1, 4*time.Millisecond).
		Hold(2, 4*time.Millisecond).
		Hold(3, 20*time.Millisecond).
		ThenDelete().
		MustBuild()
	if err := db.RegisterPolicy(pol); err != nil {
		b.Fatal(err)
	}
	db.MustExec(`CREATE TABLE person (id INT PRIMARY KEY, name TEXT, location TEXT DEGRADABLE DOMAIN location POLICY fastloc)`)
	db.MustExec(`DECLARE PURPOSE stat SET ACCURACY LEVEL country FOR person.location`)
	return db
}

func benchScanDuringDegradation(b *testing.B, locked bool) {
	db := benchScanDegradeDB(b)
	addrs := []string{"Dam 1", "Museumplein 6", "Coolsingel 40", "10 rue de Rivoli", "5 place Bellecour"}
	ins := db.NewConn()
	insert := func(id int) {
		ins.Exec("INSERT INTO person (id, name, location) VALUES (?, 'w', ?)", //nolint:errcheck
			instantdb.Int(int64(id)), instantdb.Text(addrs[id%len(addrs)]))
	}
	for i := 0; i < 500; i++ {
		insert(i)
	}
	// Continuous churn: fresh inserts feed the degrader while it ticks.
	// The rate is throttled — an unthrottled inserter can outrun the
	// degrader's drain-until-empty tick and grow its queues without
	// bound, which would measure queue pressure rather than
	// reader/degrader interference.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		id := 500
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			insert(id)
			id++
		}
	}()
	db.Degrader().Run(time.Millisecond)
	defer func() {
		close(stop)
		<-done
		db.Degrader().Stop()
	}()

	conn := db.NewConn()
	if err := conn.SetPurpose("stat"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if locked {
			if _, err := conn.Exec("BEGIN"); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := conn.Query("SELECT location FROM person"); err != nil {
			b.Fatal(err)
		}
		if locked {
			if _, err := conn.Exec("COMMIT"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	st := db.Degrader().Stats()
	b.ReportMetric(float64(st.LockSkips)/float64(b.N), "lockskips/op")
	b.ReportMetric(float64(st.MaxLag)/float64(time.Millisecond), "maxlag-ms")
}

func BenchmarkScanDuringDegradationLocked(b *testing.B)   { benchScanDuringDegradation(b, true) }
func BenchmarkScanDuringDegradationSnapshot(b *testing.B) { benchScanDuringDegradation(b, false) }

// BenchmarkAggregateQuery measures the OLAP sweep (GROUP BY location at
// country accuracy) on a GT-indexed table.
func BenchmarkAggregateQuery(b *testing.B) {
	env, err := experiments.NewEnv(experiments.EnvOptions{Index: "GT"})
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	if err := env.Load(2000); err != nil {
		b.Fatal(err)
	}
	conn := env.DB.NewConn()
	if err := conn.SetPurpose("stat"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Exec(
			"SELECT location, COUNT(*) AS n FROM person GROUP BY location"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- replication benchmarks ---
//
// BenchmarkReplicationLag measures the full commit-on-leader to
// visible-on-follower path: a durable leader commit, WAL tail, wire
// frame, follower re-log and epoch publish, snapshot read. The scan
// variant measures follower snapshot-scan throughput while the stream
// keeps applying leader batches underneath it.

// benchReplPair starts a durable leader served over loopback TCP and a
// follower replicating from it, waiting until the follower caught up
// with the schema.
func benchReplPair(b *testing.B) (*instantdb.DB, *instantdb.DB) {
	b.Helper()
	leader, err := instantdb.Open(instantdb.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { leader.Close() })
	leader.MustExec("CREATE TABLE kv (id INT PRIMARY KEY, who TEXT NOT NULL, score INT)")
	srv := server.New(leader, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	b.Cleanup(func() {
		srv.Close()
		<-done
	})

	follower, err := instantdb.Open(instantdb.Config{Dir: b.TempDir(), Replica: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { follower.Close() })
	f := &repl.Follower{Addr: ln.Addr().String(), DB: follower, BackoffMin: 5 * time.Millisecond}
	f.Start()
	b.Cleanup(f.Stop)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := follower.NewConn().Query("SELECT id FROM kv"); err == nil {
			return leader, follower
		}
		if time.Now().After(deadline) {
			b.Fatal("follower never received the schema")
		}
		time.Sleep(time.Millisecond)
	}
}

func BenchmarkReplicationLag(b *testing.B) {
	leader, follower := benchReplPair(b)
	conn := leader.NewConn()
	st, err := conn.Prepare("INSERT INTO kv (id, who, score) VALUES (?, ?, ?)")
	if err != nil {
		b.Fatal(err)
	}
	probe, err := follower.NewConn().Prepare("SELECT id FROM kv WHERE id = ?")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := instantdb.Int(int64(i))
		if _, err := st.Exec(id, instantdb.Text("w"), instantdb.Int(1)); err != nil {
			b.Fatal(err)
		}
		for {
			rows, err := probe.Query(id)
			if err != nil {
				b.Fatal(err)
			}
			if rows.Len() == 1 {
				break
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
}

func BenchmarkReplicaScanWhileStreaming(b *testing.B) {
	leader, follower := benchReplPair(b)
	conn := leader.NewConn()
	st, err := conn.Prepare("INSERT INTO kv (id, who, score) VALUES (?, ?, ?)")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := st.Exec(instantdb.Int(int64(i)), instantdb.Text("w"), instantdb.Int(1)); err != nil {
			b.Fatal(err)
		}
	}
	// Continuous leader churn streaming into the follower underneath
	// the measured scans.
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 1000; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := st.Exec(instantdb.Int(int64(i)), instantdb.Text("w"), instantdb.Int(1)); err != nil {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	scan := follower.NewConn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scan.Query("SELECT who FROM kv"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-writerDone
}

// --- backup & restore (DESIGN.md, "Backup & archives") ---

// benchBackupDB builds a durable database with n rows of mixed stable
// and degradable data for the backup benchmarks.
func benchBackupDB(b *testing.B, n int) *instantdb.DB {
	b.Helper()
	nosync := false
	db, err := instantdb.Open(instantdb.Config{Dir: b.TempDir(), WALSync: &nosync})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	db.MustExec(`CREATE DOMAIN places TREE LEVELS (address, city, country)
	    PATH ('Dam 1', 'Amsterdam', 'Netherlands')`)
	db.MustExec(`CREATE POLICY ppol ON places (HOLD address FOR '1h', HOLD city FOR '1d',
	    HOLD country FOR '1mo') THEN DELETE`)
	db.MustExec(`CREATE TABLE kv (id INT PRIMARY KEY, who TEXT NOT NULL,
	    place TEXT DEGRADABLE DOMAIN places POLICY ppol)`)
	conn := db.NewConn()
	st, err := conn.Prepare("INSERT INTO kv (id, who, place) VALUES (?, ?, ?)")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := st.Exec(instantdb.Int(int64(i)), instantdb.Text("some-stable-payload-for-width"),
			instantdb.Text("Dam 1")); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkBackupThroughput measures full-archive production over the
// lock-free snapshot path (bytes/sec via b.SetBytes).
func BenchmarkBackupThroughput(b *testing.B) {
	db := benchBackupDB(b, 5000)
	var size int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := backup.Full(db, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		size = sum.Bytes
	}
	b.SetBytes(size)
}

// BenchmarkRestoreThroughput measures rebuilding a database directory
// from a full archive (bytes of archive consumed per second).
func BenchmarkRestoreThroughput(b *testing.B) {
	db := benchBackupDB(b, 5000)
	var buf bytes.Buffer
	if _, err := backup.Full(db, &buf); err != nil {
		b.Fatal(err)
	}
	parent := b.TempDir()
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := filepath.Join(parent, fmt.Sprintf("r%d", i))
		if _, err := backup.Restore(backup.RestoreOptions{Dir: target}, bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		os.RemoveAll(target)
		b.StartTimer()
	}
}
