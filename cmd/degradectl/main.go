// Command degradectl inspects and operates the degradation machinery of
// a database directory: show policies and pending deadlines, force a
// degradation tick, fire events, run a forensic audit, vacuum the log,
// checkpoint, and take or restore degradation-preserving backups.
//
// Usage:
//
//	degradectl -dir path [-log shred|plain|vacuum] <command> [args]
//
// -log must name the strategy the database was created with (default
// shred): opening a plain- or vacuum-logged directory with the shred
// codec — or vice versa — fails during WAL replay.
//
// Commands:
//
//	status                 catalog summary: tables, policies, purposes, queues
//	stats [-connect host:port] [-watch 1s] [-all]
//	                       live server metrics over the wire Stats opcode:
//	                       the degradation-critical subset (lag, queue
//	                       depth, shredded keys, sessions, replication
//	                       lag), -all for every key, -watch to re-poll.
//	                       Pointing -connect at an instantdb-router prints
//	                       the aggregated deployment view: lag-style gauges
//	                       as the max over shards, queue depths and
//	                       counters summed, plus per-shard up/down state
//	tick                   run one degradation tick now
//	fire <event>           raise an application event
//	audit [-chain] [-file f]... [needle...]
//	                       forensic scan of store+log+keys (plus extra
//	                       files, e.g. backup archives) for text needles;
//	                       -dir is repeatable here, so one invocation can
//	                       sweep every shard directory of a deployment.
//	                       -chain additionally verifies each directory's
//	                       tamper-evident degradation audit trail (CRC +
//	                       SHA-256 hash chain from genesis) and fails the
//	                       audit on any break
//	trace [-connect host:port] [-exec sql] [-id hex] [-slow]
//	                       request tracing over the wire: -exec runs one
//	                       statement under a forced trace and prints its
//	                       span tree (through a router: the stitched
//	                       cross-shard tree); -id fetches a finished
//	                       trace, -slow the slow ring, default the
//	                       recent ring
//	events [-connect host:port] [-n 20]
//	                       the degradation audit trail's newest events —
//	                       over the wire (a router merges every shard's),
//	                       or locally from -dir
//	vacuum                 rotate and vacuum the log
//	checkpoint             sync pages, truncate the log, compact the keys
//	backup [-base prev] [-connect host:port] <out>
//	                       stream a backup archive: full, or incremental
//	                       resuming where -base ended; -connect streams
//	                       from a running server instead of opening -dir
//	restore -into dir [-keys keys.db] [-no-catchup] <base> [incr...]
//	                       rebuild a database directory from an archive
//	                       chain, then run degrade catch-up on it
//
// Backups taken from a shred-mode database hold degradable payloads as
// ciphertext under the live epoch keys; restore needs the key file
// (-keys, normally the live directory's keys.db) to recover payloads
// whose keys are still alive — everything whose key was shredded is
// restored as permanently Lost, which is the point. Local backup opens
// the directory directly, so only run it against a quiesced database;
// use -connect to back up a live server.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"instantdb"
	"instantdb/client"
	"instantdb/internal/backup"
	"instantdb/internal/forensic"
	"instantdb/internal/server"
	"instantdb/internal/trace"
	"instantdb/internal/wal"
)

const usageText = "usage: degradectl -dir path [-log shred|plain|vacuum] " +
	"<status|stats|tick|fire|audit|trace|events|vacuum|checkpoint|backup|restore> [args]"

func main() {
	var dirs stringList
	flag.Var(&dirs, "dir", "database directory (required for all commands except restore, and backup -connect; repeatable for audit)")
	logMode := flag.String("log", "shred", "log mode the database was created with: shred, plain, vacuum")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, usageText)
		os.Exit(2)
	}
	cmd, rest := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "restore":
		runRestore(*logMode, rest)
		return
	case "backup":
		runBackup(oneDirOrEmpty(dirs), *logMode, rest)
		return
	case "stats":
		runStats(rest)
		return
	case "trace":
		runTrace(rest)
		return
	case "events":
		runEvents(dirs, *logMode, rest)
		return
	case "audit":
		if len(dirs) == 0 {
			fmt.Fprintln(os.Stderr, usageText)
			os.Exit(2)
		}
		runAudit(dirs, *logMode, rest)
		return
	}

	if len(dirs) != 1 {
		fmt.Fprintln(os.Stderr, usageText)
		os.Exit(2)
	}
	db := openDB(dirs[0], *logMode)
	defer db.Close()

	switch cmd {
	case "status":
		status(db)
	case "tick":
		n, err := db.DegradeNow()
		fail(err)
		fmt.Printf("%d transition(s) enforced\n", n)
	case "fire":
		if len(rest) < 1 {
			fail(fmt.Errorf("fire needs an event name"))
		}
		db.FireEvent(rest[0])
		n, err := db.DegradeNow()
		fail(err)
		fmt.Printf("event %q fired: %d transition(s)\n", rest[0], n)
	case "vacuum":
		fail(db.VacuumLog())
		fmt.Println("log vacuumed")
	case "checkpoint":
		fail(db.Checkpoint())
		fmt.Println("checkpointed: pages synced, log truncated and scrubbed, keys compacted")
	default:
		fail(fmt.Errorf("unknown command %q", cmd))
	}
}

// oneDirOrEmpty returns the single -dir value, "" when none was given,
// and fails when several were (only audit sweeps multiple directories).
func oneDirOrEmpty(dirs stringList) string {
	switch len(dirs) {
	case 0:
		return ""
	case 1:
		return dirs[0]
	}
	fail(fmt.Errorf("this command takes exactly one -dir (repeat -dir only with audit)"))
	return ""
}

// openDB opens the database directory with the named log mode.
func openDB(dir, logMode string) *instantdb.DB {
	cfg := instantdb.Config{Dir: dir}
	var err error
	if cfg.LogMode, err = instantdb.ParseLogMode(logMode); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	db, err := instantdb.Open(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return db
}

// stringList collects repeated -file flags.
type stringList []string

func (s *stringList) String() string { return fmt.Sprint(*s) }

// Set implements flag.Value.
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

// runAudit scans each database directory's persistent artifacts — raw
// store pages, WAL segments, the epoch-key file — plus any extra files
// (backup archives) for the given text needles. -dir repeats, so one
// invocation sweeps every shard of a deployment and the exit status
// answers for all of them at once. catalog.sql is deliberately out of
// scope: schema literals (domain trees) legitimately contain level
// labels and are not data leaks.
func runAudit(dirs []string, logMode string, args []string) {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	var files stringList
	fs.Var(&files, "file", "extra file to scan (repeatable), e.g. a backup archive")
	chain := fs.Bool("chain", false, "verify each directory's degradation audit trail (CRC framing + SHA-256 hash chain from genesis); any break fails the audit")
	fail(fs.Parse(args))
	if fs.NArg() < 1 && !*chain {
		fail(fmt.Errorf("audit needs at least one needle (or -chain)"))
	}
	chainBroken := false
	if *chain {
		for _, dir := range dirs {
			n, err := trace.Verify(filepath.Join(dir, "audit"))
			if err != nil {
				fmt.Printf("%s: AUDIT TRAIL BROKEN after %d verified event(s): %v\n", dir, n, err)
				chainBroken = true
				continue
			}
			fmt.Printf("%s: audit chain intact, %d event(s) verified\n", dir, n)
		}
	}
	if fs.NArg() > 0 {
		var needles []forensic.Needle
		for _, arg := range fs.Args() {
			needles = append(needles, forensic.NeedleForText(arg, arg))
		}
		var rep forensic.Report
		for _, dir := range dirs {
			db := openDB(dir, logMode)
			dirRep, err := forensic.ScanStore(db.StorageManager().Store(), needles)
			if err == nil {
				var walRep forensic.Report
				if walRep, err = forensic.ScanDir(filepath.Join(dir, "wal"), needles); err == nil {
					dirRep.Merge(walRep)
					var keyRep forensic.Report
					if keyRep, err = forensic.ScanFile(filepath.Join(dir, "keys.db"), needles); err == nil {
						dirRep.Merge(keyRep)
					}
				}
			}
			db.Close()
			fail(err)
			if len(dirs) > 1 {
				fmt.Printf("%s: %d bytes, %d finding(s)\n", dir, dirRep.BytesScanned, len(dirRep.Findings))
			}
			rep.Merge(dirRep)
		}
		for _, f := range files {
			fileRep, err := forensic.ScanFile(f, needles)
			fail(err)
			rep.Merge(fileRep)
		}
		fmt.Printf("scanned %d bytes, %d finding(s)\n", rep.BytesScanned, len(rep.Findings))
		for _, f := range rep.Findings {
			fmt.Println(" ", f)
		}
		if !rep.Clean() {
			chainBroken = true
		}
	}
	if chainBroken {
		os.Exit(1)
	}
}

// runTrace drives request tracing over the wire. -exec runs one
// statement under a forced trace (through a router, the trace context
// fans out to every shard the statement touches) and prints the
// finished span tree; -id fetches a previously recorded trace; -slow
// and the default fetch the server's slow/recent rings.
func runTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	connect := fs.String("connect", "localhost:7654", "server or router address (host:port)")
	exec := fs.String("exec", "", "run this statement under a forced trace, then print its span tree")
	idStr := fs.String("id", "", "fetch one finished trace by id (hex, as printed)")
	slow := fs.Bool("slow", false, "fetch the slow-trace ring instead of the recent ring")
	purpose := fs.String("purpose", "", "session purpose (for -exec against purpose-bound tables)")
	fail(fs.Parse(args))
	if fs.NArg() != 0 {
		fail(fmt.Errorf("trace takes no positional arguments"))
	}
	var opts []client.Option
	if *purpose != "" {
		opts = append(opts, client.WithPurpose(*purpose))
	}
	ctx := context.Background()
	conn, err := client.Dial(ctx, *connect, opts...)
	fail(err)
	defer conn.Close()

	mode, id := client.TraceRecent, uint64(0)
	switch {
	case *exec != "":
		res, tid, err := conn.ExecTraced(ctx, *exec)
		fail(err)
		if res.Rows != nil {
			fmt.Printf("traced: %d row(s), trace id %016x\n", res.Rows.Len(), tid)
		} else {
			fmt.Printf("traced: %d row(s) affected, trace id %016x\n", res.RowsAffected, tid)
		}
		mode, id = client.TraceByID, tid
	case *idStr != "":
		id, err = strconv.ParseUint(strings.TrimPrefix(*idStr, "0x"), 16, 64)
		fail(err)
		mode = client.TraceByID
	case *slow:
		mode = client.TraceSlow
	}
	recs, err := conn.TraceDump(ctx, mode, id)
	fail(err)
	if len(recs) == 0 {
		fmt.Println("no traces (never recorded, or displaced from the bounded ring)")
		return
	}
	for _, r := range recs {
		server.WriteTraceTree(os.Stdout, r)
	}
}

// runEvents prints the degradation audit trail's newest events: over
// the wire from a running server (a router answers with every shard's
// tails merged by time), or locally by opening -dir.
func runEvents(dirs stringList, logMode string, args []string) {
	fs := flag.NewFlagSet("events", flag.ExitOnError)
	connect := fs.String("connect", "", "fetch from a running server or router at host:port instead of opening -dir")
	n := fs.Int("n", 20, "newest events to print (0 = everything retained in memory)")
	fail(fs.Parse(args))
	if fs.NArg() != 0 {
		fail(fmt.Errorf("events takes no positional arguments"))
	}
	var evs []trace.Event
	if *connect != "" {
		conn, err := client.Dial(context.Background(), *connect)
		fail(err)
		defer conn.Close()
		evs, err = conn.AuditTail(context.Background(), *n)
		fail(err)
	} else {
		dir := oneDirOrEmpty(dirs)
		if dir == "" {
			fail(fmt.Errorf("events needs -dir or -connect"))
		}
		db := openDB(dir, logMode)
		defer db.Close()
		evs = db.AuditLog().Tail(*n)
	}
	if len(evs) == 0 {
		fmt.Println("no audit events")
		return
	}
	for i := range evs {
		fmt.Println(evs[i].String())
	}
}

// runBackup streams a backup archive to a file: full, or incremental
// resuming at the end position of the -base archive. With -connect the
// archive streams from a running server; otherwise the -dir directory
// is opened locally (quiesce the database first).
func runBackup(dir, logMode string, args []string) {
	fs := flag.NewFlagSet("backup", flag.ExitOnError)
	base := fs.String("base", "", "previous archive in the chain; produce an incremental resuming at its end position")
	connect := fs.String("connect", "", "stream from a running instantdb-server at host:port instead of opening -dir")
	fail(fs.Parse(args))
	if fs.NArg() != 1 {
		fail(fmt.Errorf("backup needs exactly one output path"))
	}
	outPath := fs.Arg(0)

	var from wal.Pos
	if *base != "" {
		bf, err := os.Open(*base)
		fail(err)
		hdr, err := backup.ReadHeader(bf)
		bf.Close()
		fail(err)
		from = hdr.End
	}

	out, err := os.OpenFile(outPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	fail(err)

	var sum *backup.Summary
	if *connect != "" {
		conn, err := client.Dial(context.Background(), *connect)
		fail(err)
		defer conn.Close()
		var info *client.BackupInfo
		if *base == "" {
			info, err = conn.Backup(context.Background(), out)
		} else {
			info, err = conn.BackupIncremental(context.Background(), uint64(from.Seg), uint64(from.Off), out)
		}
		fail(err)
		sum = &backup.Summary{
			Incremental: *base != "",
			From:        from,
			End:         wal.Pos{Seg: int(info.EndSeg), Off: int64(info.EndOff)},
			Tuples:      int(info.Tuples),
			Batches:     int(info.Batches),
		}
		// The wire summary has no epoch; read it back from the archive
		// header, which also validates the file landed intact — a
		// failure here means the archive on disk is unusable.
		rf, err := os.Open(outPath)
		fail(err)
		hdr, err := backup.ReadHeader(rf)
		rf.Close()
		fail(err)
		sum.Epoch = hdr.Epoch
	} else {
		if dir == "" {
			fail(fmt.Errorf("backup needs -dir (or -connect)"))
		}
		db := openDB(dir, logMode)
		defer db.Close()
		if *base == "" {
			sum, err = backup.Full(db, out)
		} else {
			sum, err = backup.Incremental(db, from, out)
		}
		fail(err)
	}
	fail(out.Sync())
	fail(out.Close())
	if sum.Incremental {
		fmt.Printf("incremental backup: %d batch(es), %v -> %v\n", sum.Batches, sum.From, sum.End)
	} else {
		fmt.Printf("full backup: %d tuple(s) at epoch %d, next incremental from %v\n", sum.Tuples, sum.Epoch, sum.End)
	}
}

// statsHeadlines is the degradation-critical subset stats prints by
// default, in display order: is data expiring on time (lag, queue),
// what has been enforced (transitions, erasures, shredded keys), what
// the heap pages cost in I/O, what the audit trail costs per event, and
// is the serving/replication path healthy.
var statsHeadlines = []string{
	"instantdb_degrade_lag_seconds",
	"instantdb_degrade_max_lag_seconds",
	"instantdb_degrade_queue_depth",
	"instantdb_degrade_queue_bytes",
	"instantdb_degrade_transitions_total",
	"instantdb_degrade_erasures_total",
	"instantdb_degrade_deletions_total",
	"instantdb_wal_keys_shredded_total",
	"instantdb_keystore_live_keys",
	"instantdb_storage_page_reads_total",
	"instantdb_storage_page_writes_total",
	"instantdb_audit_events_total",
	"instantdb_audit_bytes_total",
	"instantdb_server_active_conns",
	"instantdb_repl_connected",
	"instantdb_repl_lag_bytes",
	"instantdb_repl_last_contact_seconds",
	// Router rollup (present when -connect points at instantdb-router):
	// the deployment-wide view — worst shard lag, table version, fleet
	// size.
	"instantdb_router_degrade_lag_max_seconds",
	"instantdb_router_table_version",
	"instantdb_router_shards",
	"instantdb_router_active_conns",
}

// runStats polls a running server's metrics snapshot over the wire
// Stats opcode and prints it: the degradation-critical subset by
// default, every key with -all, repeatedly with -watch.
func runStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	connect := fs.String("connect", "localhost:7654", "server address (host:port)")
	watch := fs.Duration("watch", 0, "re-poll and re-print at this interval (0 = print once)")
	all := fs.Bool("all", false, "print every metric key, not just the degradation-critical subset")
	fail(fs.Parse(args))
	if fs.NArg() != 0 {
		fail(fmt.Errorf("stats takes no positional arguments"))
	}
	conn, err := client.Dial(context.Background(), *connect)
	fail(err)
	defer conn.Close()
	for {
		m, err := conn.Stats(context.Background())
		fail(err)
		printStats(m, *all, *watch > 0)
		if *watch <= 0 {
			return
		}
		time.Sleep(*watch)
	}
}

// printStats renders one metrics snapshot. Watch mode stamps each
// block so scrollback reads as a time series.
func printStats(m map[string]float64, all, stamped bool) {
	if stamped {
		fmt.Printf("-- %s\n", time.Now().Format(time.RFC3339))
	}
	if len(m) == 0 {
		fmt.Println("(server has metrics disabled)")
		return
	}
	if all {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-56s %g\n", k, m[k])
		}
		return
	}
	for _, k := range statsHeadlines {
		if v, ok := m[k]; ok {
			fmt.Printf("%-44s %g\n", k, v)
		}
	}
	// Request-latency quantiles, one row per op label, from the
	// snapshot's interpolated histogram columns.
	const latPrefix = `instantdb_server_request_seconds_p50{op="`
	var ops []string
	for k := range m {
		if strings.HasPrefix(k, latPrefix) && strings.HasSuffix(k, `"}`) {
			ops = append(ops, k[len(latPrefix):len(k)-2])
		}
	}
	sort.Strings(ops)
	for _, op := range ops {
		label := fmt.Sprintf(`{op=%q}`, op)
		fmt.Printf("%-44s p50=%.3fms p99=%.3fms\n",
			"instantdb_server_request_seconds"+label,
			1000*m["instantdb_server_request_seconds_p50"+label],
			1000*m["instantdb_server_request_seconds_p99"+label])
	}
	// Labelled families, sorted for stable output: which structure holds
	// the memory (per index, per table), and per-shard reachability from
	// a router rollup.
	for _, family := range []string{
		"instantdb_index_entries{",
		"instantdb_index_bytes{",
		"instantdb_storage_directory_bytes{",
		"instantdb_router_shard_up{",
	} {
		var keys []string
		for k := range m {
			if strings.HasPrefix(k, family) {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-44s %g\n", k, m[k])
		}
	}
}

// runRestore rebuilds a database directory from an archive chain and
// (unless -no-catchup) opens it once — in the global -log mode, which
// must match the SOURCE database's mode — to fire every LCP transition
// whose deadline passed while the data sat archived.
func runRestore(logMode string, args []string) {
	fs := flag.NewFlagSet("restore", flag.ExitOnError)
	into := fs.String("into", "", "target database directory (must not exist)")
	keys := fs.String("keys", "", "epoch-key file (the live database's keys.db); omitted, every sealed payload restores as Lost")
	noCatchup := fs.Bool("no-catchup", false, "skip the degrade catch-up pass after restoring")
	fail(fs.Parse(args))
	if *into == "" || fs.NArg() < 1 {
		fail(fmt.Errorf("restore needs -into and at least one archive (base first)"))
	}
	archives := make([]io.Reader, 0, fs.NArg())
	files := make([]*os.File, 0, fs.NArg())
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, p := range fs.Args() {
		f, err := os.Open(p)
		fail(err)
		files = append(files, f)
		archives = append(archives, f)
	}
	sum, err := backup.Restore(backup.RestoreOptions{Dir: *into, KeysPath: *keys}, archives...)
	fail(err)
	fmt.Printf("restored %d tuple(s), %d batch(es); %d payload(s) lost, %d attribute(s) erased (up to %v)\n",
		sum.Tuples, sum.Batches, sum.Lost, sum.Erased, sum.End)
	if *noCatchup {
		return
	}
	db := openDB(*into, logMode)
	n, err := db.DegradeNow()
	if err != nil {
		db.Close()
		fail(err)
	}
	fail(db.Close())
	fmt.Printf("degrade catch-up: %d transition(s) enforced\n", n)
}

func status(db *instantdb.DB) {
	cat := db.Catalog()
	fmt.Println("tables:")
	for _, tbl := range cat.Tables() {
		ts := db.StorageManager().Table(tbl)
		st := ts.Stats()
		fmt.Printf("  %-16s %6d tuple(s) %4d page(s) layout=%s\n", tbl.Name, st.Tuples, st.Pages, tbl.Layout)
		for _, ci := range tbl.DegradableColumns() {
			col := tbl.Columns[ci]
			fmt.Printf("    degradable %-12s %s\n", col.Name+":", col.Policy.String())
		}
		for _, def := range cat.Indexes(tbl.Name) {
			fmt.Printf("    index %-16s on %s using %s\n", def.Name, tbl.Columns[def.Column].Name, def.Type)
		}
	}
	fmt.Println("purposes:")
	for _, p := range cat.Purposes() {
		fmt.Printf("  %-12s", p.Name)
		for col, lvl := range p.Levels {
			fmt.Printf(" %s@%d", col, lvl)
		}
		if p.AllowUnlisted {
			fmt.Print(" (allow unlisted)")
		}
		fmt.Println()
	}
	st := db.Degrader().Stats()
	fmt.Printf("degrader: %d pending, %d transitions, %d deletions, max lag %v, lock skips %d\n",
		st.Pending, st.Transitions, st.Deletions, st.MaxLag, st.LockSkips)
	if next, ok := db.Degrader().NextDeadline(); ok {
		fmt.Printf("next deadline: %v\n", next)
	}
	if ks := db.KeyStore(); ks != nil {
		fmt.Printf("epoch keys live: %d (key file %d bytes)\n", ks.LiveKeys(), ks.SizeBytes())
	}
	if l := db.Log(); l != nil {
		fmt.Printf("wal: %d segment(s), %d bytes\n", l.SegmentCount(), l.SizeBytes())
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
