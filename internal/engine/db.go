// Package engine assembles InstantDB: catalog, storage, WAL, indexes,
// lock manager, degradation engine and SQL execution behind one DB type.
// The public package instantdb at the module root re-exports this API.
//
// Durability design: the WAL is redo-only and the storage layer is
// logically no-steal — a transaction's writes live in its write set until
// commit, when they are appended to the WAL (fsync) and then applied to
// storage and indexes under the commit mutex. Recovery rebuilds storage
// directories from raw pages, replays the whole log idempotently, then
// rebuilds indexes and reseeds the degradation queues. A crash therefore
// never resurrects an accuracy state whose degradation committed: the
// degrade record replays and re-scrubs before the database accepts
// queries.
//
// Concurrency contract: a DB is safe for concurrent use — NewConn and
// Exec may be called from any number of goroutines, and the background
// degradation loop runs alongside queries. Each layer guards its own
// state (catalog, storage, WAL, lock manager and index structures carry
// internal mutexes; commits, DDL and checkpoints serialize on db.mu;
// the index registry is published copy-on-write under db.idxMu so query
// planning never blocks on DDL). Writes and reads inside explicit
// read-write transactions isolate under strict 2PL; autocommit SELECTs
// and BEGIN READ ONLY transactions read versioned snapshots with no
// locks, so scans and the degradation engine never wait on each other
// (DESIGN.md, "Concurrency & snapshots" — including the deliberate
// deviation from classic snapshot isolation at LCP deadlines). A Conn,
// by contrast, is a single session — one purpose, at most one open
// transaction — and is NOT safe for concurrent use; open one Conn per
// goroutine. The network server (internal/server) maps every remote
// connection to its own Conn on exactly this contract.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"instantdb/internal/catalog"
	"instantdb/internal/degrade"
	"instantdb/internal/gentree"
	"instantdb/internal/lcp"
	"instantdb/internal/metrics"
	"instantdb/internal/query"
	"instantdb/internal/storage"
	"instantdb/internal/trace"
	"instantdb/internal/txn"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
	"instantdb/internal/wal"
)

// LogMode selects the log-degradation strategy (experiment B-LOG).
type LogMode uint8

const (
	// LogNone disables the WAL: ephemeral databases (tests, benchmarks,
	// simulations) with no durability.
	LogNone LogMode = iota
	// LogPlain writes payloads verbatim — durable but the log leaks
	// expired accuracy states until a checkpoint truncates it. Only
	// DB.Checkpoint does, and a running server never calls it
	// (degradectl checkpoint runs it on a directory no server has open),
	// so a server in this mode keeps every expired state in its log for
	// as long as it runs.
	LogPlain
	// LogShred encrypts degradable payloads under epoch keys destroyed
	// as deadlines pass (the default durable mode).
	LogShred
	// LogVacuum keeps payloads plain but periodically rewrites sealed
	// segments, NULLing payloads that outlived their accuracy state.
	LogVacuum
)

// ParseLogMode parses a log-mode name ("none", "shred", "plain",
// "vacuum"), as spelled by the command-line tools' -log flag.
func ParseLogMode(s string) (LogMode, error) {
	switch s {
	case "none":
		return LogNone, nil
	case "shred":
		return LogShred, nil
	case "plain":
		return LogPlain, nil
	case "vacuum":
		return LogVacuum, nil
	}
	return 0, fmt.Errorf("engine: unknown log mode %q", s)
}

// Config tunes Open.
type Config struct {
	// Dir is the database directory; empty means an ephemeral in-memory
	// database (implies LogNone).
	Dir string
	// Clock drives degradation deadlines (default: wall clock).
	Clock vclock.Clock
	// LogMode selects the log degradation strategy (default LogShred
	// for durable databases).
	LogMode LogMode
	// ShredBucket is the epoch-key bucket width (default 1h). It bounds
	// the lag between a deadline and log erasure in LogShred mode.
	ShredBucket time.Duration
	// WALSync fsyncs every commit (default true for durable databases).
	WALSync *bool
	// SegmentBytes is the WAL rotation threshold.
	SegmentBytes int64
	// WALOpenSegment is a testing hook forwarded to
	// wal.Options.OpenSegment — the crash-injection harness installs a
	// fault-point file layer here. Production leaves it nil.
	WALOpenSegment func(path string) (wal.SegmentFile, error)
	// LockTimeout bounds lock waits (default 200ms).
	LockTimeout time.Duration
	// Degrade tunes the degradation engine.
	Degrade degrade.Options
	// AutoDegrade starts a background degradation loop with this tick
	// interval (0 = call Tick/DegradeNow manually — simulations).
	AutoDegrade time.Duration
	// TraceSample controls hot-path request tracing: 0 records only
	// remote-forced traces (a trace id in a wire OpExec frame), 1 traces every
	// request, n traces one request in n. Finished traces land in the
	// tracer's bounded recent/slow rings (trace.RecentCap/SlowCap).
	TraceSample int
	// SlowQuery is the threshold above which a finished trace also
	// enters the slow ring and the server logs its span breakdown
	// (0 = trace.DefaultSlow).
	SlowQuery time.Duration
	// Replica opens the database in read-replica (follower) mode: user
	// write statements, read-write BEGIN and DDL fail with
	// ErrReadOnlyReplica, and mutations arrive only through
	// ApplyReplicated / ApplyReplicatedDDL (fed by a repl.Follower
	// tailing a leader's WAL). The degradation engine keeps running
	// against THIS process's clock: LCP transitions, scrubs and
	// tuple-LCP deletions fire at their deadlines even while the leader
	// is unreachable — expiry is enforced where the copy lives.
	Replica bool
}

// DB is an open InstantDB database.
type DB struct {
	cfg    Config
	cat    *catalog.Catalog
	mgr    *storage.Manager
	log    *wal.Log
	keys   *wal.KeyStore
	codec  wal.Codec
	locks  *txn.LockManager
	ids    *txn.IDSource
	epochs *txn.EpochSource
	deg    *degrade.Engine
	clock  vclock.Clock
	reg    *metrics.Registry
	met    dbMetrics
	tracer *trace.Tracer
	audit  *trace.Audit

	// commitGate fences the phased group-commit path: committers hold it
	// shared from PK reservation through apply, so holders of
	// the exclusive side (BackupPin, Checkpoint, Close) never observe a
	// batch that is appended to the WAL but not yet applied/published.
	// Lock order: commitGate before mu; never acquire commitGate while
	// holding mu.
	commitGate sync.RWMutex
	mu         sync.Mutex   // serializes commits, DDL and checkpoints
	idxMu      sync.RWMutex // guards indexes/byTable for lock-free readers
	indexes    map[string]*indexInst
	byTable    map[uint32][]*indexInst
	// reservedPKs holds the primary keys of inserts currently between
	// admission and apply (under mu): the authoritative uniqueness check
	// runs before the WAL append, the pk index is updated only at apply,
	// and this set closes the window in between — and catches a key a
	// batch inserts twice. It is nil while no batch is in flight, so
	// the largest batch's keys are not held after it.
	reservedPKs map[string]struct{}
	ddlFile     *os.File
	lastVac     time.Time
	closed      bool
	failed      bool // a durably logged batch did not apply; commits fenced
	replaying   bool
	// ddlApplied counts catalog.sql statements applied, in order — the
	// replication schema stream resumes at this index.
	ddlApplied int
	// replPos is the leader log position the next replicated batch
	// starts at (follower mode; recovered from RecReplMark records and
	// the repl.pos checkpoint file).
	replPos wal.Pos
	// shardVer is the highest routing-table version this database has
	// been served under (persisted to shard.ver; see CheckShardVersion).
	shardVer uint64
}

// Open opens (or creates) a database.
func Open(cfg Config) (*DB, error) {
	if cfg.Clock == nil {
		cfg.Clock = vclock.Wall{}
	}
	if cfg.ShredBucket <= 0 {
		cfg.ShredBucket = time.Hour
	}
	db := &DB{
		cfg:     cfg,
		cat:     catalog.New(),
		locks:   txn.NewLockManager(cfg.LockTimeout),
		ids:     &txn.IDSource{},
		epochs:  txn.NewEpochSource(),
		clock:   cfg.Clock,
		indexes: make(map[string]*indexInst),
		byTable: make(map[uint32][]*indexInst),
		reg:     metrics.NewRegistry(),
	}

	ephemeral := cfg.Dir == ""
	if ephemeral {
		db.mgr = storage.NewManager(storage.NewMemStore())
		db.cfg.LogMode = LogNone
	} else {
		if err := os.MkdirAll(cfg.Dir, 0o700); err != nil {
			return nil, fmt.Errorf("engine: mkdir: %w", err)
		}
		fs, err := storage.OpenFileStore(filepath.Join(cfg.Dir, "pages.db"))
		if err != nil {
			return nil, err
		}
		db.mgr = storage.NewManager(fs)
		if db.cfg.LogMode == LogNone {
			db.cfg.LogMode = LogShred
		}
	}

	// Log + codec.
	if db.cfg.LogMode != LogNone {
		var codec wal.Codec = wal.PlainCodec{}
		if db.cfg.LogMode == LogShred {
			ks, err := wal.OpenKeyStore(filepath.Join(cfg.Dir, "keys.db"))
			if err != nil {
				return nil, err
			}
			db.keys = ks
			codec = wal.NewShredCodec(ks, db.cfg.ShredBucket)
		}
		sync := true
		if cfg.WALSync != nil {
			sync = *cfg.WALSync
		}
		l, err := wal.Open(filepath.Join(cfg.Dir, "wal"), wal.Options{
			Sync: sync, Codec: codec, SegmentBytes: cfg.SegmentBytes,
			Metrics: db.reg, OpenSegment: cfg.WALOpenSegment,
		})
		if err != nil {
			return nil, err
		}
		db.log = l
		db.codec = codec
	}

	// Degradation engine with the matching scrubber.
	var scrub degrade.Scrubber = degrade.NopScrubber{}
	switch db.cfg.LogMode {
	case LogShred:
		scrub = &shredScrubber{db: db}
	case LogVacuum:
		scrub = &vacuumScrubber{db: db}
	}
	db.deg = degrade.New(db.clock, db.cat, db.mgr, db.locks, db.ids,
		func(recs []*wal.Record) error { return db.commit(recs, local, nil, nil) }, scrub, cfg.Degrade)
	db.initMetrics(db.reg)
	db.tracer = trace.New("server", cfg.TraceSample, cfg.SlowQuery)

	auditDir := ""
	if !ephemeral {
		auditDir = filepath.Join(cfg.Dir, "audit")
	}
	aud, err := trace.OpenAudit(auditDir)
	if err != nil {
		db.Close()
		return nil, err
	}
	db.audit = aud

	if !ephemeral {
		if err := db.recover(); err != nil {
			db.Close()
			return nil, err
		}
	}
	// The audit sink attaches after recovery: replay reseeds the
	// degradation queues from rows the trail already recorded when they
	// were first inserted, and re-auditing them on every reopen would
	// bury the genuine events.
	db.deg.SetAudit(db.audit)
	if cfg.AutoDegrade > 0 {
		db.deg.Run(cfg.AutoDegrade)
	}
	return db, nil
}

// recover replays the catalog DDL, rebuilds storage, replays the WAL,
// then rebuilds indexes and degradation queues together.
func (db *DB) recover() error {
	// 1. Catalog: replay persisted DDL.
	ddlPath := filepath.Join(db.cfg.Dir, "catalog.sql")
	if data, err := os.ReadFile(ddlPath); err == nil && len(data) > 0 {
		stmts, texts, err := query.ParseScript(string(data))
		if err != nil {
			return fmt.Errorf("engine: corrupt catalog.sql: %w", err)
		}
		db.replaying = true
		for i, st := range stmts {
			if err := db.execDDL(st, texts[i]); err != nil {
				db.replaying = false
				return fmt.Errorf("engine: catalog replay: %w", err)
			}
		}
		db.replaying = false
	}
	f, err := os.OpenFile(ddlPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	if err != nil {
		return err
	}
	db.ddlFile = f

	// 2. Storage directories from raw pages.
	if err := db.mgr.Rebuild(db.cat); err != nil {
		return err
	}
	// 2a. A degradation move torn by a crash that the rebuild healed is
	// evidence for the trail, which is already open.
	healed := db.mgr.HealedMoves()
	db.audit.AppendN(len(healed), func(i int) trace.Event {
		h := healed[i]
		return trace.Event{Kind: trace.EvTornMoveHealed, UnixNano: db.clock.Now().UTC().UnixNano(),
			Table: h.Table.Name, Tuple: uint64(h.Tuple), Detail: fmt.Sprintf("kept states %v", h.States)}
	})
	// 2b. Replication floor: a checkpoint scrubs the WAL (and its
	// RecReplMark records), persisting the position to repl.pos first.
	// Marks replayed from the log in step 3 only ever move it forward.
	if data, err := os.ReadFile(filepath.Join(db.cfg.Dir, "repl.pos")); err == nil {
		var p wal.Pos
		if _, err := fmt.Sscanf(string(data), "%d:%d", &p.Seg, &p.Off); err == nil {
			db.replPos = p
		}
	}
	// 2c. Sharding floor: the routing-table version this shard last
	// served under survives restarts, so a router presenting an older
	// table keeps failing loud after the shard reopens.
	if data, err := os.ReadFile(filepath.Join(db.cfg.Dir, "shard.ver")); err == nil {
		var v uint64
		if _, err := fmt.Sscanf(string(data), "%d", &v); err == nil {
			db.shardVer = v
		}
	}
	// 3. Redo the log (idempotent; complete batches only), in runs of at
	// most replayRun records.
	if db.log != nil {
		var pending []*wal.Record
		err := db.log.Replay(func(r *wal.Record) error {
			if pending = append(pending, r); len(pending) < replayRun {
				return nil
			}
			err := db.applyRecords(pending, replay)
			pending = pending[:0]
			return err
		})
		if err == nil {
			err = db.applyRecords(pending, replay)
		}
		if err != nil {
			return fmt.Errorf("engine: wal replay: %w", err)
		}
	}
	// 4. Derived state.
	return db.rebuildDerived()
}

// replayRun bounds the records WAL replay holds before applying them, so
// a never-checkpointed log does not keep every decoded record alive at
// once; a run that long already writes each page it fills once.
const replayRun = 1024

// Catalog exposes the schema registry (tools, experiments).
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Clock returns the database clock.
func (db *DB) Clock() vclock.Clock { return db.clock }

// Degrader exposes the degradation engine (simulation harnesses call
// Tick; applications use FireEvent/RegisterPredicate).
func (db *DB) Degrader() *degrade.Engine { return db.deg }

// StorageManager exposes the storage layer (forensic scans, stats).
func (db *DB) StorageManager() *storage.Manager { return db.mgr }

// Log exposes the WAL (nil for ephemeral databases).
func (db *DB) Log() *wal.Log { return db.log }

// KeyStore exposes the epoch-key store (nil unless LogShred).
func (db *DB) KeyStore() *wal.KeyStore { return db.keys }

// Epoch returns the last published snapshot epoch (replication
// handshake diagnostics).
func (db *DB) Epoch() uint64 { return db.epochs.Current() }

// WALCodec returns the codec sealing degradable payloads in the WAL.
// Backup writers seal archived payloads with it, so archive ciphertext
// lives under the same epoch keys as the log — shredding a key degrades
// every archive ever taken. PlainCodec for plain/vacuum databases (no
// retroactive guarantee) and for ephemeral ones.
func (db *DB) WALCodec() wal.Codec {
	if db.codec == nil {
		return wal.PlainCodec{}
	}
	return db.codec
}

// BackupPin pins a consistent backup point: a snapshot epoch (held open
// until release is called) paired with the WAL position every batch
// published at or before that epoch lies strictly before. The pair is
// taken under the commit mutex, so a full backup scanning the epoch plus
// an incremental tailing the log from the position covers every commit
// exactly once. Ephemeral databases have nothing durable to archive and
// are refused.
func (db *DB) BackupPin() (epoch uint64, pos wal.Pos, release func(), err error) {
	// The exclusive gate drains in-flight group commits first: without
	// it, a batch appended (before pos) but published after the epoch
	// snapshot would be missed by the full backup AND by the
	// incremental tail from pos.
	db.commitGate.Lock()
	defer db.commitGate.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, wal.Pos{}, nil, errors.New("engine: database closed")
	}
	if db.cfg.Dir == "" || db.log == nil {
		return 0, wal.Pos{}, nil, errors.New("engine: backup requires a durable database (no WAL)")
	}
	epoch = db.epochs.Snapshot()
	return epoch, db.log.EndPos(), func() { db.epochs.Release(epoch) }, nil
}

// CatalogScript returns the persisted DDL script (catalog.sql) under the
// commit mutex, so a concurrently executing DDL statement is either
// fully included or fully absent. An in-memory database has none.
func (db *DB) CatalogScript() (string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.cfg.Dir == "" {
		return "", nil
	}
	data, err := os.ReadFile(filepath.Join(db.cfg.Dir, "catalog.sql"))
	if err != nil && !os.IsNotExist(err) {
		return "", err
	}
	return string(data), nil
}

// IsReplica reports whether the database runs in read-replica mode.
func (db *DB) IsReplica() bool { return db.cfg.Replica }

// ReplPos returns the leader log position the next replicated batch
// starts at — durable with the batches themselves (RecReplMark records
// ride in each applied commit batch) so a reopened follower resumes
// exactly where it stopped.
func (db *DB) ReplPos() wal.Pos {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.replPos
}

// ErrShardStale reports an OpShardCheck (or local CheckShardVersion)
// presenting a routing-table version older than the one this database
// has already served under: the caller's routing table must be reloaded
// before it routes any key here.
var ErrShardStale = errors.New("engine: presented routing-table version is older than the stored one")

// ShardVersion returns the highest routing-table version this database
// has been served under (0 if it has never been part of a sharded
// deployment).
func (db *DB) ShardVersion() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.shardVer
}

// CheckShardVersion atomically compares-and-raises the persisted
// routing-table version: presenting v at or above the stored version
// records v (durably, for on-disk databases) and returns the previous
// value; presenting an older v returns ErrShardStale so a router
// restarted with a stale routing table fails loud instead of silently
// misrouting keys to this shard.
func (db *DB) CheckShardVersion(v uint64) (prev uint64, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	prev = db.shardVer
	if v < prev {
		return prev, fmt.Errorf("%w: presented %d, stored %d", ErrShardStale, v, prev)
	}
	if v > prev {
		if db.cfg.Dir != "" {
			if err := writeFileSynced(filepath.Join(db.cfg.Dir, "shard.ver"),
				[]byte(fmt.Sprintf("%d", v))); err != nil {
				return prev, err
			}
		}
		db.shardVer = v
	}
	return prev, nil
}

// ReplSource validates that this database's WAL can be tailed by byte
// position — by a replication sender or an incremental backup — and
// returns the log plus the catalog DDL script. Ephemeral databases have
// no log to tail, and vacuum mode rewrites sealed segments in place,
// which would silently invalidate tailer byte positions — both are
// refused.
func (db *DB) ReplSource() (*wal.Log, string, error) {
	if db.log == nil {
		return nil, "", errors.New("engine: log tailing requires a durable database (no WAL)")
	}
	if db.cfg.LogMode == LogVacuum {
		return nil, "", errors.New("engine: log tailing is unsupported in vacuum log mode (segment rewrites invalidate tail positions); use shred or plain")
	}
	data, err := os.ReadFile(filepath.Join(db.cfg.Dir, "catalog.sql"))
	if err != nil && !os.IsNotExist(err) {
		return nil, "", err
	}
	return db.log, string(data), nil
}

// ApplyReplicatedDDL brings a replica's catalog up to date with the
// leader's DDL script. catalog.sql is append-only and both sides apply
// it in order, so the replica executes exactly the statements past its
// own applied count; a replica whose catalog is longer than the
// leader's script was pointed at the wrong leader and is refused.
func (db *DB) ApplyReplicatedDDL(script string) error {
	if !db.cfg.Replica {
		return errors.New("engine: ApplyReplicatedDDL on a non-replica database")
	}
	stmts, texts, err := query.ParseScript(script)
	if err != nil {
		return fmt.Errorf("engine: leader DDL script: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.ddlApplied > len(stmts) {
		return fmt.Errorf("engine: replica has %d DDL statements but the leader script has %d — this replica was not seeded from that leader",
			db.ddlApplied, len(stmts))
	}
	for i := db.ddlApplied; i < len(stmts); i++ {
		if err := db.execDDL(stmts[i], texts[i]); err != nil {
			return fmt.Errorf("engine: replicated DDL: %w", err)
		}
	}
	return nil
}

// ApplyReplicated applies one replicated leader commit batch on a
// replica, through the same commit path local batches take: the batch
// lands in the follower's own WAL (sealed under the follower's own epoch
// keys), applies to storage and indexes, seeds the degradation queues,
// and publishes a snapshot epoch — so lock-free snapshot reads observe
// leader batches atomically. next is the position after the batch in
// the LEADER's log; a RecReplMark carrying it joins the batch, making the
// resume position durable exactly when the batch is — also when every
// record of the batch was a late copy of a transition this replica
// already made and only the mark is left. Records referencing tables
// this replica does not know yet are refused before anything is logged
// (the follower reconnects, catches up on DDL, and retries).
//
// The filter runs under mu, the commit after it: a local tick that fires
// a transition in between turns the record into a late copy that the
// monotone gates of storage and applyDegrades make a no-op, and one that
// also shreds the key the record would be sealed under fails the encode
// before anything is logged, so the follower resumes from ReplPos and the
// filter drops the record on the retry.
func (db *DB) ApplyReplicated(recs []*wal.Record, next wal.Pos) error {
	if !db.cfg.Replica {
		return errors.New("engine: ApplyReplicated on a non-replica database")
	}
	db.mu.Lock()
	batch := make([]*wal.Record, 0, len(recs)+1)
	type rowKey struct {
		table uint32
		tuple storage.TupleID
	}
	var inserted map[rowKey]bool // rows this batch itself inserts
	for _, r := range recs {
		if r.Type == wal.RecReplMark {
			continue // upstream marks address the wrong log; ours follows
		}
		tbl, err := db.cat.TableByID(r.Table)
		if err != nil {
			db.mu.Unlock()
			return fmt.Errorf("engine: replicated batch references unknown table %d (DDL behind?): %w", r.Table, err)
		}
		switch r.Type {
		case wal.RecInsert:
			if inserted == nil {
				inserted = make(map[rowKey]bool)
			}
			inserted[rowKey{r.Table, r.Tuple}] = true
		case wal.RecDegrade, wal.RecDelete:
			// This replica's clock may have fired the transition first and
			// since shredded the key the record's payload would be sealed
			// under. States only move down, so the late copy changes
			// nothing: it is not logged either.
			if !inserted[rowKey{r.Table, r.Tuple}] && db.lateCopyLocked(tbl, r) {
				continue
			}
		}
		batch = append(batch, r)
	}
	db.mu.Unlock()
	batch = append(batch, &wal.Record{Type: wal.RecReplMark, ReplSeg: next.Seg, ReplOff: next.Off})
	return db.commit(batch, replicated, nil, nil)
}

// lateCopyLocked reports whether a replicated degrade or delete record
// finds its work done here: the tuple gone, or the attribute already at
// or past the record's state. Caller holds mu.
func (db *DB) lateCopyLocked(tbl *catalog.Table, r *wal.Record) bool {
	t, err := db.mgr.Table(tbl).Get(r.Tuple)
	if err != nil {
		return errors.Is(err, storage.ErrNoTuple)
	}
	return r.Type == wal.RecDegrade && int(r.DegPos) < len(t.States) &&
		!storage.StateAdvances(t.States[r.DegPos], r.NewState)
}

// commit is the one commit path: a user transaction's batch, a
// degradation batch (a system transaction) and a replicated leader batch
// all take it. The append goes through the WAL's group committer — the
// fsync is shared with every concurrently committing batch — so the
// critical section is split into phases, and mu is never held across the
// encode or the fsync (an ephemeral database, with no log, skips phase
// 2):
//
//  1. Admission (under mu): closed/failed fences, the primary-key
//     uniqueness check, and reservation of the batch's insert PKs so a
//     concurrent same-key insert cannot pass its own check while this
//     one is between append and apply. Degrade and delete records
//     reserve nothing.
//  2. Encode and durable append (no locks): record encoding and payload
//     sealing, then wal.GroupAppend, which blocks until this batch's
//     group fsync completes.
//  3. Apply + publish (under mu): storage/index apply, epoch
//     publication — visibility strictly after durability.
//
// The whole span holds commitGate shared, so BackupPin/Checkpoint (the
// exclusive holders) never see an appended-but-unapplied batch. WAL
// order may differ from apply order only between batches that share no
// row: a user transaction holds its 2PL locks and a degradation batch
// its X row locks (and its table's IX lock) until commit returns. A
// replicated batch takes no locks; what it shares with a local
// degradation batch is a transition both make, and the monotone gates
// of storage and applyDegrades make whichever applies second a no-op, in
// either order and on replay alike.
func (db *DB) commit(recs []*wal.Record, from origin, tt *trace.T, parent *trace.S) error {
	db.commitGate.RLock()
	defer db.commitGate.RUnlock()
	// Phase 1: admission.
	db.mu.Lock()
	err := db.commitFenceLocked()
	if err == nil {
		err = db.reservePKsLocked(recs)
	}
	db.mu.Unlock()
	if err != nil {
		return err
	}

	// Phase 2: encode, durable group append.
	err = db.logBatch(recs, tt, parent)

	// Phase 3: apply + publish.
	psp := tt.Span(parent, "publish")
	db.mu.Lock()
	if err == nil {
		err = db.commitFenceLocked()
	}
	if err == nil {
		err = db.applyCommittedLocked(recs, from)
	}
	db.releasePKsLocked(recs)
	db.mu.Unlock()
	psp.End()
	return err
}

// logBatch encodes recs with the log's codec and appends them as one
// batch through the group committer, returning once the batch is
// durable. Ephemeral databases have no log: nothing to do. Traced
// commits take the timed append: the group committer hands back the
// ack's phase breakdown, recorded as pre-measured child spans under the
// append.
func (db *DB) logBatch(recs []*wal.Record, tt *trace.T, parent *trace.S) error {
	if db.log == nil {
		return nil
	}
	esp := tt.Span(parent, "wal_encode")
	payload, err := wal.EncodeRecords(nil, recs, db.codec)
	esp.End()
	if err != nil {
		return err
	}
	if tt == nil {
		_, err = db.log.GroupAppend(payload)
		return err
	}
	wsp := tt.Span(parent, "wal_append")
	wsp.Attr("bytes", strconv.Itoa(len(payload)))
	start := time.Now()
	var tm wal.GroupTiming
	_, err = db.log.GroupAppendTimed(payload, &tm)
	tt.Add(wsp, "group_enqueue", start, tm.Enqueue)
	tt.Add(wsp, "group_fsync", start.Add(tm.Enqueue), tm.Fsync)
	wsp.End()
	return err
}

// commitFenceLocked refuses commits on a closed or failed database.
func (db *DB) commitFenceLocked() error {
	if db.closed {
		return errors.New("engine: database closed")
	}
	if db.failed {
		return errors.New("engine: database failed: a committed batch did not fully apply; reopen to replay the WAL (ephemeral databases cannot recover)")
	}
	return nil
}

// pkOf returns the primary key an insert record claims, ok=false when
// its table has no primary-key index.
func (db *DB) pkOf(r *wal.Record) (tbl *catalog.Table, pk value.Value, ok bool) {
	if r.Type != wal.RecInsert {
		return nil, pk, false
	}
	tbl, err := db.cat.TableByID(r.Table)
	if err != nil || tbl.PrimaryKey < 0 {
		return nil, pk, false
	}
	if _, ok := db.indexes["pk_"+tbl.Name]; !ok {
		return nil, pk, false
	}
	return tbl, r.StableRow[tbl.PrimaryKey], true
}

// pkKey appends the reservation key of primary key pk of table tableID
// to dst: the full table id, then the key's pk-index key.
func pkKey(dst []byte, tableID uint32, pk value.Value) []byte {
	return value.AppendOrderedKey(binary.BigEndian.AppendUint32(dst, tableID), pk)
}

// reservePKsLocked is the authoritative primary-key check: every key the
// batch's inserts claim must be absent from its pk index and from the
// reservations of the batches between admission and apply, this one's
// included, so a key the batch claims twice is refused too. It reserves
// them until releasePKsLocked; on a duplicate nothing stays reserved.
// Caller holds mu.
func (db *DB) reservePKsLocked(recs []*wal.Record) error {
	var buf [64]byte
	for i, r := range recs {
		tbl, pk, ok := db.pkOf(r)
		if !ok {
			continue
		}
		key := pkKey(buf[:0], r.Table, pk)
		if db.reservedPKs == nil {
			db.reservedPKs = make(map[string]struct{}, len(recs)-i)
		}
		_, dup := db.reservedPKs[string(key)]
		if !dup {
			db.indexes["pk_"+tbl.Name].bt.Exact(key[4:], func([]storage.TupleID) { dup = true })
		}
		if dup {
			db.releasePKsLocked(recs[:i])
			return fmt.Errorf("%w: %s=%v", ErrDuplicateKey, tbl.Columns[tbl.PrimaryKey].Name, pk)
		}
		db.reservedPKs[string(key)] = struct{}{}
	}
	return nil
}

// releasePKsLocked drops the reservations of recs. Caller holds mu.
func (db *DB) releasePKsLocked(recs []*wal.Record) {
	var buf [64]byte
	for _, r := range recs {
		if _, pk, ok := db.pkOf(r); ok {
			delete(db.reservedPKs, string(pkKey(buf[:0], r.Table, pk)))
		}
	}
	if len(db.reservedPKs) == 0 {
		db.reservedPKs = nil
	}
}

// applyCommittedLocked applies a batch whose bytes are already durable
// in the WAL, then publishes its epoch. Caller holds mu.
//
// The batch's writes are stamped with a freshly allocated snapshot
// epoch; it is published (made visible to new snapshots) only after
// every record has applied, so readers observe commit batches
// atomically — except deletes, which take effect at apply: a deleted
// tuple's version chain is scrubbed immediately (deletion is
// enforcement-grade, never deferred for readers), so a racing snapshot
// can see a batch's delete before its other writes (DESIGN.md,
// Visibility rules). A mid-batch apply failure leaves its epoch
// allocated but unpublished and fences all further commits (db.failed):
// the torn writes stay invisible to snapshots — no later batch can
// publish past them. For durable databases, reopening replays the WAL,
// which completes the batch and heals the tear; an ephemeral database
// has no log to replay and stays fenced for its lifetime.
//
// Each run of the batch writes its pages back before the next run
// starts, so all of them have reached the page file before the epoch
// publishes; a failed write-back fails its run, and fences like any
// failed apply.
func (db *DB) applyCommittedLocked(recs []*wal.Record, from origin) error {
	epoch := db.epochs.Next()
	db.mgr.SetStampEpoch(epoch, db.epochs.OldestActive())
	if err := db.applyRecords(recs, from); err != nil {
		// Apply failures after a durable append are unrecoverable
		// in-process: fence commits and surface loudly.
		db.failed = true
		return fmt.Errorf("engine: apply after append: %w", err)
	}
	db.epochs.Publish(epoch)
	// With the batch published, only a snapshot already open before it
	// can still miss its writes: when none is, its births are forgotten
	// now rather than at the next commit.
	db.mgr.SetLowWater(db.epochs.OldestActive())
	return nil
}

// Checkpoint makes the page store durable and truncates (scrubs) the
// log. The exclusive commitGate drains in-flight group commits first: a
// batch appended but not yet applied would otherwise be scrubbed from
// the log before the page store captured its writes.
func (db *DB) Checkpoint() error {
	db.commitGate.Lock()
	defer db.commitGate.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.checkpointLocked()
}

func (db *DB) checkpointLocked() error {
	if err := db.mgr.Sync(); err != nil {
		return err
	}
	// The log reset destroys the RecReplMark records that carry a
	// replica's resume position; persist it to a sidecar file first so
	// reopening resumes tailing instead of starting over.
	if db.cfg.Replica && db.cfg.Dir != "" && !db.replPos.IsZero() {
		if err := writeFileSynced(filepath.Join(db.cfg.Dir, "repl.pos"),
			[]byte(db.replPos.String())); err != nil {
			return err
		}
	}
	if db.log != nil {
		if err := db.log.Reset(); err != nil {
			return err
		}
	}
	// Shredded key entries are dead weight once their zero-overwrite is
	// durable; fold them into the compaction frontier so the key file
	// tracks the live key population.
	if db.keys != nil {
		if err := db.keys.Compact(); err != nil {
			return err
		}
	}
	// The audit trail marks the checkpoint and fsyncs, so its
	// durability frontier advances with the page store's.
	return db.audit.Checkpoint()
}

// writeFileSynced atomically replaces path with data, fsyncing the file
// and its directory — the caller is about to destroy the only other
// durable copy of this information (the WAL reset scrubs the marks), so
// the sidecar must actually be on disk first.
func writeFileSynced(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// Tracer returns the database's request tracer (serves OpTraceDump and
// /debug/traces; nil-safe to use even with tracing off).
func (db *DB) Tracer() *trace.Tracer { return db.tracer }

// AuditLog returns the degradation audit trail (serves OpAuditTail and
// degradectl events).
func (db *DB) AuditLog() *trace.Audit { return db.audit }

// DegradeNow runs one degradation tick synchronously and returns the
// number of transitions executed.
func (db *DB) DegradeNow() (int, error) { return db.deg.Tick() }

// FireEvent raises an application event for event-triggered LCP states.
func (db *DB) FireEvent(name string) { db.deg.FireEvent(name) }

// RegisterPredicate binds a named predicate for predicate-gated LCP
// states. Predicates are process-local; re-register after reopening.
func (db *DB) RegisterPredicate(name string, p degrade.Predicate) {
	db.deg.RegisterPredicate(name, p)
}

// Close stops background work and closes every file. The exclusive
// commitGate drains in-flight group commits so no committer is left
// between its durable append and its apply when the files go away.
func (db *DB) Close() error {
	db.deg.Stop()
	db.commitGate.Lock()
	defer db.commitGate.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if db.log != nil {
		keep(db.log.Close())
	}
	if db.keys != nil {
		keep(db.keys.Close())
	}
	if db.ddlFile != nil {
		keep(db.ddlFile.Close())
	}
	keep(db.audit.Close())
	keep(db.mgr.Store().Close())
	return first
}

// RegisterDomain registers a programmatically built generalization
// domain, persisting its generated DDL so it survives reopen.
func (db *DB) RegisterDomain(d gentree.Domain) error {
	if db.cfg.Replica {
		return ErrReadOnlyReplica
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.cat.AddDomain(d); err != nil {
		return err
	}
	return db.persistDDL(DomainDDL(d))
}

// RegisterPolicy registers a programmatically built policy, persisting
// its generated DDL.
func (db *DB) RegisterPolicy(p *lcp.Policy) error {
	if db.cfg.Replica {
		return ErrReadOnlyReplica
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.cat.AddPolicy(p); err != nil {
		return err
	}
	return db.persistDDL(PolicyDDL(p))
}

// persistDDL appends one DDL statement to catalog.sql. It also counts
// applied DDL statements (including replayed and ephemeral ones): the
// count is the replica's cursor into the leader's append-only DDL
// script.
func (db *DB) persistDDL(stmt string) error {
	if db.ddlFile == nil || db.replaying {
		db.ddlApplied++
		return nil
	}
	if _, err := db.ddlFile.WriteString(stmt + ";\n"); err != nil {
		return err
	}
	if err := db.ddlFile.Sync(); err != nil {
		return err
	}
	db.ddlApplied++
	return nil
}

// visibleLevel returns the stored level of a tuple's degradable column:
// the policy level of its current state, or -1 when erased.
func visibleLevel(tbl *catalog.Table, t *storage.Tuple, pos int) int {
	st := t.States[pos]
	if st == storage.StateErased {
		return -1
	}
	col := tbl.DegradableColumns()[pos]
	return tbl.Columns[col].Policy.LevelOf(int(st))
}

// renderAt degrades-and-renders a stored degradable value from its
// current level to the demanded level (fk from the paper).
func renderAt(dom gentree.Domain, stored value.Value, fromLevel, toLevel int) (value.Value, error) {
	d, err := dom.Degrade(stored, fromLevel, toLevel)
	if err != nil {
		return value.Null(), err
	}
	return dom.Render(d, toLevel)
}
