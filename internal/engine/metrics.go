package engine

import (
	"instantdb/internal/index"
	"instantdb/internal/metrics"
)

// dbMetrics holds the engine-layer instruments.
type dbMetrics struct {
	// queries / writes count statements by session purpose (the paper's
	// purpose-binding made observable: which purposes actually read).
	queries *metrics.CounterVec
	writes  *metrics.CounterVec
	// snapshotReads vs lockedReads split SELECT executions between the
	// lock-free snapshot path and the 2PL LockS path — the ratio that
	// decides whether readers can ever delay a degradation batch.
	snapshotReads *metrics.Counter
	lockedReads   *metrics.Counter
	activeTxns    *metrics.Gauge
	keysShredded  *metrics.Counter
}

// initMetrics registers the engine's instruments and collect-time views
// of subsystem state.
func (db *DB) initMetrics(reg *metrics.Registry) {
	db.met = dbMetrics{
		queries: reg.CounterVec("instantdb_queries_total",
			"SELECT statements executed, by session purpose.", "purpose"),
		writes: reg.CounterVec("instantdb_writes_total",
			"Write statements (INSERT/UPDATE/DELETE) executed, by session purpose.", "purpose"),
		snapshotReads: reg.Counter("instantdb_snapshot_reads_total",
			"SELECTs served from a lock-free versioned snapshot."),
		lockedReads: reg.Counter("instantdb_locked_reads_total",
			"SELECTs served under 2PL shared locks (inside read-write transactions)."),
		activeTxns: reg.Gauge("instantdb_active_txns",
			"Transactions currently open, including autocommit wrappers in flight."),
		keysShredded: reg.Counter("instantdb_wal_keys_shredded_total",
			"Epoch keys destroyed by the shred scrubber as deadlines passed."),
	}
	reg.CounterFunc("instantdb_storage_version_prunes_total",
		"Superseded row versions pruned from MVCC version chains.",
		func() float64 { return float64(db.mgr.PrunedVersions()) })
	reg.CounterFunc("instantdb_storage_page_reads_total",
		"Heap page reads issued to the page store (a commit batch reads each page it touches once).",
		func() float64 { r, _ := db.mgr.PageIO(); return float64(r) })
	reg.CounterFunc("instantdb_storage_page_writes_total",
		"Heap page writes issued to the page store (a commit batch writes each page it dirties once).",
		func() float64 { _, w := db.mgr.PageIO(); return float64(w) })
	reg.CounterFunc("instantdb_storage_torn_moves_healed_total",
		"Degradation moves torn by a crash that recovery found with both copies in the page file and settled on the copy no finer in any position.",
		func() float64 { return float64(len(db.mgr.HealedMoves())) })
	reg.CounterFunc("instantdb_audit_events_total",
		"Events appended to the degradation audit trail since open.",
		func() float64 { n, _ := db.audit.Written(); return float64(n) })
	reg.CounterFunc("instantdb_audit_bytes_total",
		"Bytes written to the audit trail's segments since open, block frames and segment headers both.",
		func() float64 { _, b := db.audit.Written(); return float64(b) })
	// Which structure holds the memory: read from counters each one keeps
	// (B+tree indexes only; bitmap and GT indexes keep none).
	btreeStats := func(emit func(string, float64), pick func(index.Stats) int) {
		db.idxMu.RLock()
		defer db.idxMu.RUnlock()
		for name, inst := range db.indexes {
			if inst.bt != nil {
				emit(name, float64(pick(inst.bt.Stats())))
			}
		}
	}
	reg.GaugeFuncVec("instantdb_index_entries",
		"Live (key, tuple id) entries per B+tree index.", "index",
		func(emit func(string, float64)) {
			btreeStats(emit, func(s index.Stats) int { return s.Entries })
		})
	reg.GaugeFuncVec("instantdb_index_bytes",
		"Heap held per B+tree index: nodes, key and id arenas, and spilled postings.", "index",
		func(emit func(string, float64)) {
			btreeStats(emit, func(s index.Stats) int { return s.Bytes })
		})
	reg.GaugeFuncVec("instantdb_storage_directory_bytes",
		"Heap held by each table's tuple directory (location of every live tuple) and by the birth epochs of its young tuples (those written after a snapshot that may still be open).", "table",
		func(emit func(string, float64)) {
			for _, tbl := range db.cat.Tables() {
				emit(tbl.Name, float64(db.mgr.Table(tbl).Stats().DirectoryBytes))
			}
		})
	if db.log != nil {
		reg.GaugeFunc("instantdb_wal_size_bytes",
			"Total WAL size on disk across all segments.",
			func() float64 { return float64(db.log.SizeBytes()) })
		reg.GaugeFunc("instantdb_wal_segments",
			"WAL segment files on disk, including the active one.",
			func() float64 { return float64(db.log.SegmentCount()) })
	}
	if db.keys != nil {
		reg.GaugeFunc("instantdb_keystore_live_keys",
			"Epoch keys still intact in the key store (not yet shredded).",
			func() float64 { return float64(db.keys.LiveKeys()) })
	}
	db.deg.Instrument(reg)
	metrics.InstrumentBuildInfo(reg)
}

// Metrics returns the database's metrics registry: every subsystem
// (WAL, degradation engine, storage, sessions) registers its
// instruments here, and the server layers expose it over /metrics and
// the wire Stats opcode.
func (db *DB) Metrics() *metrics.Registry { return db.reg }
