package backup

import (
	"crypto/cipher"
	"errors"
	"fmt"
	"io"
	"sort"

	"instantdb/internal/catalog"
	"instantdb/internal/engine"
	"instantdb/internal/metrics"
	"instantdb/internal/storage"
	"instantdb/internal/trace"
	"instantdb/internal/value"
	"instantdb/internal/wal"
)

// chunkBytes bounds the record payload accumulated per secRecords
// section (and per restored WAL batch), so neither the archive writer
// nor a later restore ever holds more than one modest chunk in memory.
const chunkBytes = 128 << 10

// lostSealCodec resolves keys through the database's live WAL codec,
// answering wal.ErrSealLost — the encoder then writes the payloads as
// lost and flags their records — in two cases instead of failing:
//
//   - payloads of erased attributes — the stored form is NULL by
//     construction and sealing it would pointlessly mint an epoch key
//     for a dead accuracy state;
//   - payloads whose epoch key was shredded between the snapshot scan
//     reading the tuple and the seal — the value crossed its LCP
//     deadline mid-backup, and recording it as irrecoverable is the
//     guarantee, not a failure.
type lostSealCodec struct{ wal.Codec }

// SealKey implements wal.Codec.
func (c lostSealCodec) SealKey(table uint32, col, state uint8, bucket int64) (cipher.Block, error) {
	if state == storage.StateErased {
		return nil, wal.ErrSealLost
	}
	block, err := c.Codec.SealKey(table, col, state, bucket)
	if errors.Is(err, wal.ErrKeyShredded) {
		return nil, wal.ErrSealLost
	}
	return block, err
}

// auditLostSeals counts and audits the payloads the encoder wrote as lost in
// one archived batch (audit, optional, names the table and attribute).
func auditLostSeals(recs []*wal.Record, tbl *catalog.Table, lost *metrics.Counter, audit *trace.Audit) {
	degCols := tbl.DegradableColumns()
	for _, r := range recs {
		for i, gone := range r.DegLost {
			if !gone {
				continue
			}
			lost.Inc()
			why := "epoch key shredded mid-backup"
			if r.States[i] == storage.StateErased {
				why = "attribute already erased"
			}
			audit.Append(trace.Event{Kind: trace.EvBackupLostSeal,
				Table: tbl.Name, Tuple: uint64(r.Tuple), Attr: tbl.Columns[degCols[i]].Name, Detail: why})
		}
	}
}

// instrument registers (idempotently, by name) the backup counters on
// the database's registry.
func instrument(db *engine.DB) (bytesArchived, lostSeals *metrics.Counter) {
	reg := db.Metrics()
	bytesArchived = reg.Counter("instantdb_backup_bytes_total",
		"Archive bytes written by completed backups (full and incremental).")
	lostSeals = reg.Counter("instantdb_backup_lost_seals_total",
		"Degradable payloads sealed as Lost during backup: already erased, or their epoch key was shredded mid-scan.")
	return bytesArchived, lostSeals
}

// Full streams a full backup of db into w: the catalog DDL script plus
// an epoch-pinned consistent snapshot of every table, with degradable
// payloads sealed as ciphertext under the database's live epoch keys.
// The scan rides the lock-free snapshot read path (storage.SnapshotScan),
// so a backup — even one draining into a slow or wedged writer — never
// takes row locks and never delays the degradation engine. The returned
// summary's End is the WAL position the next incremental backup resumes
// from.
func Full(db *engine.DB, w io.Writer) (*Summary, error) {
	bytesArchived, lostSeals := instrument(db)
	epoch, pos, release, err := db.BackupPin()
	if err != nil {
		return nil, err
	}
	defer release()
	script, err := db.CatalogScript()
	if err != nil {
		return nil, err
	}
	aw, err := newArchiveWriter(w)
	if err != nil {
		return nil, err
	}
	hdr := Header{
		Version:   FormatVersion,
		End:       pos,
		Epoch:     epoch,
		TakenNano: db.Clock().Now().UTC().UnixNano(),
	}
	if err := aw.header(hdr); err != nil {
		return nil, err
	}
	if err := aw.section(secDDL, []byte(script)); err != nil {
		return nil, err
	}

	tables := db.Catalog().Tables()
	sort.Slice(tables, func(i, j int) bool { return tables[i].ID < tables[j].ID })
	tuples := 0
	for _, tbl := range tables {
		n, err := archiveTable(db, aw, tbl, epoch, lostSeals)
		if err != nil {
			return nil, fmt.Errorf("backup: table %s: %w", tbl.Name, err)
		}
		tuples += n
	}
	if err := aw.end(tuples, 0); err != nil {
		return nil, err
	}
	bytesArchived.Add(uint64(aw.n))
	return &Summary{End: pos, Epoch: epoch, Tuples: tuples, Bytes: aw.n}, nil
}

// archiveTable snapshot-scans one table into secRecords chunks, each one
// run-encoded batch of the inserts that recreate its tuples.
func archiveTable(db *engine.DB, aw *archiveWriter, tbl *catalog.Table, epoch uint64, lost *metrics.Counter) (int, error) {
	ts := db.StorageManager().Table(tbl)
	degCols := tbl.DegradableColumns()
	codec := lostSealCodec{db.WALCodec()}
	var batch []*wal.Record
	var chunk []byte
	pending := 0 // rough encoded size of batch
	flush := func() error {
		var err error
		if chunk, err = wal.EncodeRecords(chunk[:0], batch, codec); err != nil {
			return err
		}
		auditLostSeals(batch, tbl, lost, db.AuditLog())
		batch, pending = batch[:0], 0
		return aw.section(secRecords, chunk)
	}
	var ferr error
	tuples := 0
	err := ts.SnapshotScan(epoch, func(t storage.Tuple) bool {
		batch = append(batch, snapshotRecord(tbl, degCols, t))
		pending += 4 + value.RowEncodedSize(t.Row)
		tuples++
		if pending >= chunkBytes {
			ferr = flush()
		}
		return ferr == nil
	})
	if err == nil {
		err = ferr
	}
	if err == nil && len(batch) > 0 {
		err = flush()
	}
	return tuples, err
}

// snapshotRecord synthesizes the RecInsert that recreates one tuple at
// its current accuracy states. Restoring it replays through the same
// idempotent redo path crash recovery uses, preserving tuple ids so
// later incremental batches (updates, deletes, degrades) address the
// right rows.
func snapshotRecord(tbl *catalog.Table, degCols []int, t storage.Tuple) *wal.Record {
	stable := append([]value.Value(nil), t.Row...)
	deg := make([]value.Value, len(degCols))
	for i, col := range degCols {
		deg[i] = t.Row[col]
		stable[col] = value.Null()
	}
	return &wal.Record{
		Type:       wal.RecInsert,
		Table:      tbl.ID,
		Tuple:      t.ID,
		InsertNano: t.InsertedAt.UTC().UnixNano(),
		States:     append([]uint8(nil), t.States...),
		StableRow:  stable,
		DegVals:    deg,
	}
}

// Incremental streams the WAL batches committed since from — the End
// position recorded by the previous archive in the chain — into w,
// copying each batch's record bytes verbatim so sealed payloads stay
// ciphertext under their original epoch keys. It refuses databases
// whose log cannot be tailed by position (ephemeral, vacuum log mode);
// a from position that was checkpointed away surfaces as
// wal.ErrPosGone, meaning the chain is broken and a fresh full backup
// is required.
func Incremental(db *engine.DB, from wal.Pos, w io.Writer) (*Summary, error) {
	bytesArchived, _ := instrument(db)
	log, script, err := db.ReplSource()
	if err != nil {
		return nil, err
	}
	end := log.EndPos()
	if end.Before(from) {
		return nil, fmt.Errorf("backup: from position %v is past the log end %v — is the base archive from this database?", from, end)
	}
	aw, err := newArchiveWriter(w)
	if err != nil {
		return nil, err
	}
	hdr := Header{
		Version:     FormatVersion,
		Incremental: true,
		From:        from,
		End:         end,
		TakenNano:   db.Clock().Now().UTC().UnixNano(),
	}
	if err := aw.header(hdr); err != nil {
		return nil, err
	}
	if err := aw.section(secDDL, []byte(script)); err != nil {
		return nil, err
	}
	// TailRaw reads each segment once (O(bytes), not O(bytes × batches))
	// and refuses positions that are not batch boundaries of THIS log —
	// an archive must never silently claim coverage it does not have.
	batches := 0
	err = log.TailRaw(from, end, func(payload []byte, _ wal.Pos) error {
		if err := aw.section(secBatch, payload); err != nil {
			return err
		}
		batches++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("backup: tail %v..%v — is the base archive from this database? %w", from, end, err)
	}
	if err := aw.end(0, batches); err != nil {
		return nil, err
	}
	bytesArchived.Add(uint64(aw.n))
	return &Summary{Incremental: true, From: from, End: end, Batches: batches, Bytes: aw.n}, nil
}
