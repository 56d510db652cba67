package backup

import (
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

// sealFallbackCodec seals through the database's live WAL codec, mapping
// two cases to the Lost frame instead of failing:
//
//   - payloads of erased attributes — the stored form is NULL by
//     construction and sealing it would pointlessly mint an epoch key
//     for a dead accuracy state;
//   - payloads whose epoch key was shredded between the snapshot scan
//     reading the tuple and the seal — the value crossed its LCP
//     deadline mid-backup, and recording it as irrecoverable is the
//     guarantee, not a failure.
type sealFallbackCodec struct {
	wal.Codec
	lost *metrics.Counter
	// cat and audit (both optional) let a lost seal land in the
	// degradation audit trail with the table/attribute named.
	cat   *catalog.Catalog
	audit *trace.Audit
}

// Seal implements wal.Codec.
func (c sealFallbackCodec) Seal(table uint32, col, state uint8, insertNano int64, tuple storage.TupleID, plain []byte) ([]byte, error) {
	if state == storage.StateErased {
		c.lost.Inc()
		c.lostEvent(table, col, tuple, "attribute already erased")
		return wal.LostSeal(), nil
	}
	out, err := c.Codec.Seal(table, col, state, insertNano, tuple, plain)
	if errors.Is(err, wal.ErrKeyShredded) {
		c.lost.Inc()
		c.lostEvent(table, col, tuple, "epoch key shredded mid-backup")
		return wal.LostSeal(), nil
	}
	return out, err
}

// lostEvent audits one payload sealed as permanently Lost.
func (c sealFallbackCodec) lostEvent(table uint32, col uint8, tuple storage.TupleID, why string) {
	if c.audit == nil {
		return
	}
	name, attr := fmt.Sprint(table), fmt.Sprint(col)
	if c.cat != nil {
		if tbl, err := c.cat.TableByID(table); err == nil {
			name = tbl.Name
			if deg := tbl.DegradableColumns(); int(col) < len(deg) {
				attr = tbl.Columns[deg[col]].Name
			}
		}
	}
	c.audit.Append(trace.Event{Kind: trace.EvBackupLostSeal,
		Table: name, Tuple: uint64(tuple), Attr: attr, Detail: why})
}

// instrument registers (idempotently, by name) the backup counters on
// the database's registry. Both return nil on a NoMetrics database, and
// every caller goes through the nil-safe instrument methods.
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

	codec := sealFallbackCodec{Codec: db.WALCodec(), lost: lostSeals,
		cat: db.Catalog(), audit: db.AuditLog()}
	tables := db.Catalog().Tables()
	sort.Slice(tables, func(i, j int) bool { return tables[i].ID < tables[j].ID })
	tuples := 0
	for _, tbl := range tables {
		n, err := archiveTable(db, aw, tbl, epoch, codec)
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

// archiveTable snapshot-scans one table into secRecords chunks.
func archiveTable(db *engine.DB, aw *archiveWriter, tbl *catalog.Table, epoch uint64, codec wal.Codec) (int, error) {
	ts := db.StorageManager().Table(tbl)
	degCols := tbl.DegradableColumns()
	var chunk []byte
	var ferr error
	tuples := 0
	err := ts.SnapshotScan(epoch, func(t storage.Tuple) bool {
		rec := snapshotRecord(tbl, degCols, t)
		if chunk, ferr = wal.EncodeRecords(chunk, []*wal.Record{rec}, codec); ferr != nil {
			return false
		}
		tuples++
		if len(chunk) >= chunkBytes {
			if ferr = aw.section(secRecords, chunk); ferr != nil {
				return false
			}
			chunk = chunk[:0]
		}
		return true
	})
	if err == nil {
		err = ferr
	}
	if err != nil {
		return tuples, err
	}
	if len(chunk) > 0 {
		if err := aw.section(secRecords, chunk); err != nil {
			return tuples, err
		}
	}
	return tuples, nil
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
