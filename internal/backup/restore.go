package backup

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"instantdb/internal/catalog"
	"instantdb/internal/storage"
	"instantdb/internal/trace"
	"instantdb/internal/value"
	"instantdb/internal/wal"
)

// RestoreOptions configures Restore.
type RestoreOptions struct {
	// Dir is the database directory to create. It must not exist:
	// restore builds the whole directory in a temporary sibling and
	// promotes it with one atomic rename, so a crash mid-restore leaves
	// the target untouched and a retry starts clean.
	Dir string
	// KeysPath optionally names an epoch-key file (keys.db) to install
	// in the restored directory — normally the live database's key
	// store, the only place the keys exist. Payloads whose key is absent
	// or shredded restore as Lost and their attributes are erased; with
	// no key file at all, every sealed payload restores that way (stable
	// columns always survive).
	KeysPath string

	// crashBeforePromote aborts after the temporary directory is fully
	// built and synced but before the atomic rename — the
	// crash-mid-restore test hook.
	crashBeforePromote bool
}

// RestoreSummary reports one completed restore.
type RestoreSummary struct {
	// Tuples and Batches count restored snapshot tuples and raw WAL
	// batches.
	Tuples, Batches int
	// Lost counts sealed payloads that could not be opened (epoch key
	// shredded or absent) — the retroactively degraded material.
	Lost int
	// Erased counts attributes the lost fixup erased because their
	// final archived form was irrecoverable.
	Erased int
	// End is the source log position the restored directory corresponds
	// to; Epoch is the base archive's pinned snapshot epoch.
	End   wal.Pos
	Epoch uint64
}

// errCrashHook marks the deliberate abort of the crash test hook.
var errCrashHook = errors.New("backup: aborted before promote (crash hook)")

// fixupBatch is the number of synthesized erasures per restored WAL
// batch (each is a dozen bytes encoded).
const fixupBatch = 8192

// attrKey identifies one degradable attribute of one tuple.
type attrKey struct {
	table uint32
	tuple storage.TupleID
	attr  uint8
}

// attrTrack is the last archived form of one attribute: what state it
// reached and whether that form's payload was recoverable.
type attrTrack struct {
	insertNano int64
	lost       bool
}

// Restore rebuilds a database directory from a base (full) archive plus
// any chain of incrementals, in order. The directory is assembled as
// catalog.sql + keys.db + a WAL holding the archived material verbatim,
// then promoted atomically; opening it replays the log through the
// engine's normal recovery path, which also reseeds the degradation
// queues — deadlines that passed while the backup sat archived fire on
// the restored database's own clock at its first tick, the same
// autonomous-clock rule replicas follow.
//
// Payloads whose epoch key was shredded (or never provided) open as
// Lost; since every more accurate form of such an attribute is equally
// unrecoverable and coarser forms are derivable only from finer ones,
// the attribute is erased — a final synthesized degrade-to-erased batch
// makes that durable, so the restored store, indexes and queries all
// agree the accuracy state is gone.
func Restore(opts RestoreOptions, archives ...io.Reader) (*RestoreSummary, error) {
	if opts.Dir == "" {
		return nil, errors.New("backup: restore target directory required")
	}
	if len(archives) == 0 {
		return nil, errors.New("backup: at least one archive required")
	}
	if _, err := os.Stat(opts.Dir); err == nil {
		return nil, fmt.Errorf("backup: restore target %s already exists", opts.Dir)
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	tmp := opts.Dir + ".restore-tmp"
	// A previous attempt may have crashed between build and promote;
	// its leftovers are incomplete by definition and are discarded.
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmp, 0o700); err != nil {
		return nil, err
	}
	keep := false
	defer func() {
		if !keep {
			os.RemoveAll(tmp)
		}
	}()

	sum, err := buildRestoreDir(tmp, opts.KeysPath, archives)
	if err != nil {
		return nil, err
	}
	if opts.crashBeforePromote {
		keep = true // simulate the kill: the temp dir stays behind
		return nil, errCrashHook
	}
	if err := os.Rename(tmp, opts.Dir); err != nil {
		return nil, err
	}
	keep = true
	if err := syncDir(filepath.Dir(opts.Dir)); err != nil {
		return nil, err
	}
	return sum, nil
}

// buildRestoreDir assembles the restored database under dir (the
// temporary directory) and fsyncs everything.
func buildRestoreDir(dir, keysPath string, archives []io.Reader) (*RestoreSummary, error) {
	keysDst := filepath.Join(dir, "keys.db")
	if keysPath != "" {
		if err := copyFileSynced(keysPath, keysDst); err != nil {
			return nil, fmt.Errorf("backup: install key store: %w", err)
		}
	}
	ks, err := wal.OpenKeyStore(keysDst)
	if err != nil {
		return nil, err
	}
	defer ks.Close()
	// Decode-side codec: every run header names its key bucket, so the
	// width only matters for future seals, which use the restored
	// database's own configuration.
	codec := wal.NewShredCodec(ks, time.Hour)
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Codec: codec, Sync: false})
	if err != nil {
		return nil, err
	}
	defer log.Close()

	sum := &RestoreSummary{}
	attrs := make(map[attrKey]attrTrack)
	var ddl string
	var prevEnd wal.Pos
	for i, r := range archives {
		ar, err := newArchiveReader(r)
		if err != nil {
			return nil, fmt.Errorf("backup: archive %d: %w", i, err)
		}
		hdr, err := ar.header()
		if err != nil {
			return nil, fmt.Errorf("backup: archive %d: %w", i, err)
		}
		if i == 0 {
			if hdr.Incremental {
				return nil, errors.New("backup: the first archive must be a full backup")
			}
			sum.Epoch = hdr.Epoch
		} else {
			if !hdr.Incremental {
				return nil, fmt.Errorf("backup: archive %d is a full backup; only the first may be", i)
			}
			if hdr.From != prevEnd {
				return nil, fmt.Errorf("backup: archive %d resumes at %v but the previous archive ends at %v — the chain is broken",
					i, hdr.From, prevEnd)
			}
		}
		prevEnd = hdr.End
		if err := applyArchive(ar, log, codec, attrs, sum, &ddl); err != nil {
			return nil, fmt.Errorf("backup: archive %d: %w", i, err)
		}
	}
	sum.End = prevEnd

	// The restored directory starts its own audit trail (fresh chain):
	// every Lost payload served during restore is recorded before the
	// database ever opens, so the evidence precedes the data.
	aud, err := trace.OpenAudit(filepath.Join(dir, "audit"))
	if err != nil {
		return nil, err
	}
	if err := appendLostFixups(log, codec, attrs, sum, aud); err != nil {
		aud.Close()
		return nil, err
	}
	if err := aud.Close(); err != nil {
		return nil, err
	}
	if err := writeFileSynced(filepath.Join(dir, "catalog.sql"), []byte(ddl)); err != nil {
		return nil, err
	}
	if err := log.Close(); err != nil {
		return nil, err
	}
	if err := ks.Close(); err != nil {
		return nil, err
	}
	if err := syncDir(filepath.Join(dir, "wal")); err != nil {
		return nil, err
	}
	return sum, syncDir(dir)
}

// applyArchive copies one archive's sections into the restored WAL,
// tracking each degradable attribute's final recoverability.
func applyArchive(ar *archiveReader, log *wal.Log, codec wal.Codec,
	attrs map[attrKey]attrTrack, sum *RestoreSummary, ddl *string) error {
	for {
		kind, payload, err := ar.next()
		if err != nil {
			return err
		}
		switch kind {
		case secEnd:
			return nil
		case secDDL:
			*ddl = string(payload)
		case secRecords, secBatch:
			recs, err := wal.DecodeRecords(payload, codec)
			if err != nil {
				return fmt.Errorf("decode records: %w", err)
			}
			trackRecords(recs, attrs, sum, kind == secRecords)
			if _, err := log.GroupAppend(payload); err != nil {
				return err
			}
			if kind == secBatch {
				sum.Batches++
			}
		case secHeader:
			return errors.New("duplicate header section")
		default:
			return fmt.Errorf("unknown section kind %d", kind)
		}
	}
}

// trackRecords folds one record sequence into the per-attribute
// recoverability map: an attribute is ultimately lost when the LAST
// record shaping it carried an unopenable payload — an earlier lost
// insert superseded by a live degrade record is fine, and a delete
// clears the tuple entirely.
func trackRecords(recs []*wal.Record, attrs map[attrKey]attrTrack, sum *RestoreSummary, snapshot bool) {
	for _, r := range recs {
		switch r.Type {
		case wal.RecInsert:
			if snapshot {
				sum.Tuples++
			}
			for i := range r.DegVals {
				if i < len(r.States) && r.States[i] == storage.StateErased {
					continue // already erased; nothing to fix up
				}
				lost := i < len(r.DegLost) && r.DegLost[i]
				if lost {
					sum.Lost++
				}
				attrs[attrKey{r.Table, r.Tuple, uint8(i)}] = attrTrack{insertNano: r.InsertNano, lost: lost}
			}
		case wal.RecDegrade:
			k := attrKey{r.Table, r.Tuple, r.DegPos}
			if r.NewState == storage.StateErased {
				delete(attrs, k) // erased on the source; no fixup needed
				continue
			}
			if r.NewLost {
				sum.Lost++
			}
			attrs[k] = attrTrack{insertNano: r.InsertNano, lost: r.NewLost}
		case wal.RecDelete:
			for a := 0; a < catalog.MaxDegradableColumns; a++ {
				delete(attrs, attrKey{r.Table, r.Tuple, uint8(a)})
			}
		}
	}
}

// appendLostFixups durably erases every attribute whose final archived
// form was irrecoverable, as one or more synthesized degrade-to-erased
// batches at the end of the restored WAL. Replay applies them through
// the monotone storage gate, so they can never regress an attribute a
// later record advanced.
func appendLostFixups(log *wal.Log, codec wal.Codec, attrs map[attrKey]attrTrack, sum *RestoreSummary, aud *trace.Audit) error {
	var keys []attrKey
	for k, t := range attrs {
		if t.lost {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		// Attribute before tuple: erasures of one column form one run.
		if a.table != b.table {
			return a.table < b.table
		}
		if a.attr != b.attr {
			return a.attr < b.attr
		}
		return a.tuple < b.tuple
	})
	// The erased form carries no value: the records are written as lost,
	// so no key is looked up (or minted) for them.
	flush := func(batch []*wal.Record) error {
		payload, err := wal.EncodeRecords(nil, batch, codec)
		if err != nil {
			return err
		}
		_, err = log.GroupAppend(payload)
		return err
	}
	var batch []*wal.Record
	for _, k := range keys {
		batch = append(batch, &wal.Record{
			Type:       wal.RecDegrade,
			Table:      k.table,
			Tuple:      k.tuple,
			InsertNano: attrs[k].insertNano,
			DegPos:     k.attr,
			NewState:   storage.StateErased,
			NewStored:  value.Null(),
			NewLost:    true,
		})
		sum.Erased++
		aud.Append(trace.Event{Kind: trace.EvLostServed,
			Table: fmt.Sprint(k.table), Tuple: uint64(k.tuple), Attr: fmt.Sprint(k.attr),
			Detail: "archived payload irrecoverable (epoch key gone); attribute erased on restore"})
		if len(batch) == fixupBatch {
			if err := flush(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	return flush(batch)
}

// copyFileSynced copies src to dst and fsyncs dst.
func copyFileSynced(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// writeFileSynced writes data to path and fsyncs it.
func writeFileSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
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
	return f.Close()
}

// syncDir fsyncs a directory so its entries are durable before a
// dependent rename.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
