package engine

import (
	"fmt"
	"time"

	"instantdb/internal/catalog"
	"instantdb/internal/storage"
	"instantdb/internal/trace"
	"instantdb/internal/value"
	"instantdb/internal/wal"
)

// shredScrubber destroys epoch keys once no tuple needs them (LogShred).
// Key scope is (table, column position, LCP state, insert-time bucket);
// a key dies at the first tick after every tuple it covers has passed
// the transition out of that state — making every log copy of those
// values undecipherable.
type shredScrubber struct{ db *DB }

// Retire implements degrade.Scrubber.
func (s *shredScrubber) Retire(tbl *catalog.Table, degPos int, state uint8, cutoff time.Time) error {
	if s.db.keys == nil {
		return nil
	}
	// The key bucket must be entirely before the cutoff; Shred checks
	// bucket_end <= cutoff, so passing the cutoff directly is exact.
	n, err := s.db.keys.Shred(tbl.ID, uint8(degPos), state, cutoff, s.db.cfg.ShredBucket)
	s.db.met.keysShredded.Add(uint64(n))
	if n > 0 {
		// Key destruction is the moment expired log/backup ciphertext
		// becomes permanently unreadable — exactly what the trail proves.
		s.db.audit.Append(trace.Event{Kind: trace.EvKeyShredded,
			UnixNano: s.db.clock.Now().UTC().UnixNano(),
			Table:    tbl.Name, Attr: tbl.Columns[tbl.DegradableColumns()[degPos]].Name,
			Detail: fmt.Sprintf("%d epoch keys (state %d, cutoff %s)", n, state,
				cutoff.UTC().Format(time.RFC3339))})
	}
	return err
}

// Periodic implements degrade.Scrubber (nothing periodic to do).
func (s *shredScrubber) Periodic(time.Time) error { return nil }

// vacuumEvery is how often LogVacuum mode rewrites the sealed log
// segments at most.
const vacuumEvery = time.Hour

// vacuumScrubber rewrites sealed log segments periodically, NULLing
// degradable payloads that are more accurate than the tuple's current
// state (or that belong to deleted tuples). This is the classic
// log-cleaning alternative ablated against key shredding in B-LOG.
type vacuumScrubber struct{ db *DB }

// Retire implements degrade.Scrubber: vacuum is purely periodic.
func (v *vacuumScrubber) Retire(*catalog.Table, int, uint8, time.Time) error { return nil }

// Periodic implements degrade.Scrubber.
func (v *vacuumScrubber) Periodic(now time.Time) error {
	db := v.db
	if db.log == nil {
		return nil
	}
	db.mu.Lock()
	if now.Sub(db.lastVac) < vacuumEvery {
		db.mu.Unlock()
		return nil
	}
	db.lastVac = now
	db.mu.Unlock()
	return db.VacuumLog()
}

// VacuumLog rotates the active segment and rewrites every sealed one,
// removing payloads that outlived their accuracy state. Exposed for
// tools and experiments; LogVacuum mode calls it periodically.
func (db *DB) VacuumLog() error {
	if db.log == nil {
		return nil
	}
	if err := db.log.Rotate(); err != nil {
		return err
	}
	return db.log.Vacuum(func(r *wal.Record) {
		tbl, err := db.cat.TableByID(r.Table)
		if err != nil {
			return
		}
		ts := db.mgr.Table(tbl)
		switch r.Type {
		case wal.RecInsert:
			cur, err := ts.Get(r.Tuple)
			for i := range r.DegVals {
				if r.DegLost[i] {
					continue
				}
				// Drop the payload if the tuple is gone or has left the
				// state recorded here.
				if err != nil || int(r.States[i]) < int(cur.States[i]) ||
					cur.States[i] == storage.StateErased {
					r.DegVals[i] = value.Null()
					r.DegLost[i] = true
				}
			}
		case wal.RecDegrade:
			if r.NewLost || r.NewState == storage.StateErased {
				return // already NULL
			}
			cur, err := ts.Get(r.Tuple)
			if err != nil || cur.States[r.DegPos] == storage.StateErased ||
				cur.States[r.DegPos] > r.NewState {
				r.NewStored = value.Null()
				r.NewLost = true
			}
		}
	})
}
