// Package experiments implements the reproduction harness: one runnable
// experiment per figure and per claim of the paper, plus the engineering
// ablations of §III (storage, log, index, transaction, recovery). Every
// experiment prints the table or series it regenerates and its tests
// assert the outcome; cmd/benchrunner drives them all. System
// performance is measured by the separate harness in bench/ (see
// bench/README.md). Simulated time makes month-scale policies run in
// milliseconds.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"instantdb/internal/engine"
	"instantdb/internal/gentree"
	"instantdb/internal/lcp"
	"instantdb/internal/storage"
	"instantdb/internal/vclock"
	"instantdb/internal/workload"
)

// SimPolicyDelays are the per-level retentions used by simulation
// policies: the paper's Figure 2 shape with a non-degenerate accurate
// window (15 minutes instead of the figure's 0 minutes) so the accurate
// state is observable.
var SimPolicyDelays = []time.Duration{
	15 * time.Minute,
	time.Hour,
	24 * time.Hour,
	30 * 24 * time.Hour,
}

// Env is a ready-to-use engine instance over a synthetic location
// universe on a simulated clock.
type Env struct {
	DB    *engine.DB
	Clock *vclock.Simulated
	Uni   *workload.LocationUniverse
	Sal   *gentree.IntRange
	Gen   *workload.PersonGen
	// LocPolicy is the Figure 2-shaped policy installed on the location
	// column.
	LocPolicy *lcp.Policy
}

// EnvOptions tunes NewEnv.
type EnvOptions struct {
	// Countries×Regions×Cities×Addresses shape the location universe
	// (default 3×3×4×10 = 360 addresses).
	Countries, Regions, Cities, Addresses int
	// Layout is the CREATE TABLE layout clause ("MOVE" default).
	Layout string
	// Index adds one location index ("", "BTREE", "BITMAP", "GT") and,
	// when set, a salary BTREE index.
	Index string
	// Dir makes the database durable (empty = ephemeral).
	Dir string
	// LogMode applies when Dir is set.
	LogMode engine.LogMode
	// DegradeBatch overrides the degradation batch size.
	DegradeBatch int
	// Seed for the person generator.
	Seed int64
}

func (o EnvOptions) withDefaults() EnvOptions {
	if o.Countries == 0 {
		o.Countries = 3
	}
	if o.Regions == 0 {
		o.Regions = 3
	}
	if o.Cities == 0 {
		o.Cities = 4
	}
	if o.Addresses == 0 {
		o.Addresses = 10
	}
	if o.Layout == "" {
		o.Layout = "MOVE"
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// NewEnv builds the environment: location+salary domains, Figure 2-shaped
// policies, the person table, and the paper's stat purpose.
func NewEnv(opts EnvOptions) (*Env, error) {
	opts = opts.withDefaults()
	clock := vclock.NewSimulated(vclock.Epoch)
	cfg := engine.Config{Clock: clock, Dir: opts.Dir, LogMode: opts.LogMode}
	cfg.Degrade.BatchSize = opts.DegradeBatch
	db, err := engine.Open(cfg)
	if err != nil {
		return nil, err
	}
	uni := workload.NewLocationUniverse(opts.Countries, opts.Regions, opts.Cities, opts.Addresses)
	if err := db.RegisterDomain(uni.Tree); err != nil {
		return nil, err
	}
	sal := gentree.Figure2Salary()
	if err := db.RegisterDomain(sal); err != nil {
		return nil, err
	}
	locPol := lcp.NewBuilder("locpol", uni.Tree).
		Hold(0, SimPolicyDelays[0]).
		Hold(1, SimPolicyDelays[1]).
		Hold(2, SimPolicyDelays[2]).
		Hold(3, SimPolicyDelays[3]).
		ThenDelete().
		MustBuild()
	if err := db.RegisterPolicy(locPol); err != nil {
		return nil, err
	}
	salPol := lcp.NewBuilder("salpol", sal).
		Hold(0, 12*time.Hour).
		Hold(2, 7*24*time.Hour).
		ThenSuppress().
		MustBuild()
	if err := db.RegisterPolicy(salPol); err != nil {
		return nil, err
	}
	script := fmt.Sprintf(`
CREATE TABLE person (
  id INT PRIMARY KEY,
  name TEXT NOT NULL,
  location TEXT DEGRADABLE DOMAIN location POLICY locpol,
  salary INT DEGRADABLE DOMAIN salary POLICY salpol
) LAYOUT %s;
DECLARE PURPOSE stat SET ACCURACY LEVEL country FOR person.location,
  range1000 FOR person.salary;
DECLARE PURPOSE cities SET ACCURACY LEVEL city FOR person.location,
  range1000 FOR person.salary;
DECLARE PURPOSE regions SET ACCURACY LEVEL region FOR person.location,
  range1000 FOR person.salary;
`, opts.Layout)
	if err := db.ExecScript(script); err != nil {
		return nil, err
	}
	switch opts.Index {
	case "":
	case "BTREE", "BITMAP", "GT":
		if err := db.ExecScript(fmt.Sprintf(
			"CREATE INDEX ix_loc ON person (location) USING %s;"+
				"CREATE INDEX ix_sal ON person (salary) USING BTREE;", opts.Index)); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("experiments: unknown index kind %q", opts.Index)
	}
	return &Env{
		DB:        db,
		Clock:     clock,
		Uni:       uni,
		Sal:       sal,
		Gen:       workload.NewPersonGen(opts.Seed, uni, vclock.Epoch),
		LocPolicy: locPol,
	}, nil
}

// Close shuts the environment down.
func (e *Env) Close() { e.DB.Close() } //nolint:errcheck

// IDOffset displaces person ids away from the small-integer range of
// generalization-tree node ids, so a forensic needle for an encoded node
// id can never coincide with an encoded primary key.
const IDOffset = 10_000_000

// Load inserts n generated people through SQL, advancing the simulated
// clock by the generator's interarrival per row, in multi-row batches.
func (e *Env) Load(n int) error {
	const batch = 200
	for done := 0; done < n; {
		take := batch
		if n-done < take {
			take = n - done
		}
		var sb strings.Builder
		sb.WriteString("INSERT INTO person (id, name, location, salary) VALUES ")
		for i := 0; i < take; i++ {
			p := e.Gen.Next()
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, '%s', '%s', %d)", p.ID+IDOffset, p.Name, p.Address, p.Salary)
		}
		// Advance the clock so arrivals spread over simulated time.
		e.Clock.Advance(time.Duration(take) * e.Gen.Interarrival)
		if _, err := e.DB.Exec(sb.String()); err != nil {
			return err
		}
		done += take
	}
	return nil
}

// AdvanceAndTick moves simulated time forward and runs the degrader to
// completion at the new instant, returning the number of transitions.
func (e *Env) AdvanceAndTick(d time.Duration) (int, error) {
	e.Clock.Advance(d)
	return e.DB.DegradeNow()
}

// LevelHistogram scans the person table and counts tuples per location
// LCP state (StateErased for suppressed attributes).
func (e *Env) LevelHistogram() (map[int]int, error) {
	tbl, err := e.DB.Catalog().Table("person")
	if err != nil {
		return nil, err
	}
	ts := e.DB.StorageManager().Table(tbl)
	hist := make(map[int]int)
	err = ts.Scan(func(t storage.Tuple) bool {
		st := t.States[0]
		if st == storage.StateErased {
			hist[-1]++
		} else {
			hist[e.LocPolicy.LevelOf(int(st))]++
		}
		return true
	})
	return hist, err
}

// ArrivalTimes lists insert timestamps of live person tuples.
func (e *Env) ArrivalTimes() ([]time.Time, error) {
	tbl, err := e.DB.Catalog().Table("person")
	if err != nil {
		return nil, err
	}
	ts := e.DB.StorageManager().Table(tbl)
	var out []time.Time
	err = ts.Scan(func(t storage.Tuple) bool {
		out = append(out, t.InsertedAt)
		return true
	})
	return out, err
}
