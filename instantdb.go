// Package instantdb is a Go reproduction of "InstantDB: Enforcing Timely
// Degradation of Sensitive Data" (Anciaux, Bouganim, van Heerde,
// Pucheral, Apers — ICDE 2008): an embedded relational database whose
// storage, logging, indexing, locking and query layers enforce Life
// Cycle Policies — sensitive attributes degrade irreversibly through the
// levels of a generalization tree on a fixed schedule, until suppression
// or tuple removal, with every expired accuracy state physically
// unrecoverable from the data store, the indexes and the log.
//
// Quick start:
//
//	db, err := instantdb.Open(instantdb.Config{Dir: "demo.db"})
//	...
//	db.MustExec(`CREATE DOMAIN location TREE LEVELS (address, city, region, country)
//	    PATH ('Dam 1', 'Amsterdam', 'Noord-Holland', 'Netherlands')`)
//	db.MustExec(`CREATE POLICY locpol ON location (
//	    HOLD address FOR '15m', HOLD city FOR '1h',
//	    HOLD region FOR '1d',  HOLD country FOR '1mo') THEN DELETE`)
//	db.MustExec(`CREATE TABLE visits (id INT PRIMARY KEY,
//	    place TEXT DEGRADABLE DOMAIN location POLICY locpol)`)
//	db.MustExec(`INSERT INTO visits (id, place) VALUES (1, 'Dam 1')`)
//	db.MustExec(`DECLARE PURPOSE stats SET ACCURACY LEVEL country FOR visits.place`)
//	conn := db.NewConn()
//	_ = conn.SetPurpose("stats")
//	res, err := conn.Exec(`SELECT place FROM visits`)
//
// Statements bind typed arguments to `?` placeholders — one-shot via
// variadic Exec, or parsed once and re-executed via Prepare, the fast
// path for repetitive workloads (values never pass through SQL text, so
// no quoting and no injection):
//
//	_, err = conn.Exec(`INSERT INTO visits (id, place) VALUES (?, ?)`,
//	    instantdb.Int(2), instantdb.Text("Coolsingel 40"))
//	stmt, err := conn.Prepare(`SELECT place FROM visits WHERE id = ?`)
//	...
//	rows, err := stmt.Query(instantdb.Int(2))
//
// Explicit BEGIN ... COMMIT transactions isolate under strict two-phase
// locking. Autocommit SELECTs and BEGIN READ ONLY transactions instead
// read versioned snapshots with no locks at all, so table scans and the
// background degradation engine never delay each other; degradation
// deadlines crossing mid-snapshot remain visible, because expired
// accuracy states are never readable (DESIGN.md, "Concurrency &
// snapshots").
//
// The database also runs as a network service: cmd/instantdb-server
// serves it over TCP and the client package (instantdb/client) is the
// matching pure-Go driver, giving every remote connection its own
// purpose-scoped session with the same Exec/Prepare API. The sqldriver
// package wraps that client as a database/sql driver, so standard Go
// applications can `sql.Open("instantdb", "host:port?purpose=stats")`.
//
// See DESIGN.md for the architecture. cmd/benchrunner reproduces the
// paper's figures and claims as printed tables; bench/README.md
// describes the performance harness.
package instantdb

import (
	"instantdb/internal/engine"
	"instantdb/internal/gentree"
	"instantdb/internal/lcp"
	"instantdb/internal/query"
	"instantdb/internal/storage"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
)

// Core database types.
type (
	// DB is an open InstantDB database.
	DB = engine.DB
	// Config tunes Open. The zero value opens an ephemeral in-memory
	// database.
	Config = engine.Config
	// Conn is a session carrying a purpose and optional transaction.
	Conn = engine.Conn
	// Stmt is a prepared statement bound to a Conn (Conn.Prepare).
	Stmt = engine.Stmt
	// Result reports one statement's outcome.
	Result = engine.Result
	// Rows is a materialized query result.
	Rows = engine.Rows
	// LogMode selects the log-degradation strategy.
	LogMode = engine.LogMode
	// TupleID identifies a tuple within its table.
	TupleID = storage.TupleID
	// Value is a typed SQL scalar.
	Value = value.Value
)

// Log-degradation strategies.
const (
	// LogNone disables the WAL (ephemeral databases).
	LogNone = engine.LogNone
	// LogPlain stores payloads verbatim (leaky baseline).
	LogPlain = engine.LogPlain
	// LogShred encrypts degradable payloads under destroyable epoch keys
	// (default for durable databases).
	LogShred = engine.LogShred
	// LogVacuum periodically rewrites log segments.
	LogVacuum = engine.LogVacuum
)

// Open opens (or creates) a database.
func Open(cfg Config) (*DB, error) { return engine.Open(cfg) }

// ParseLogMode parses a log-mode name ("none", "shred", "plain",
// "vacuum").
func ParseLogMode(s string) (LogMode, error) { return engine.ParseLogMode(s) }

// Value constructors, re-exported for programmatic rows and results.
var (
	// Int builds an integer value.
	Int = value.Int
	// Float builds a float value.
	Float = value.Float
	// Text builds a text value.
	Text = value.Text
	// Bool builds a boolean value.
	Bool = value.Bool
	// Time builds a timestamp value.
	Time = value.Time
	// Null builds the NULL value.
	Null = value.Null
)

// Generalization-domain construction (Figure 1 of the paper).
type (
	// Domain is a generalization hierarchy.
	Domain = gentree.Domain
	// Tree is an explicit generalization tree.
	Tree = gentree.Tree
	// TreeBuilder assembles a Tree from leaf-to-root paths.
	TreeBuilder = gentree.TreeBuilder
	// IntRange is a numeric bucketing domain.
	IntRange = gentree.IntRange
	// TimeTrunc is a timestamp truncation domain.
	TimeTrunc = gentree.TimeTrunc
)

var (
	// NewTreeBuilder starts a tree domain.
	NewTreeBuilder = gentree.NewTreeBuilder
	// NewIntRange builds a numeric range domain.
	NewIntRange = gentree.NewIntRange
	// NewTimeTrunc builds a time truncation domain.
	NewTimeTrunc = gentree.NewTimeTrunc
	// Figure1Locations builds the paper's Figure 1 location tree.
	Figure1Locations = gentree.Figure1Locations
	// Figure2Salary builds the paper's salary range domain.
	Figure2Salary = gentree.Figure2Salary
)

// Life cycle policy construction (Figure 2 of the paper).
type (
	// Policy is an attribute LCP automaton.
	Policy = lcp.Policy
	// PolicyBuilder assembles a Policy.
	PolicyBuilder = lcp.Builder
	// TupleLCP is the product automaton over a table's policies.
	TupleLCP = lcp.TupleLCP
)

var (
	// NewPolicy starts a policy over a domain.
	NewPolicy = lcp.NewBuilder
	// Figure2Policy builds the paper's Figure 2 location policy.
	Figure2Policy = lcp.Figure2
)

// Simulated time for tests and experiments.
type (
	// Clock is the engine's time source.
	Clock = vclock.Clock
	// SimClock is a manually advanced clock.
	SimClock = vclock.Simulated
)

var (
	// NewSimClock builds a simulated clock.
	NewSimClock = vclock.NewSimulated
	// Epoch is the fixed simulation origin.
	Epoch = vclock.Epoch
	// ParseDuration parses retention durations ("90m", "1d", "2w",
	// "1mo", "1y").
	ParseDuration = query.ParseDuration
)
