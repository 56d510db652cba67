package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"strings"

	"instantdb"
)

// Everything the system under test receives — schema script, preload
// rows, statement texts and their arguments — is produced in this file
// from the -seed value alone, so two runs with one seed feed the
// program byte-identical inputs (gen_test.go compares the digests).

// Location universe shape: the paper's Figure 1 hierarchy at the
// fan-out the ISSUE fixes (3 countries × 3 regions × 4 cities × 10
// addresses = 360 leaves).
const (
	nCountries = 3
	nRegions   = 3
	nCities    = 4
	nAddrs     = 10
)

// Primary keys sit far above the small integers the generalization
// trees use as node ids; each connection inserts into its own range.
const (
	preloadIDBase = 10_000_000
	connIDBase    = 20_000_000
	connIDStride  = 5_000_000
)

// opKind names one statement shape. The SQL text per kind is fixed
// (stmtSQL); only the arguments vary per op.
type opKind uint8

const (
	opInsert    opKind = iota // single-row INSERT
	opPoint                   // PK read at purpose stat: must return the id and its country
	opProbeFull               // PK read at full accuracy of an expired row: must return 0 rows
	opEqLoc                   // WHERE location = ? at purpose cities
	opEqSal                   // WHERE salary = ? bucket at purpose stat
	opGroupAgg                // GROUP BY location at purpose regions
	opAvg                     // AVG(salary) scatter
	opReopen                  // Open + COUNT(*) + PK read + Close (embedded only)
	numKinds
)

var kindNames = [numKinds]string{"insert", "point", "probe_full", "eq_loc", "eq_sal", "group_agg", "avg", "reopen"}

func (k opKind) String() string { return kindNames[k] }

// stmtSQL is the statement text of every kind that is a single
// statement. opReopen is a composite of countSQL and the opPoint text.
var stmtSQL = [numKinds]string{
	opInsert:    "INSERT INTO person (id, name, location, salary) VALUES (?, ?, ?, ?)",
	opPoint:     "SELECT id, location FROM person WHERE id = ? FOR PURPOSE stat",
	opProbeFull: "SELECT id, location FROM person WHERE id = ?",
	opEqLoc:     "SELECT id, name FROM person WHERE location = ? FOR PURPOSE cities",
	opEqSal:     "SELECT id, name FROM person WHERE salary = ? FOR PURPOSE stat",
	opGroupAgg:  "SELECT location, COUNT(*) AS n FROM person GROUP BY location FOR PURPOSE regions",
	opAvg:       "SELECT AVG(salary) FROM person",
}

const countSQL = "SELECT COUNT(*) FROM person"

// levelCountSQL counts the rows whose location is still computable at
// each accuracy level (a purpose filters a row only when the statement
// references the degradable column); the wave oracle reads the levels
// every row has descended off these four counts.
var levelCountSQL = [4]string{
	"SELECT COUNT(location) FROM person",
	"SELECT COUNT(location) FROM person FOR PURPOSE cities",
	"SELECT COUNT(location) FROM person FOR PURPOSE regions",
	"SELECT COUNT(location) FROM person FOR PURPOSE stat",
}

// op is one generated operation.
type op struct {
	kind opKind
	args []instantdb.Value
	// id is the key an insert writes or a point read asks for.
	id int64
	// bytes is the user bytes an insert carries.
	bytes int32
	// want is the value the reply must carry: the row's country for
	// opPoint, the scan argument (for the expected-count table) for
	// the scan kinds.
	want string
}

// row is one generated person.
type row struct {
	id     int64
	name   string
	addr   int // index into universe.addrs
	salary int64
}

// universe is the seed's location hierarchy.
type universe struct {
	addrs     []string // leaves
	cities    []string
	cityOf    []int    // addr index → city index
	countryOf []string // addr index → country name
	paths     [][4]string
}

// gen is the input generator of one seed.
type gen struct {
	seed int64
	uni  universe
}

// subSeed derives an independent stream seed from the run seed and a
// label, so adding a stream never shifts the others.
func subSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return int64(h.Sum64() >> 1)
}

func newGen(seed int64) *gen {
	g := &gen{seed: seed}
	rng := rand.New(rand.NewSource(subSeed(seed, "universe")))
	for c := 0; c < nCountries; c++ {
		country := fmt.Sprintf("co%d", c)
		for r := 0; r < nRegions; r++ {
			region := fmt.Sprintf("%s.re%d", country, r)
			for ci := 0; ci < nCities; ci++ {
				city := fmt.Sprintf("%s.ci%d", region, ci)
				g.uni.cities = append(g.uni.cities, city)
				for a := 0; a < nAddrs; a++ {
					// The house number is the seed-dependent part of the schema.
					addr := fmt.Sprintf("%s.ad%d-%03d", city, a, rng.Intn(1000))
					g.uni.addrs = append(g.uni.addrs, addr)
					g.uni.cityOf = append(g.uni.cityOf, len(g.uni.cities)-1)
					g.uni.countryOf = append(g.uni.countryOf, country)
					g.uni.paths = append(g.uni.paths, [4]string{addr, city, region, country})
				}
			}
		}
	}
	return g
}

// schema returns the DDL script: the two generalization domains, their
// life cycle policies (the paper's Figure 2 shape with a 15-minute
// accurate window), the person table, the three purposes and, when
// indexed, BTREE indexes on both degradable columns.
func (g *gen) schema(indexed bool) string {
	var sb strings.Builder
	sb.WriteString("CREATE DOMAIN location TREE LEVELS (address, city, region, country)")
	for _, p := range g.uni.paths {
		fmt.Fprintf(&sb, "\n  PATH ('%s', '%s', '%s', '%s')", p[0], p[1], p[2], p[3])
	}
	sb.WriteString(`;
CREATE DOMAIN salary RANGES (100, 1000, SUPPRESS);
CREATE POLICY locpol ON location (HOLD address FOR '15m', HOLD city FOR '1h',
  HOLD region FOR '1d', HOLD country FOR '1mo') THEN DELETE;
CREATE POLICY salpol ON salary (HOLD exact FOR '12h', HOLD range1000 FOR '1w') THEN SUPPRESS;
CREATE TABLE person (
  id INT PRIMARY KEY,
  name TEXT NOT NULL,
  location TEXT DEGRADABLE DOMAIN location POLICY locpol,
  salary INT DEGRADABLE DOMAIN salary POLICY salpol
);
DECLARE PURPOSE stat SET ACCURACY LEVEL country FOR person.location, range1000 FOR person.salary;
DECLARE PURPOSE cities SET ACCURACY LEVEL city FOR person.location, range1000 FOR person.salary;
DECLARE PURPOSE regions SET ACCURACY LEVEL region FOR person.location, range1000 FOR person.salary;
`)
	if indexed {
		sb.WriteString("CREATE INDEX ix_loc ON person (location) USING BTREE;\n")
		sb.WriteString("CREATE INDEX ix_sal ON person (salary) USING BTREE;\n")
	}
	return sb.String()
}

// rowSource draws person rows: Zipf-skewed addresses (people cluster),
// exponential salaries around 2 800, names of 11 to 19 bytes.
type rowSource struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	seq  int64
}

// nameTails are cut to a drawn length to give names (and so records)
// varying sizes.
var nameTails = []string{"anderssonx", "bouganimyz", "vanheerdex", "pucheralzz", "apersxyzzy", "anciauxabc"}

func (g *gen) rowSource(label string) *rowSource {
	rng := rand.New(rand.NewSource(subSeed(g.seed, label)))
	return &rowSource{rng: rng, zipf: rand.NewZipf(rng, 1.1, 8, uint64(len(g.uni.addrs)-1))}
}

func (s *rowSource) next(id int64) row {
	s.seq++
	salary := int64(800 + s.rng.ExpFloat64()*2000)
	if salary > 19999 {
		salary = 19999
	}
	return row{
		id:     id,
		name:   fmt.Sprintf("p%07d-%s", s.seq, nameTails[s.rng.Intn(len(nameTails))][:2+s.rng.Intn(9)]),
		addr:   int(s.zipf.Uint64()),
		salary: salary,
	}
}

// preload returns the n rows a workload's set-up inserts.
func (g *gen) preload(n int) []row {
	src := g.rowSource("preload")
	rows := make([]row, n)
	for i := range rows {
		rows[i] = src.next(preloadIDBase + int64(i))
	}
	return rows
}

// insertArgs renders a row as the arguments of stmtSQL[opInsert].
func (g *gen) insertArgs(r row) []instantdb.Value {
	return []instantdb.Value{
		instantdb.Int(r.id), instantdb.Text(r.name),
		instantdb.Text(g.uni.addrs[r.addr]), instantdb.Int(r.salary),
	}
}

// userBytes is the size of a row's values as the user supplied them:
// the denominator of the bytes-per-user-byte ratios.
func (g *gen) userBytes(r row) int64 {
	return int64(8 + len(r.name) + len(g.uni.addrs[r.addr]) + 8)
}

// salaryBucket is the range1000 rendering of a salary.
func salaryBucket(s int64) string {
	lo := s / 1000 * 1000
	return fmt.Sprintf("%d-%d", lo, lo+1000)
}

// ownRow remembers an insert this stream emitted, so later reads can
// ask for it and check the country it must come back with.
type ownRow struct {
	id   int64
	addr int
	pos  int // stream position of the insert
}

// stream emits one connection's operations. Every connection of every
// workload has its own, derived from (seed, workload, connection).
type stream struct {
	g       *gen
	rng     *rand.Rand
	rows    *rowSource
	preload []row
	next    func(s *stream) op
	n       int // ops emitted
	nextID  int64
	own     []ownRow
	// probeLag is how many stream positions back an own insert must be
	// before a probe may treat it as past its address hold (open loop:
	// two windows of schedule); pending holds the purpose-stat half of
	// a probe pair.
	probeLag int
	old      int // own inserts at least probeLag positions back
	pending  *op
}

func (g *gen) newStream(workload string, conn int, preload []row, next func(*stream) op) *stream {
	label := fmt.Sprintf("%s/conn%d", workload, conn)
	return &stream{
		g:       g,
		rng:     rand.New(rand.NewSource(subSeed(g.seed, label))),
		rows:    g.rowSource(label + "/rows"),
		preload: preload,
		next:    next,
		nextID:  connIDBase + int64(conn)*connIDStride,
	}
}

// emit returns the stream's next operation.
func (s *stream) emit() op {
	o := s.next(s)
	s.n++
	return o
}

func (s *stream) insertOp() op {
	r := s.rows.next(s.nextID)
	s.nextID++
	s.own = append(s.own, ownRow{id: r.id, addr: r.addr, pos: s.n})
	return op{kind: opInsert, args: s.g.insertArgs(r), id: r.id, bytes: int32(s.g.userBytes(r))}
}

func (s *stream) pointOp(id int64, addr int) op {
	return op{kind: opPoint, args: []instantdb.Value{instantdb.Int(id)}, id: id, want: s.g.uni.countryOf[addr]}
}

// pickRow draws uniformly from the preload and the first nOwn of this
// stream's own inserts. A connection runs its ops one after another,
// so every earlier insert of the stream has been acknowledged by the
// time a later read of it is sent.
func (s *stream) pickRow(nOwn int) (int64, int) {
	i := s.rng.Intn(len(s.preload) + nOwn)
	if i < len(s.preload) {
		return s.preload[i].id, s.preload[i].addr
	}
	o := s.own[i-len(s.preload)]
	return o.id, o.addr
}

// nextOLTP is the oltp_durable mix: half inserts, half PK reads at
// purpose stat over preloaded and own rows.
func nextOLTP(s *stream) op {
	if s.rng.Intn(2) == 0 {
		return s.insertOp()
	}
	return s.pointOp(s.pickRow(len(s.own)))
}

// nextWave is the same mix with one read in 50 replaced by a probe
// pair: a full-accuracy read of a row past its address hold (must come
// back empty) followed by a purpose-stat read of the same row (must
// carry its country).
func nextWave(s *stream) op {
	if s.pending != nil {
		o := *s.pending
		s.pending = nil
		return o
	}
	if s.rng.Intn(2) == 0 {
		return s.insertOp()
	}
	if s.rng.Intn(50) != 0 {
		return s.pointOp(s.pickRow(len(s.own)))
	}
	// Own inserts are in position order and the stream only moves
	// forward, so the count of those old enough only grows.
	for s.old < len(s.own) && s.own[s.old].pos <= s.n-s.probeLag {
		s.old++
	}
	id, addr := s.pickRow(s.old)
	stat := s.pointOp(id, addr)
	s.pending = &stat
	return op{kind: opProbeFull, args: []instantdb.Value{instantdb.Int(id)}, id: id}
}

// nextScan is the scan_router mix: 40 % location equality at city
// accuracy, 30 % salary bucket, 20 % GROUP BY at region accuracy, 10 %
// AVG scatter.
func nextScan(s *stream) op {
	switch r := s.rng.Intn(10); {
	case r < 4:
		city := s.g.uni.cities[s.rng.Intn(len(s.g.uni.cities))]
		return op{kind: opEqLoc, args: []instantdb.Value{instantdb.Text(city)}, want: city}
	case r < 7:
		b := salaryBucket(s.preload[s.rng.Intn(len(s.preload))].salary)
		return op{kind: opEqSal, args: []instantdb.Value{instantdb.Text(b)}, want: b}
	case r < 9:
		return op{kind: opGroupAgg}
	default:
		return op{kind: opAvg}
	}
}

// nextReopen asks each reopen for one preloaded row.
func nextReopen(s *stream) op {
	r := s.preload[s.rng.Intn(len(s.preload))]
	o := s.pointOp(r.id, r.addr)
	o.kind = opReopen
	return o
}

// writeOp appends an op's wire-visible content to a digest.
func writeOp(h hash.Hash, o op) {
	fmt.Fprintf(h, "%s|%s", o.kind, stmtSQL[o.kind])
	for _, a := range o.args {
		fmt.Fprintf(h, "|%s", a.String())
	}
	h.Write([]byte{'\n'})
}

// digest hashes everything a workload feeds the program: its schema
// script, its preload rows and the first nOps operations of each of its
// connections' streams (window as in workload.stream).
func (g *gen) digest(w *workload, quick bool, window float64, nOps int) string {
	h := sha256.New()
	h.Write([]byte(g.schema(w.indexed)))
	rows := g.preload(w.rows(quick))
	for _, r := range rows {
		writeOp(h, op{kind: opInsert, args: g.insertArgs(r)})
	}
	for c := 0; c < w.conns; c++ {
		s := w.stream(g, c, rows, window)
		for i := 0; i < nOps; i++ {
			writeOp(h, s.emit())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
