// Package workload synthesizes the datasets and query mixes used by the
// experiment harness. The paper evaluates nothing quantitatively, so the
// workloads are built from its own motivating examples (§I): a
// cell-phone location stream over the Figure 1 location hierarchy and a
// person/salary table matching the STAT purpose example. Generators are
// deterministic (seeded) so every experiment is reproducible.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"instantdb/internal/gentree"
)

// LocationUniverse is a synthetic location hierarchy with the Figure 1
// shape but scalable fan-out, for workloads larger than the figure's
// sample tree.
type LocationUniverse struct {
	Tree      *gentree.Tree
	Addresses []string // all leaf values
}

// NewLocationUniverse builds a location tree with the given fan-out per
// level: countries × regions × cities × addresses.
func NewLocationUniverse(countries, regions, cities, addresses int) *LocationUniverse {
	b := gentree.NewTreeBuilder("location", "address", "city", "region", "country")
	var leaves []string
	for c := 0; c < countries; c++ {
		country := fmt.Sprintf("country-%02d", c)
		for r := 0; r < regions; r++ {
			region := fmt.Sprintf("%s/region-%02d", country, r)
			for ci := 0; ci < cities; ci++ {
				city := fmt.Sprintf("%s/city-%02d", region, ci)
				for a := 0; a < addresses; a++ {
					addr := fmt.Sprintf("%s/addr-%03d", city, a)
					b.AddPath(addr, city, region, country)
					leaves = append(leaves, addr)
				}
			}
		}
	}
	return &LocationUniverse{Tree: b.MustBuild(), Addresses: leaves}
}

// Person is one synthetic donor record.
type Person struct {
	ID      int64
	Name    string
	Address string // leaf of the location universe
	Salary  int64
	SeenAt  time.Time
}

// PersonGen draws deterministic Person records. Location choice is
// Zipf-skewed (people cluster in popular places); salaries are
// log-normal-ish around 2500.
type PersonGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	uni  *LocationUniverse
	next int64
	base time.Time
	// Interarrival is the simulated time between records.
	Interarrival time.Duration
}

// NewPersonGen builds a generator over a location universe.
func NewPersonGen(seed int64, uni *LocationUniverse, base time.Time) *PersonGen {
	rng := rand.New(rand.NewSource(seed))
	return &PersonGen{
		rng:          rng,
		zipf:         rand.NewZipf(rng, 1.3, 4, uint64(len(uni.Addresses)-1)),
		uni:          uni,
		base:         base,
		Interarrival: time.Second,
	}
}

// Next draws the next record; records arrive Interarrival apart.
func (g *PersonGen) Next() Person {
	g.next++
	addr := g.uni.Addresses[g.zipf.Uint64()]
	salary := int64(800 + g.rng.ExpFloat64()*2000)
	if salary > 20000 {
		salary = 20000
	}
	return Person{
		ID:      g.next,
		Name:    fmt.Sprintf("person-%06d", g.next),
		Address: addr,
		Salary:  salary,
		SeenAt:  g.base.Add(time.Duration(g.next-1) * g.Interarrival),
	}
}

// Batch draws n records.
func (g *PersonGen) Batch(n int) []Person {
	out := make([]Person, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// QueryKind classifies generated queries.
type QueryKind uint8

// Query kinds of the OLTP/OLAP mixes.
const (
	// QPoint is an OLTP point lookup on a location value at the
	// purpose's accuracy.
	QPoint QueryKind = iota
	// QRange is an OLTP salary-bucket lookup.
	QRange
	// QAggregate is an OLAP count-by-location sweep.
	QAggregate
)

// Query is one generated query.
type Query struct {
	Kind QueryKind
	SQL  string
}

// QueryGen draws queries against the person table at a fixed accuracy
// level per degradable column.
type QueryGen struct {
	rng *rand.Rand
	uni *LocationUniverse
	// LocLevel and purpose name used in generated SQL.
	Purpose string
	// LocLevel selects which tree level point queries target.
	LocLevel int
}

// NewQueryGen builds a query generator.
func NewQueryGen(seed int64, uni *LocationUniverse, purpose string, locLevel int) *QueryGen {
	return &QueryGen{rng: rand.New(rand.NewSource(seed)), uni: uni, Purpose: purpose, LocLevel: locLevel}
}

// valueAt picks a random tree value at the generator's level.
func (g *QueryGen) valueAt() string {
	nodes := g.uni.Tree.NodesAtLevel(g.LocLevel)
	return g.uni.Tree.NodeValue(nodes[g.rng.Intn(len(nodes))])
}

// Point draws an OLTP point query.
func (g *QueryGen) Point() Query {
	return Query{Kind: QPoint, SQL: fmt.Sprintf(
		"SELECT id, name FROM person WHERE location = '%s' FOR PURPOSE %s", g.valueAt(), g.Purpose)}
}

// Range draws a salary-bucket query (the paper's RANGE1000 example).
func (g *QueryGen) Range() Query {
	lo := int64(g.rng.Intn(10)) * 1000
	return Query{Kind: QRange, SQL: fmt.Sprintf(
		"SELECT id, name FROM person WHERE salary = '%d-%d' FOR PURPOSE %s", lo, lo+1000, g.Purpose)}
}

// Aggregate draws an OLAP sweep.
func (g *QueryGen) Aggregate() Query {
	return Query{Kind: QAggregate, SQL: fmt.Sprintf(
		"SELECT location, COUNT(*) AS n FROM person GROUP BY location FOR PURPOSE %s", g.Purpose)}
}

// Mix draws a query by OLTP/OLAP weights (point, range, aggregate).
func (g *QueryGen) Mix(point, rng, agg int) Query {
	total := point + rng + agg
	r := g.rng.Intn(total)
	switch {
	case r < point:
		return g.Point()
	case r < point+rng:
		return g.Range()
	default:
		return g.Aggregate()
	}
}
