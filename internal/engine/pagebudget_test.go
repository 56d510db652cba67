package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"instantdb/internal/value"
	"instantdb/internal/vclock"
)

// pageBudgetPerRow bounds the page file's bytes per row of the
// benchmark's shape once every row has degraded to country, by the
// clock the rows are inserted on, at the measured size plus one page
// (2 B per row). On the benchmark's still clock the rows take 21 pages,
// 43.0 B per row: each record stores its tuple id and insert time as
// one-byte deltas from its page's frame. With a fixed 16-byte id and
// time they took 28 pages, 57.3 B per row, and with INTs in 8 fixed
// bytes 35 pages, 71.7 B per row. On a clock that moves 1 ms between
// inserts the time deltas take 3 or 4 bytes: 23 pages, 47.1 B per row.
var pageBudgetPerRow = []struct {
	gap    time.Duration
	budget float64
}{{0, 45.1}, {time.Millisecond, 49.2}}

// TestPageSizeBudget loads 2 000 rows of the benchmark's shape — an INT
// key of 8 digits, a 14-byte name, a location of the Figure 1 tree and an
// INT salary — into a durable database in 500-row commits, degrades every
// location to country, and holds pages.db to a committed size per row:
// once with every row stamped at one instant, as the benchmark's set-up
// does, and once with the clock advanced between inserts.
func TestPageSizeBudget(t *testing.T) {
	for _, c := range pageBudgetPerRow {
		t.Run(fmt.Sprintf("gap=%v", c.gap), func(t *testing.T) { checkPageSize(t, c.gap, c.budget) })
	}
}

func checkPageSize(t *testing.T, gap time.Duration, budget float64) {
	const rows = 2000
	dir := t.TempDir()
	clock := vclock.NewSimulated(vclock.Epoch)
	nosync := false
	db, err := Open(Config{Dir: dir, Clock: clock, WALSync: &nosync})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	installSchema(t, db)
	db.MustExec(`DECLARE PURPOSE regions SET ACCURACY LEVEL region FOR person.location`)
	conn := db.NewConn()
	ins, err := conn.Prepare(`INSERT INTO person (id, name, location, salary) VALUES (?, ?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	for id := 1; id <= rows; id++ {
		if id%500 == 1 {
			if _, err := conn.Exec(`BEGIN`); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ins.Exec(value.Int(int64(10_000_000+id)), value.Text(fmt.Sprintf("p%07d-ander", id)),
			value.Text(figure1Addresses[id%len(figure1Addresses)]), value.Int(int64(800+id*7%5000))); err != nil {
			t.Fatal(err)
		}
		clock.Advance(gap)
		if id%500 == 0 {
			if _, err := conn.Exec(`COMMIT`); err != nil {
				t.Fatal(err)
			}
		}
	}
	// address → city → region → country; the salary leaves its exact
	// value on the way. A wave fires one step of each row's life cycle.
	for _, step := range []time.Duration{16 * time.Minute, time.Hour, 24 * time.Hour} {
		clock.Advance(step)
		for n := 1; n > 0; {
			if n, err = db.DegradeNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for purpose, want := range map[string]int{"regions": 0, "stat": rows} {
		res := db.MustExec(`SELECT COUNT(location) FROM person FOR PURPOSE ` + purpose)
		if got := res.Rows.Data[0][0].String(); got != fmt.Sprint(want) {
			t.Fatalf("%s locations computable for purpose %s, want %d", got, purpose, want)
		}
	}
	st, err := os.Stat(filepath.Join(dir, "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	per := float64(st.Size()) / rows
	t.Logf("pages.db: %d B, %.1f B per row (budget %.1f)", st.Size(), per, budget)
	if per > budget {
		t.Errorf("pages.db holds %.1f B per row, budget %.1f", per, budget)
	}
}
