package engine

import (
	"testing"
	"time"
)

// TestInsertCommittedPastItsDeadline stamps an insert, then lets its
// address deadline pass and a tick run before the insert commits. The
// tuple joins its queues at commit, already due, so Lag is non-zero
// after that tick; the next tick fires it. A wave that advances the
// clock and ticks while an insert is in flight ends the same way.
func TestInsertCommittedPastItsDeadline(t *testing.T) {
	db, clock := openSim(t)
	installSchema(t, db)
	conn := db.NewConn()
	for _, stmt := range []string{`BEGIN`,
		`INSERT INTO person (id, name, location, salary) VALUES (1, 'anciaux', '10 rue de Rivoli', 2471)`} {
		if _, err := conn.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	clock.Advance(20 * time.Minute)
	if n, err := db.DegradeNow(); n != 0 || err != nil {
		t.Fatalf("tick before the commit fired %d, %v", n, err)
	}
	if _, err := conn.Exec(`COMMIT`); err != nil {
		t.Fatal(err)
	}
	if lag := db.Degrader().Lag(clock.Now()); lag != 5*time.Minute {
		t.Fatalf("after the commit Lag = %v, want 5m (queued past the 15m address hold)", lag)
	}
	if n, err := db.DegradeNow(); n != 1 || err != nil {
		t.Fatalf("next tick fired %d, %v; want the late tuple's address transition", n, err)
	}
	if lag := db.Degrader().Lag(clock.Now()); lag != 0 {
		t.Fatalf("after the next tick Lag = %v", lag)
	}
	res := db.MustExec(`SELECT name FROM person WHERE location = 'Paris'`)
	if res.Rows.Len() != 0 {
		t.Fatalf("full-accuracy read still finds the address after the tick: %v", res.Rows.Data)
	}
}
