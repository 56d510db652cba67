package forensic_test

import (
	"fmt"
	"testing"
	"time"

	"instantdb/internal/engine"
	"instantdb/internal/forensic"
	"instantdb/internal/storage"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
)

const visitsSchema = `
CREATE DOMAIN location TREE LEVELS (address, city, region, country)
  PATH ('Dam 1', 'Amsterdam', 'Noord-Holland', 'Netherlands')
  PATH ('Coolsingel 40', 'Rotterdam', 'Zuid-Holland', 'Netherlands');
CREATE POLICY locpol ON location (HOLD address FOR '15m', HOLD city FOR '1h',
  HOLD region FOR '1d', HOLD country FOR '1mo') THEN DELETE;
CREATE TABLE visits (id INT PRIMARY KEY, who TEXT NOT NULL,
  place TEXT DEGRADABLE DOMAIN location POLICY locpol);
`

// overdue lists the payloads of dir that still open although the state
// they were stored at ended more than slack ago. slack is what the
// design concedes: a key covers one insert-time bucket and dies at the
// first tick after the bucket's last tuple has left the state.
func overdue(t *testing.T, db *engine.DB, dir string, now time.Time, slack time.Duration) []string {
	t.Helper()
	open, err := forensic.OpenablePayloads(dir)
	if err != nil {
		t.Fatal(err)
	}
	var late []string
	for _, p := range open {
		tbl, err := db.Catalog().TableByID(p.Table)
		if err != nil {
			t.Fatal(err)
		}
		if p.State == storage.StateErased {
			continue
		}
		pol := tbl.Columns[tbl.DegradableColumns()[p.Col]].Policy
		age, ok := pol.DeadlineFromInsert(int(p.State))
		if !ok {
			continue // a state the policy keeps for good
		}
		deadline := time.Unix(0, p.InsertNano).Add(age)
		if behind := now.Sub(deadline); behind > slack {
			late = append(late, fmt.Sprintf("tuple %d col %d state %d = %v: deadline %v behind the clock",
				p.Tuple, p.Col, p.State, p.Value, behind))
		}
	}
	return late
}

// TestNoOpenablePayloadPastDeadline holds the directory against the
// decrypting adversary after every tick: no payload may still open once
// its state's deadline lies further back than one key bucket plus one
// tick. The first half is a quiet database — one row, nothing ever
// inserted after it — where an epoch key used to outlive its deadline
// for good, because only a later transition out of the same state ever
// looked at it. The second half is a 2 000-row wave.
func TestNoOpenablePayloadPastDeadline(t *testing.T) {
	t.Run("quiet", func(t *testing.T) {
		const tick, bucket = 50 * time.Minute, time.Hour
		dir := t.TempDir()
		clock := vclock.NewSimulated(vclock.Epoch)
		db, err := engine.Open(engine.Config{Dir: dir, Clock: clock, ShredBucket: bucket})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.ExecScript(visitsSchema); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(`INSERT INTO visits (id, who, place) VALUES (1, 'alice', 'Dam 1')`); err != nil {
			t.Fatal(err)
		}
		if open, err := forensic.OpenablePayloads(dir); err != nil || len(open) != 1 || open[0].State != 0 {
			t.Fatalf("right after the insert the adversary reads %+v (err %v), want the one address", open, err)
		}
		for i := 1; i <= 6; i++ {
			clock.Advance(tick)
			if _, err := db.DegradeNow(); err != nil {
				t.Fatal(err)
			}
			if late := overdue(t, db, dir, clock.Now(), bucket+tick); len(late) > 0 {
				t.Fatalf("tick %d (%v after the insert): %d payloads still open past their deadline:\n%s",
					i, time.Duration(i)*tick, len(late), late[0])
			}
		}
		// Five hours on: address (15m) and city (1h15m) are long gone, the
		// region (held a day) is what the log may still give up.
		open, err := forensic.OpenablePayloads(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(open) != 1 || open[0].State != 2 {
			t.Fatalf("after five hours the adversary reads %+v, want only the region", open)
		}
		if n := db.KeyStore().LiveKeys(); n != 1 {
			t.Fatalf("%d live epoch keys after five hours, want 1 (the region's)", n)
		}
	})

	t.Run("wave", func(t *testing.T) {
		const tick, bucket = 5 * time.Minute, time.Minute
		dir := t.TempDir()
		clock := vclock.NewSimulated(vclock.Epoch)
		nosync := false
		db, err := engine.Open(engine.Config{Dir: dir, Clock: clock, ShredBucket: bucket, WALSync: &nosync})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.ExecScript(visitsSchema); err != nil {
			t.Fatal(err)
		}
		conn := db.NewConn()
		ins, err := conn.Prepare("INSERT INTO visits (id, who, place) VALUES (?, ?, ?)")
		if err != nil {
			t.Fatal(err)
		}
		// 2 000 rows over 20 minutes of simulated time, ticking as it goes.
		const rows = 2000
		places := []string{"Dam 1", "Coolsingel 40"}
		for i := 1; i <= rows; i++ {
			if _, err := ins.Exec(value.Int(int64(i)), value.Text("w"), value.Text(places[i%2])); err != nil {
				t.Fatal(err)
			}
			clock.Advance(600 * time.Millisecond)
			if i%500 == 0 {
				if _, err := db.DegradeNow(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 1; i <= 20; i++ {
			clock.Advance(tick)
			if _, err := db.DegradeNow(); err != nil {
				t.Fatal(err)
			}
			if late := overdue(t, db, dir, clock.Now(), bucket+tick); len(late) > 0 {
				t.Fatalf("tick %d: %d payloads still open past their deadline, first:\n%s", i, len(late), late[0])
			}
		}
		// 2 h after the first insert every address and city is out of reach.
		open, err := forensic.OpenablePayloads(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range open {
			if p.State < 2 {
				t.Fatalf("tuple %d still gives up its state-%d value %v", p.Tuple, p.State, p.Value)
			}
		}
		if len(open) != rows {
			t.Fatalf("the adversary reads %d payloads, want the %d regions", len(open), rows)
		}
	})
}
