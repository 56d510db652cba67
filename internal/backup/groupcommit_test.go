package backup

import (
	"bytes"
	"fmt"
	"testing"

	"instantdb/internal/engine"
	"instantdb/internal/value"
	"instantdb/internal/vclock"
	"instantdb/internal/wal"
)

// TestIncrementalByteStableUnderGroupCommit: an incremental archive is a
// raw read of the WAL batch stream, and group commit only changes how
// batches share fsyncs — never their framing or order. The same workload
// against two databases must therefore produce byte-identical archives.
// LogPlain and a simulated clock make the bytes reproducible across
// databases.
func TestIncrementalByteStableUnderGroupCommit(t *testing.T) {
	run := func() []byte {
		db, err := engine.Open(engine.Config{Dir: t.TempDir(),
			Clock: vclock.NewSimulated(vclock.Epoch), LogMode: engine.LogPlain})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.ExecScript(testSchema); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 16; i++ {
			if _, err := db.Exec("INSERT INTO visits (id, who, place) VALUES (?, ?, 'Dam 1')",
				value.Int(int64(i)), value.Text(fmt.Sprintf("user-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.Exec("DELETE FROM visits WHERE id = ?", value.Int(5)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sum, err := Incremental(db, wal.Pos{}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Batches == 0 {
			t.Fatal("incremental archive carried no batches")
		}
		return buf.Bytes()
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Fatalf("incremental archive differs between two runs of the same workload: %d vs %d bytes",
			len(first), len(second))
	}
}
