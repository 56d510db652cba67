package shard_test

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"instantdb/internal/shard"
	"instantdb/internal/value"
)

func threeShards() []shard.Info {
	return []shard.Info{
		{Name: "s0", Addr: "127.0.0.1:9000"},
		{Name: "s1", Addr: "127.0.0.1:9001"},
		{Name: "s2", Addr: "127.0.0.1:9002"},
	}
}

// TestRingDeterminism pins the property everything else rests on: the
// same key maps to the same shard on every table instance — across
// rebuilds, clones and a save/load round trip (restarts).
func TestRingDeterminism(t *testing.T) {
	a := shard.Uniform(threeShards())
	b := shard.Uniform(threeShards())
	path := filepath.Join(t.TempDir(), "routing.json")
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := shard.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2000; i++ {
		k := value.Int(i)
		if a.ShardForKey(k) != b.ShardForKey(k) || a.ShardForKey(k) != loaded.ShardForKey(k) {
			t.Fatalf("key %d routes differently across table instances", i)
		}
	}
	for _, name := range []string{"visits", "logs", "VISITS"} {
		if a.ShardForTable(name) != loaded.ShardForTable(name) {
			t.Fatalf("table %q routes differently after reload", name)
		}
	}
	// Case-insensitive table pinning: VISITS and visits are one table.
	if a.ShardForTable("visits") != a.ShardForTable("VISITS") {
		t.Fatal("table pinning is case-sensitive")
	}
	// Text and int keys both route; different key kinds hash independently.
	if got := a.ShardForKey(value.Text("alice")); got < 0 || got > 2 {
		t.Fatalf("text key routed to %d", got)
	}
}

// TestSlotIsStable pins the slots of a few keys as the routing tables
// in use assign them: a key must never change slot, whatever becomes of
// the storage codec, or the keys of an existing table are misrouted.
func TestSlotIsStable(t *testing.T) {
	tab := shard.Uniform(threeShards())
	for _, c := range []struct {
		key  value.Value
		slot int
	}{
		{value.Int(0), 940},
		{value.Int(-1), 36},
		{value.Int(10_000_000), 850},
		{value.Int(1 << 62), 1004},
		{value.Text("alice"), 471},
		{value.Float(math.Pi), 91},
	} {
		if got := tab.Slot(c.key); got != c.slot {
			t.Errorf("key %v hashes to slot %d, pinned at %d", c.key, got, c.slot)
		}
	}
}

// TestRingUniformSpread sanity-checks the version-1 slot assignment:
// contiguous ranges, every shard owns a third of the slot space.
func TestRingUniformSpread(t *testing.T) {
	tab := shard.Uniform(threeShards())
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		n := len(tab.SlotsOf(i))
		if n < shard.DefaultSlots/3-1 || n > shard.DefaultSlots/3+1 {
			t.Fatalf("shard %d owns %d slots, want ~%d", i, n, shard.DefaultSlots/3)
		}
	}
}

// TestRingSplitMovesOnlySplitRange is the rebalance math: bumping the
// version with SplitOff moves exactly the reported slots, and only keys
// hashing into those slots change owner.
func TestRingSplitMovesOnlySplitRange(t *testing.T) {
	v1 := shard.Uniform(threeShards())
	v2, moved := v1.SplitOff(1, shard.Info{Name: "s3", Addr: "127.0.0.1:9003"})
	if v2.Version != v1.Version+1 {
		t.Fatalf("split bumped version to %d, want %d", v2.Version, v1.Version+1)
	}
	if len(v2.Shards) != 4 || v2.Shards[3].Name != "s3" {
		t.Fatalf("split shard list: %+v", v2.Shards)
	}
	if err := v2.Validate(); err != nil {
		t.Fatal(err)
	}
	// MovedSlots agrees with the split's own report.
	gotMoved := v1.MovedSlots(v2)
	if fmt.Sprint(gotMoved) != fmt.Sprint(moved) {
		t.Fatalf("MovedSlots %v != split report %v", gotMoved, moved)
	}
	// Half (±1) of the source's slots moved, all to the new shard.
	if want := len(v1.SlotsOf(1)) / 2; len(moved) != want && len(moved) != want+1 {
		t.Fatalf("split moved %d slots, want ~%d", len(moved), want)
	}
	movedSet := make(map[int]bool, len(moved))
	for _, s := range moved {
		if v1.Assign[s] != 1 || v2.Assign[s] != 3 {
			t.Fatalf("slot %d moved %d→%d, want 1→3", s, v1.Assign[s], v2.Assign[s])
		}
		movedSet[s] = true
	}
	// Every key either keeps its owner or sits in a moved slot.
	for i := int64(0); i < 5000; i++ {
		k := value.Int(i)
		before, after := v1.ShardForKey(k), v2.ShardForKey(k)
		if before != after && !movedSet[v1.Slot(k)] {
			t.Fatalf("key %d changed owner %d→%d outside the split range", i, before, after)
		}
		if movedSet[v1.Slot(k)] && after != 3 {
			t.Fatalf("key %d in a moved slot routed to %d, want 3", i, after)
		}
	}
}

// TestRingValidate exercises the structural checks a hand-edited routing
// table could trip.
func TestRingValidate(t *testing.T) {
	good := shard.Uniform(threeShards())
	bad := good.Clone()
	bad.Assign[17] = 9
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range assignment accepted")
	}
	bad = good.Clone()
	bad.Shards[1].Name = "s0"
	if err := bad.Validate(); err == nil {
		t.Fatal("duplicate shard name accepted")
	}
	bad = good.Clone()
	bad.Assign = bad.Assign[:100]
	if err := bad.Validate(); err == nil {
		t.Fatal("truncated assignment accepted")
	}
	if err := (&shard.Table{Version: 1}).Validate(); err == nil {
		t.Fatal("empty table accepted")
	}
}
