// Package shard partitions an InstantDB deployment horizontally: a
// versioned hash-slot routing table maps every primary key to one of N
// independent instantdb-server leader processes, and a Router front end
// (cmd/instantdb-router) speaks the internal/wire protocol on both
// sides, forwarding single-key statements to the owning shard and
// fanning scans out scatter-gather.
//
// Each shard keeps its own WAL, key store and autonomous degradation
// clock. That is the point of the design, not an accident: the paper's
// guarantee — attributes degrade at their LCP deadlines no matter what —
// must hold per storage node. A shard partitioned from the router keeps
// degrading and shredding its keys on time, exactly as PR 4's
// monotone-reconciliation rule already proved safe for replicas, so no
// coordination failure can ever delay a deadline.
package shard

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"

	"instantdb/internal/value"
)

// DefaultSlots is the hash-slot count for new routing tables: large
// enough that a split moves key ranges at sub-percent granularity,
// small enough that the assignment array stays trivial to persist and
// diff.
const DefaultSlots = 1024

// Info identifies one shard: a stable name (used in metrics labels and
// operator output) and the wire address of its instantdb-server.
type Info struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

// Table is a versioned routing table: Slots hash slots assigned to
// Shards. Slot assignment is by index into Shards, so the JSON form is
// compact and diffs between versions show exactly the moved ranges.
// Tables are immutable once built — rebalancing produces a new Table
// with a higher Version (see SplitOff), and every shard persists the
// highest version it has served under, so a router presenting an older
// table fails loud (wire.CodeShardStale) instead of misrouting.
type Table struct {
	Version uint64 `json:"version"`
	Slots   int    `json:"slots"`
	Shards  []Info `json:"shards"`
	// Assign maps slot → index into Shards.
	Assign []int `json:"assign"`
}

// Uniform builds a version-1 table spreading the slot space over shards
// in contiguous ranges (slot s → shard s*len(shards)/slots).
func Uniform(shards []Info) *Table {
	t := &Table{Version: 1, Slots: DefaultSlots, Shards: shards, Assign: make([]int, DefaultSlots)}
	for s := range t.Assign {
		t.Assign[s] = s * len(shards) / DefaultSlots
	}
	return t
}

// Validate checks structural invariants: at least one shard, every slot
// assigned to an existing shard, distinct shard names.
func (t *Table) Validate() error {
	if len(t.Shards) == 0 {
		return fmt.Errorf("shard: table v%d has no shards", t.Version)
	}
	if t.Slots <= 0 || len(t.Assign) != t.Slots {
		return fmt.Errorf("shard: table v%d has %d slots but %d assignments", t.Version, t.Slots, len(t.Assign))
	}
	seen := make(map[string]bool, len(t.Shards))
	for _, s := range t.Shards {
		if s.Name == "" || s.Addr == "" {
			return fmt.Errorf("shard: table v%d has a shard with empty name or addr", t.Version)
		}
		if seen[s.Name] {
			return fmt.Errorf("shard: table v%d has duplicate shard name %q", t.Version, s.Name)
		}
		seen[s.Name] = true
	}
	for slot, idx := range t.Assign {
		if idx < 0 || idx >= len(t.Shards) {
			return fmt.Errorf("shard: table v%d slot %d assigned to unknown shard %d", t.Version, slot, idx)
		}
	}
	return nil
}

// Slot hashes a primary-key value to its slot. The hash runs over
// routingKey's frozen byte form of the value, never over the storage
// codec, so the mapping is stable across processes, restarts,
// architectures and storage format changes.
func (t *Table) Slot(key value.Value) int {
	h := fnv.New64a()
	h.Write(routingKey(nil, key))
	return int(h.Sum64() % uint64(t.Slots))
}

// routingKey appends the bytes Slot hashes: a kind byte, then 8
// big-endian bytes for INT, TIME (Unix nanoseconds) and FLOAT (IEEE 754
// bits), 1 byte for BOOL, a uvarint length and the bytes for TEXT, and
// nothing for NULL. Every existing routing table assigns keys by this
// form, so it must never change.
func routingKey(dst []byte, v value.Value) []byte {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case value.KindInt:
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.Int()))
	case value.KindTime:
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.Time().UnixNano()))
	case value.KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	case value.KindBool:
		if v.Bool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	case value.KindText:
		dst = binary.AppendUvarint(dst, uint64(len(v.Text())))
		dst = append(dst, v.Text()...)
	}
	return dst
}

// SlotForTable hashes a table name to a slot: a table without a primary
// key cannot be split by key, so the whole table lives on the shard
// owning this slot.
func (t *Table) SlotForTable(name string) int {
	h := fnv.New64a()
	h.Write([]byte(strings.ToLower(name)))
	return int(h.Sum64() % uint64(t.Slots))
}

// ShardForKey returns the index of the shard owning a primary-key value.
func (t *Table) ShardForKey(key value.Value) int { return t.Assign[t.Slot(key)] }

// ShardForTable returns the index of the shard owning a pk-less table.
func (t *Table) ShardForTable(name string) int { return t.Assign[t.SlotForTable(name)] }

// SlotsOf returns the slots assigned to shard idx, ascending.
func (t *Table) SlotsOf(idx int) []int {
	var out []int
	for s, a := range t.Assign {
		if a == idx {
			out = append(out, s)
		}
	}
	return out
}

// Clone returns a deep copy.
func (t *Table) Clone() *Table {
	n := &Table{Version: t.Version, Slots: t.Slots}
	n.Shards = append([]Info(nil), t.Shards...)
	n.Assign = append([]int(nil), t.Assign...)
	return n
}

// SplitOff builds the next table version: the upper half of src's slots
// move to a new shard appended to the shard list; every other slot keeps
// its owner. It returns the new table and the moved slots — the only
// keys whose routing changes between the two versions, which the
// rebalance tests pin down.
func (t *Table) SplitOff(src int, info Info) (*Table, []int) {
	n := t.Clone()
	n.Version++
	n.Shards = append(n.Shards, info)
	owned := t.SlotsOf(src)
	moved := owned[len(owned)/2:]
	for _, s := range moved {
		n.Assign[s] = len(n.Shards) - 1
	}
	return n, append([]int(nil), moved...)
}

// MovedSlots returns the slots whose owner differs between t and next
// (both tables must have the same slot count).
func (t *Table) MovedSlots(next *Table) []int {
	var out []int
	for s := range t.Assign {
		if t.Assign[s] != next.Assign[s] {
			out = append(out, s)
		}
	}
	return out
}

// Load reads a routing table from its JSON file and validates it.
func Load(path string) (*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("shard: parse %s: %w", path, err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Save atomically writes the routing table as JSON (tmp + rename), so a
// crash mid-write never leaves a torn table for the next router start.
func (t *Table) Save(path string) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o600); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}
