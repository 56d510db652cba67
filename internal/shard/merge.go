package shard

import (
	"fmt"
	"strings"

	"instantdb/internal/query"
	"instantdb/internal/wire"
)

// mergeParts recombines the per-shard result sets of a scattered SELECT
// into the rows a single-node execution would have produced. The algebra
// is query.Shape's — the same code every shard just ran over its own
// rows; the router only checks that the shards agree on what they sent.
// Each shard's rows arrive already purpose-enforced and
// degradation-filtered by its own clock, so the merge never re-evaluates
// accuracy — per-shard degradation states surface as-is.
func mergeParts(sh *query.Shape, parts []*wire.Rows) (*wire.Rows, error) {
	acc := sh.Begin()
	for _, p := range parts {
		if !sameColumns(p.Columns, parts[0].Columns) {
			return nil, fmt.Errorf("shard: scatter column mismatch: %v vs %v", parts[0].Columns, p.Columns)
		}
		for _, row := range p.Data {
			if err := acc.Merge(row); err != nil {
				return nil, err
			}
		}
	}
	data, err := acc.Rows()
	return &wire.Rows{Columns: sh.Columns, Data: data}, err
}

func sameColumns(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !strings.EqualFold(a[i], b[i]) {
			return false
		}
	}
	return true
}
