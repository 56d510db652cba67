package wal

import (
	"fmt"
	"path/filepath"
	"testing"

	"instantdb/internal/storage"
	"instantdb/internal/value"
)

// benchLog opens a durable log in a bench temp dir.
func benchLog(b *testing.B) *Log {
	b.Helper()
	l, err := Open(filepath.Join(b.TempDir(), "wal"), Options{Sync: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	return l
}

func benchPayload(b *testing.B, tuple int) []byte {
	b.Helper()
	payload, err := EncodeRecords(nil, []*Record{insertRec(storage.TupleID(tuple),
		fmt.Sprintf("r%d", tuple), value.Int(int64(tuple)))}, PlainCodec{})
	if err != nil {
		b.Fatal(err)
	}
	return payload
}

// BenchmarkGroupAppendParallel measures the group-commit path under the
// contention it exists for: parallel committers sharing group fsyncs.
// Compare fsyncs against batches via -benchtime to see the amortization.
func BenchmarkGroupAppendParallel(b *testing.B) {
	l := benchLog(b)
	payload := benchPayload(b, 1)
	b.SetBytes(int64(len(payload)))
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.GroupAppend(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(l.FsyncCount())/float64(b.N), "fsyncs/op")
}
