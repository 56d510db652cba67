package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"instantdb/internal/value"
)

// TestExecRoundTrip covers the one statement frame: trace identity,
// the partial flag, text and arguments each survive, and a frame
// missing a part, setting an undefined flag or carrying trailing bytes
// is refused.
func TestExecRoundTrip(t *testing.T) {
	in := Exec{
		TraceID:      1<<63 + 5,
		ParentSpanID: 300,
		Partial:      true,
		SQL:          "SELECT id FROM person WHERE name = ? AND salary > ?",
		Args:         []value.Value{value.Text("alice"), value.Int(2000)},
	}
	got, err := DecodeExec(EncodeExec(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != in.TraceID || got.ParentSpanID != in.ParentSpanID || !got.Partial || got.SQL != in.SQL ||
		len(got.Args) != 2 || got.Args[0].Text() != "alice" || got.Args[1].Int() != 2000 {
		t.Fatalf("round trip = %+v", got)
	}
	// An untraced statement without arguments: zero ids, no flag, an
	// empty row.
	got, err = DecodeExec(EncodeExec(Exec{SQL: "ROLLBACK"}))
	if err != nil || got.TraceID != 0 || got.ParentSpanID != 0 || got.Partial || got.SQL != "ROLLBACK" || len(got.Args) != 0 {
		t.Fatalf("plain round trip = %+v, %v", got, err)
	}
	ids := binary.AppendUvarint(binary.AppendUvarint(nil, 1), 2)
	for name, p := range map[string][]byte{
		"empty":           nil,
		"no parent span":  binary.AppendUvarint(nil, 1),
		"no flags":        ids,
		"undefined flag":  appendString(append(ids, 2), "SELECT 1"),
		"no sql":          append(ids, 0),
		"no arg row":      appendString(append(ids, 0), "SELECT 1"),
		"short sql":       append(binary.AppendUvarint(append(ids, 0), 9), "SELECT"...),
		"trailing bytes":  append(EncodeExec(Exec{SQL: "SELECT 1"}), 0x00),
		"hostile arg row": binary.AppendUvarint(appendString(append(ids, 1), "SELECT ?"), 1<<60),
	} {
		if _, err := DecodeExec(p); err == nil {
			t.Errorf("%s: decoded, want an error", name)
		}
	}
}

// FuzzDecodeExec: the statement frame is the one request every client
// and router sends, so arbitrary bytes must decode to an error, never a
// panic or an allocation sized by a count the payload merely claims.
// Whatever decodes re-encodes to a frame that decodes to the same value.
func FuzzDecodeExec(f *testing.F) {
	for _, e := range []Exec{
		{SQL: "SELECT 1"},
		{SQL: "BEGIN READ ONLY"},
		{TraceID: 7, ParentSpanID: 9, SQL: "INSERT INTO t VALUES (?, ?)",
			Args: []value.Value{value.Int(-1), value.Text("a;b")}},
		{Partial: true, SQL: "SELECT g, AVG(v) FROM t WHERE v > ? GROUP BY g", Args: []value.Value{value.Float(0.5)}},
		{TraceID: 3, ParentSpanID: 4, Partial: true, SQL: "SELECT COUNT(*) FROM t"},
		{TraceID: 1 << 63, SQL: "SELECT ?", Args: []value.Value{value.Null(), value.Float(0.5),
			value.Bool(true), value.Time(time.Unix(7, 0))}},
	} {
		enc := EncodeExec(e)
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
	}
	f.Add(binary.AppendUvarint([]byte{0, 0, 0, 0}, 1<<62)) // a claimed argument count
	f.Add(binary.AppendUvarint([]byte{0, 0, 0}, 1<<62))    // a claimed text length
	f.Add([]byte{})
	perArg := int(unsafe.Sizeof(value.Value{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		// TotalAlloc also counts what other goroutines of the test
		// binary allocate meanwhile, so one decode's share is measured
		// as the mean over many decodes of the same payload.
		const decodes = 64
		var (
			before, after runtime.MemStats
			e             Exec
			err           error
		)
		runtime.ReadMemStats(&before)
		for i := 0; i < decodes; i++ {
			e, err = DecodeExec(data)
		}
		runtime.ReadMemStats(&after)
		// The text and each argument's bytes are copies of the payload,
		// and every argument takes at least one payload byte.
		if grew := (after.TotalAlloc - before.TotalAlloc) / decodes; grew > uint64(4096+(2*perArg+8)*len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		again, err := DecodeExec(EncodeExec(e))
		if err != nil {
			t.Fatalf("%+v re-encodes to a frame that does not decode: %v", e, err)
		}
		if again.TraceID != e.TraceID || again.ParentSpanID != e.ParentSpanID || again.Partial != e.Partial || again.SQL != e.SQL ||
			len(again.Args) != len(e.Args) {
			t.Fatalf("round trip changed %+v to %+v", e, again)
		}
		for i := range e.Args {
			if !bytes.Equal(value.Encode(nil, again.Args[i]), value.Encode(nil, e.Args[i])) {
				t.Fatalf("round trip changed argument %d: %v to %v", i, e.Args[i], again.Args[i])
			}
		}
	})
}

// TestDecodeResultRowWidth pins that a row narrower than the declared
// column count is a decode error, not a consumer index panic.
func TestDecodeResultRowWidth(t *testing.T) {
	r := &Result{Rows: &Rows{
		Columns: []string{"a", "b"},
		Data:    [][]value.Value{{value.Int(1)}}, // 1 field, 2 columns
	}}
	if _, err := DecodeResult(EncodeResult(r)); err == nil {
		t.Fatal("short row should fail to decode")
	}
}

func TestErrorSentinelMapping(t *testing.T) {
	cases := []struct {
		code     uint16
		sentinel error
	}{
		{CodeUnknownPurpose, ErrUnknownPurpose},
		{CodeServerBusy, ErrServerBusy},
		{CodeShutdown, ErrShuttingDown},
		{CodeProtocol, ErrProtocol},
		{CodeFrameTooLarge, ErrFrameTooLarge},
	}
	for _, c := range cases {
		werr, err := DecodeError(EncodeError(c.code, "boom"))
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(werr, c.sentinel) {
			t.Errorf("code %d does not match %v", c.code, c.sentinel)
		}
		for _, other := range cases {
			if other.code != c.code && errors.Is(werr, other.sentinel) {
				t.Errorf("code %d wrongly matches %v", c.code, other.sentinel)
			}
		}
		if errors.Is(werr, errors.New("unrelated")) {
			t.Errorf("code %d matches arbitrary error", c.code)
		}
	}
	// CodeSQL matches no sentinel.
	werr, _ := DecodeError(EncodeError(CodeSQL, "syntax"))
	if errors.Is(werr, ErrUnknownPurpose) || errors.Is(werr, ErrServerBusy) {
		t.Error("CodeSQL should match no sentinel")
	}
}
