package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"instantdb/internal/trace"
	"instantdb/internal/value"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("SELECT * FROM visits")
	if err := WriteFrame(&buf, OpExec, payload); err != nil {
		t.Fatal(err)
	}
	op, got, err := ReadFrame(&buf, MaxFrameDefault)
	if err != nil {
		t.Fatal(err)
	}
	if op != OpExec || !bytes.Equal(got, payload) {
		t.Fatalf("got op=%#x payload=%q", op, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, OpPing, nil); err != nil {
		t.Fatal(err)
	}
	op, payload, err := ReadFrame(&buf, MaxFrameDefault)
	if err != nil {
		t.Fatal(err)
	}
	if op != OpPing || len(payload) != 0 {
		t.Fatalf("got op=%#x payload=%q", op, payload)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, OpExec, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadFrame(&buf, 512)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, OpExec, []byte("SELECT 1")); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-3]
	_, _, err := ReadFrame(bytes.NewReader(short), MaxFrameDefault)
	if err == nil || errors.Is(err, io.EOF) && !strings.Contains(err.Error(), "short") {
		t.Fatalf("want short-frame error, got %v", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	for _, h := range []Hello{
		{Version: Version, Purpose: "stats", Coarse: true},
		{Version: Version, Purpose: ""},
	} {
		got, err := DecodeHello(EncodeHello(h))
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatalf("got %+v want %+v", got, h)
		}
	}
}

func TestHelloBadMagic(t *testing.T) {
	if _, err := DecodeHello([]byte("GET / HTTP/1.1\r\n")); err == nil {
		t.Fatal("want bad-magic error")
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e, err := DecodeError(EncodeError(CodeUnknownPurpose, "no such purpose"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeUnknownPurpose || e.Msg != "no such purpose" {
		t.Fatalf("got %+v", e)
	}
	if e.Fatal() {
		t.Fatal("unknown purpose must not be fatal")
	}
	if f, _ := DecodeError(EncodeError(CodeProtocol, "x")); !f.Fatal() {
		t.Fatal("protocol errors must be fatal")
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := &Result{
		RowsAffected: 3,
		LastInsertID: 42,
		Rows: &Rows{
			Columns: []string{"id", "place", "score", "ok", "at", "gone"},
			Data: [][]value.Value{
				{value.Int(1), value.Text("Amsterdam"), value.Float(0.5),
					value.Bool(true), value.Time(time.Unix(1700000000, 0).UTC()), value.Null()},
				{value.Int(-7), value.Text(""), value.Float(-1e18),
					value.Bool(false), value.Time(time.Unix(0, 0).UTC()), value.Null()},
			},
		},
	}
	out, err := DecodeResult(EncodeResult(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.RowsAffected != in.RowsAffected || out.LastInsertID != in.LastInsertID {
		t.Fatalf("counts: got %+v", out)
	}
	if len(out.Rows.Columns) != len(in.Rows.Columns) || len(out.Rows.Data) != len(in.Rows.Data) {
		t.Fatalf("shape: got %+v", out.Rows)
	}
	for i, row := range in.Rows.Data {
		for j, want := range row {
			got := out.Rows.Data[i][j]
			if got.Kind() != want.Kind() || got.String() != want.String() {
				t.Fatalf("row %d col %d: got %v want %v", i, j, got, want)
			}
		}
	}
}

func TestResultNoRows(t *testing.T) {
	out, err := DecodeResult(EncodeResult(&Result{RowsAffected: 1, LastInsertID: 9}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows != nil || out.RowsAffected != 1 || out.LastInsertID != 9 {
		t.Fatalf("got %+v", out)
	}
}

func TestDecodeResultCorrupt(t *testing.T) {
	enc := EncodeResult(&Result{Rows: &Rows{Columns: []string{"a"},
		Data: [][]value.Value{{value.Int(1)}}}})
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeResult(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
}

func TestAuditEventsRoundTrip(t *testing.T) {
	evs := []trace.Event{
		{Seq: 1, Kind: trace.EvScheduled, UnixNano: 1000, Table: "person", Tuple: 42, Attr: "location", Deadline: 901000},
		{Seq: 2, Kind: trace.EvFired, UnixNano: 902000, Table: "person", Tuple: 42, Attr: "location",
			Deadline: 901000, Actual: 902000, Detail: "state 0→1"},
		{Seq: 3, Kind: trace.EvCheckpoint, UnixNano: 903000},
	}
	enc := EncodeAuditEvents(evs)
	got, err := DecodeAuditEvents(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, evs)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeAuditEvents(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d decoded", cut, len(enc))
		}
	}
}
