package value

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindText: "TEXT", KindBool: "BOOL", KindTime: "TIME",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String()=%q want %q", k, got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	ok := map[string]Kind{
		"INT": KindInt, "INTEGER": KindInt, "BIGINT": KindInt,
		"FLOAT": KindFloat, "REAL": KindFloat, "DOUBLE": KindFloat,
		"TEXT": KindText, "VARCHAR": KindText, "STRING": KindText,
		"BOOL": KindBool, "BOOLEAN": KindBool,
		"TIME": KindTime, "TIMESTAMP": KindTime, "DATE": KindTime,
	}
	for name, want := range ok {
		got, err := ParseKind(name)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q)=(%v,%v) want %v", name, got, err, want)
		}
	}
	if _, err := ParseKind("BLOB"); err == nil {
		t.Error("ParseKind(BLOB) should fail")
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	ts := time.Date(2008, 4, 7, 12, 30, 0, 0, time.UTC)
	if v := Int(42); v.Kind() != KindInt || v.Int() != 42 {
		t.Error("Int roundtrip failed")
	}
	if v := Float(3.5); v.Kind() != KindFloat || v.Float() != 3.5 {
		t.Error("Float roundtrip failed")
	}
	if v := Text("paris"); v.Kind() != KindText || v.Text() != "paris" {
		t.Error("Text roundtrip failed")
	}
	if v := Bool(true); v.Kind() != KindBool || !v.Bool() {
		t.Error("Bool roundtrip failed")
	}
	if v := Time(ts); v.Kind() != KindTime || !v.Time().Equal(ts) {
		t.Error("Time roundtrip failed")
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull wrong")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value must be NULL")
	}
}

func TestAccessorPanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Text("x").Int()
}

func TestCompareSameKind(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Float(2.5), -1},
		{Text("a"), Text("b"), -1},
		{Text("b"), Text("b"), 0},
		{Bool(false), Bool(true), -1},
		{Time(time.Unix(1, 0)), Time(time.Unix(2, 0)), -1},
		{Null(), Null(), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("Compare(%v,%v)=(%d,%v) want %d", c.a, c.b, got, err, c.want)
		}
	}
}

func TestCompareNumericCoercion(t *testing.T) {
	got, err := Compare(Int(2), Float(2.5))
	if err != nil || got != -1 {
		t.Fatalf("Compare(2, 2.5)=(%d,%v) want -1", got, err)
	}
	got, err = Compare(Float(2.0), Int(2))
	if err != nil || got != 0 {
		t.Fatalf("Compare(2.0, 2)=(%d,%v) want 0", got, err)
	}
}

func TestCompareIncomparable(t *testing.T) {
	if _, err := Compare(Int(1), Text("1")); err == nil {
		t.Fatal("INT vs TEXT should be incomparable")
	}
	if _, err := Compare(Bool(true), Time(time.Unix(0, 0))); err == nil {
		t.Fatal("BOOL vs TIME should be incomparable")
	}
}

func TestCompareNaNTotalOrder(t *testing.T) {
	nan := Float(math.NaN())
	if c, _ := Compare(nan, nan); c != 0 {
		t.Error("NaN should equal NaN in index order")
	}
	if c, _ := Compare(nan, Float(-1e308)); c != -1 {
		t.Error("NaN should sort before all numbers")
	}
}

func TestEqual(t *testing.T) {
	if !Equal(Int(5), Int(5)) || Equal(Int(5), Int(6)) {
		t.Error("Int Equal wrong")
	}
	if Equal(Int(5), Float(5)) {
		t.Error("Equal is identity: INT != FLOAT")
	}
	if !Equal(Null(), Null()) {
		t.Error("NULL equals NULL")
	}
	if !Equal(Float(math.NaN()), Float(math.NaN())) {
		t.Error("NaN identity-equals NaN")
	}
	if !Equal(Text("x"), Text("x")) || Equal(Text("x"), Text("y")) {
		t.Error("Text Equal wrong")
	}
}

func TestStringRendering(t *testing.T) {
	cases := map[string]Value{
		"NULL": Null(), "42": Int(42), "3.5": Float(3.5),
		"paris": Text("paris"), "true": Bool(true), "false": Bool(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%v.String()=%q want %q", v.Kind(), got, want)
		}
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	vals := []Value{
		Null(), Int(0), Int(-1), Int(1 << 40), Float(3.14), Float(math.Inf(-1)),
		Text(""), Text("hello"), Text(string([]byte{0, 1, 2, 0xff})),
		Bool(true), Bool(false), Time(time.Unix(123456789, 987654321)),
	}
	for _, v := range vals {
		enc := Encode(nil, v)
		got, n, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%v): %v", v, err)
		}
		if n != len(enc) {
			t.Fatalf("Decode(%v) consumed %d of %d", v, n, len(enc))
		}
		if !Equal(got, v) {
			t.Fatalf("roundtrip %v -> %v", v, got)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{byte(KindInt)},          // truncated int
		{byte(KindFloat), 1, 2},  // truncated float
		{byte(KindBool)},         // truncated bool
		{byte(KindText), 5, 'a'}, // short text
		{0xEE},                   // unknown kind
	}
	for i, b := range bad {
		if _, _, err := Decode(b); err == nil {
			t.Errorf("case %d: Decode(%v) should fail", i, b)
		}
	}
}

func TestRowCodecRoundtrip(t *testing.T) {
	row := []Value{Int(7), Text("bob"), Null(), Float(2.25), Bool(true)}
	enc := EncodeRow(nil, row)
	got, n, err := DecodeRow(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("DecodeRow: n=%d err=%v", n, err)
	}
	if len(got) != len(row) {
		t.Fatalf("row length %d want %d", len(got), len(row))
	}
	for i := range row {
		if !Equal(got[i], row[i]) {
			t.Fatalf("field %d: %v want %v", i, got[i], row[i])
		}
	}
}

func TestRowCodecEmpty(t *testing.T) {
	enc := EncodeRow(nil, nil)
	got, _, err := DecodeRow(enc)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty row roundtrip: %v %v", got, err)
	}
}

// Property: the storage codec round-trips arbitrary ints, floats, strings.
func TestQuickCodecRoundtrip(t *testing.T) {
	if err := quick.Check(func(i int64, f float64, s string, b bool) bool {
		for _, v := range []Value{Int(i), Float(f), Text(s), Bool(b)} {
			enc := Encode(nil, v)
			got, n, err := Decode(enc)
			if err != nil || n != len(enc) || !Equal(got, v) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ordered-key encoding preserves Compare for ints.
func TestQuickOrderedKeyInt(t *testing.T) {
	if err := quick.Check(func(a, b int64) bool {
		ka := AppendOrderedKey(nil, Int(a))
		kb := AppendOrderedKey(nil, Int(b))
		c, _ := Compare(Int(a), Int(b))
		return bytes.Compare(ka, kb) == c
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ordered-key encoding preserves Compare for floats. INT and
// FLOAT keys do not share one order: an index probe is converted to its
// column's kind first (the engine's TestIndexedIntPredicatesMatchScan).
func TestQuickOrderedKeyFloat(t *testing.T) {
	if err := quick.Check(func(a, b float64) bool {
		ka := AppendOrderedKey(nil, Float(a))
		kb := AppendOrderedKey(nil, Float(b))
		c, err := Compare(Float(a), Float(b))
		return err == nil && bytes.Compare(ka, kb) == c
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOrderedKeyIntLength: an INT key is its tag and the value's
// significant bytes, so an id below 2²⁴ takes 4.
func TestOrderedKeyIntLength(t *testing.T) {
	for _, c := range []struct {
		v int64
		n int
	}{{0, 1}, {-1, 1}, {1, 2}, {-2, 2}, {255, 2}, {-256, 2}, {256, 3}, {-257, 3},
		{10_000_000, 4}, {1<<53 + 1, 8}, {math.MaxInt64, 9}, {math.MinInt64, 9}} {
		if k := AppendOrderedKey(nil, Int(c.v)); len(k) != c.n {
			t.Errorf("key of %d is %x, %d bytes; want %d", c.v, k, len(k), c.n)
		}
	}
}

// Property: ordered-key encoding preserves lexicographic order for text,
// including strings containing NUL bytes.
func TestQuickOrderedKeyText(t *testing.T) {
	if err := quick.Check(func(a, b string) bool {
		ka := AppendOrderedKey(nil, Text(a))
		kb := AppendOrderedKey(nil, Text(b))
		c, _ := Compare(Text(a), Text(b))
		return bytes.Compare(ka, kb) == c
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOrderedKeyTextNulEscape(t *testing.T) {
	a := Text("a")
	b := Text("a\x00b")
	ka := AppendOrderedKey(nil, a)
	kb := AppendOrderedKey(nil, b)
	if bytes.Compare(ka, kb) != -1 {
		t.Fatalf("%q should order before %q", "a", "a\\x00b")
	}
}

func TestOrderedKeyNullFirst(t *testing.T) {
	kn := AppendOrderedKey(nil, Null())
	for _, v := range []Value{Int(math.MinInt64), Float(math.Inf(-1)), Text(""), Bool(false)} {
		if bytes.Compare(kn, AppendOrderedKey(nil, v)) != -1 {
			t.Errorf("NULL key must sort before %v", v)
		}
	}
}

func TestOrderedKeyTimeOrder(t *testing.T) {
	t1 := Time(time.Unix(100, 0))
	t2 := Time(time.Unix(200, 0))
	if bytes.Compare(AppendOrderedKey(nil, t1), AppendOrderedKey(nil, t2)) != -1 {
		t.Fatal("time keys out of order")
	}
}

// intEdges are the INTs at the varint's width steps — the zig-zag form
// of ±63 and -64 takes one byte, 64 and ±8191 and -8192 two, 8192 three —
// the two extremes (ten bytes), and the smallest generalization-tree
// stored form (gentree.NodeToStored(1), five bytes), each with its
// encoded length.
var intEdges = []struct {
	v    int64
	size int
}{
	{0, 2}, {63, 2}, {-63, 2}, {64, 3}, {-64, 2}, {8191, 3}, {-8191, 3},
	{8192, 4}, {-8192, 3}, {math.MinInt64, 11}, {math.MaxInt64, 11},
	{0x1DB0_0000 + 1, 6},
}

func TestEncodedSizeMatchesEncode(t *testing.T) {
	vals := []Value{
		Null(), Int(0), Int(-1), Int(1 << 40), Float(3.14), Bool(true),
		Time(time.Unix(0, 0).UTC()), Text(""), Text("x"), Text(string(make([]byte, 200))),
		Text(string(make([]byte, 40000))),
	}
	for _, e := range intEdges {
		vals = append(vals, Int(e.v))
		if got := len(Encode(nil, Int(e.v))); got != e.size {
			t.Errorf("INT %d encodes to %d bytes, want %d", e.v, got, e.size)
		}
	}
	for _, v := range vals {
		if got, want := EncodedSize(v), len(Encode(nil, v)); got != want {
			t.Errorf("EncodedSize(%v) = %d, encoded length %d", v, got, want)
		}
	}
	if got, want := RowEncodedSize(vals), len(EncodeRow(nil, vals)); got != want {
		t.Errorf("RowEncodedSize = %d, encoded length %d", got, want)
	}
}

// TestSkipMatchesDecode: Skip steps over exactly the bytes Decode
// consumes, whatever follows, and refuses every truncation.
func TestSkipMatchesDecode(t *testing.T) {
	vals := []Value{
		Null(), Int(-1), Float(3.14), Bool(true), Time(time.Unix(7, 0)),
		Text(""), Text("x"), Text(string(make([]byte, 200))), Text(string(make([]byte, 40000))),
	}
	for _, e := range intEdges {
		vals = append(vals, Int(e.v))
	}
	for _, v := range vals {
		enc := Encode(nil, v)
		got, want, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, v) {
			t.Errorf("Decode(Encode(%v)) = %v", v, got)
		}
		if got, err := Skip(append(enc, byte(KindInt), 1, 2)); err != nil || got != want {
			t.Errorf("Skip(%v) = %d, %v; Decode consumes %d", v, got, err, want)
		}
		for n := range len(enc) {
			if _, err := Skip(enc[:n]); err == nil {
				t.Errorf("Skip of %v cut to %d of %d bytes: no error", v, n, len(enc))
			}
		}
	}
	if _, err := Skip([]byte{0x7f}); err == nil {
		t.Error("Skip of an unknown kind byte: no error")
	}
}

// TestDecodeRefusesNonCanonical: bytes Encode never writes are refused
// by Decode and Skip alike, by name — so no two encodings decode to one
// value, and every accepted value re-encodes to the bytes it came from.
func TestDecodeRefusesNonCanonical(t *testing.T) {
	// An INT whose varint has nine continuation bytes; full capacity, so
	// each append below copies.
	ten := append([]byte{byte(KindInt)}, bytes.Repeat([]byte{0xff}, 9)...)[:10:10]
	for _, c := range []struct {
		name string
		enc  []byte
		want error
	}{
		{"INT zero in two bytes", []byte{byte(KindInt), 0x80, 0x00}, ErrNonCanonical},
		{"INT 1 in three bytes", []byte{byte(KindInt), 0x82, 0x80, 0x00}, ErrNonCanonical},
		{"INT of eleven bytes", append(append([]byte{byte(KindInt)}, bytes.Repeat([]byte{0x80}, 10)...), 0x01), ErrVarintOverflow},
		{"INT past 64 bits in ten bytes", append(ten, 0x02), ErrVarintOverflow},
		{"TEXT length in two bytes", []byte{byte(KindText), 0x81, 0x00, 'x'}, ErrNonCanonical},
		{"BOOL byte 2", []byte{byte(KindBool), 2}, ErrNonCanonical},
	} {
		if _, _, err := Decode(c.enc); !errors.Is(err, c.want) {
			t.Errorf("%s: Decode err = %v, want %v", c.name, err, c.want)
		}
		if _, err := Skip(c.enc); !errors.Is(err, c.want) {
			t.Errorf("%s: Skip err = %v, want %v", c.name, err, c.want)
		}
	}
	// The widest canonical INT is ten bytes with a tenth byte of 1.
	if v, n, err := Decode(append(ten, 0x01)); err != nil || n != 11 || v.Int() != math.MinInt64 {
		t.Errorf("ten-byte INT: %v, %d, %v; want MinInt64 in 11 bytes", v, n, err)
	}
}

// FuzzValueCodec: on arbitrary bytes, a value Decode accepts re-encodes
// to exactly the prefix it consumed, Skip agrees with Decode on accepting
// and on the length, and EncodedSize agrees with Encode.
func FuzzValueCodec(f *testing.F) {
	for _, e := range intEdges {
		f.Add(Encode(nil, Int(e.v)))
	}
	for _, v := range []Value{Null(), Float(-0.5), Bool(true), Time(time.Unix(7, 0)), Text("amsterdam")} {
		f.Add(Encode(nil, v))
	}
	f.Add([]byte{byte(KindInt), 0x80, 0x00})
	f.Add([]byte{byte(KindText), 0x81, 0x00, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := Decode(data)
		sn, serr := Skip(data)
		if (err == nil) != (serr == nil) || (err == nil && sn != n) {
			t.Fatalf("Decode consumes %d (err %v), Skip %d (err %v)", n, err, sn, serr)
		}
		if err != nil {
			return
		}
		enc := Encode(nil, v)
		if !bytes.Equal(enc, data[:n]) {
			t.Fatalf("%v decoded from %x re-encodes to %x", v, data[:n], enc)
		}
		if EncodedSize(v) != len(enc) {
			t.Fatalf("EncodedSize(%v) = %d, encoded length %d", v, EncodedSize(v), len(enc))
		}
	})
}

func TestDecodeRowHostileCount(t *testing.T) {
	// A row claiming 2^60 fields in a 3-byte payload must error, not
	// attempt the allocation.
	enc := binary.AppendUvarint(nil, 1<<60)
	enc = append(enc, byte(KindNull), byte(KindNull))
	if _, _, err := DecodeRow(enc); err == nil {
		t.Fatal("want error for hostile field count")
	}
}

// FuzzOrderedKey checks the key codec on pairs of values of one kind:
// the order of their keys is Compare's, and neither key is a proper
// prefix of the other.
func FuzzOrderedKey(f *testing.F) {
	edges := []int64{0, -1, 1, 1<<53 - 1, 1 << 53, 1<<53 + 1, -(1<<53 - 1), -(1 << 53), -(1<<53 + 1),
		255, 256, -256, -257, math.MinInt64, math.MaxInt64}
	for _, a := range edges {
		for _, b := range edges {
			f.Add(a, b, float64(a), float64(b), "", "a")
		}
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1, math.SmallestNonzeroFloat64}
	for _, fa := range specials {
		for _, fb := range specials {
			f.Add(int64(0), int64(-1), fa, fb, "a\x00", "a")
		}
	}
	f.Fuzz(func(t *testing.T, a, b int64, fa, fb float64, sa, sb string) {
		pairs := [][2]Value{
			{Int(a), Int(b)},
			{Time(time.Unix(0, a)), Time(time.Unix(0, b))},
			{Float(fa), Float(fb)},
			{Text(sa), Text(sb)},
			{Bool(a&1 == 1), Bool(b&1 == 1)},
		}
		for _, p := range pairs {
			ka, kb := AppendOrderedKey(nil, p[0]), AppendOrderedKey(nil, p[1])
			c, err := Compare(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			if got := bytes.Compare(ka, kb); got != c {
				t.Fatalf("%v vs %v: keys %x, %x compare %d, values %d", p[0], p[1], ka, kb, got, c)
			}
			if len(ka) != len(kb) && (bytes.HasPrefix(ka, kb) || bytes.HasPrefix(kb, ka)) {
				t.Fatalf("%v vs %v: key %x and key %x, one a proper prefix of the other", p[0], p[1], ka, kb)
			}
		}
	})
}
