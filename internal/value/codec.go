package value

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrNonCanonical reports bytes Encode never writes: a varint (an INT, or
// a TEXT length) with more bytes than its value needs, or a BOOL byte
// other than 0 and 1. Decode and Skip refuse them, so every accepted
// value re-encodes to exactly the bytes it was read from.
var ErrNonCanonical = errors.New("value: non-canonical encoding")

// ErrVarintOverflow reports a varint longer than 10 bytes, or one whose
// tenth byte carries bits past 64.
var ErrVarintOverflow = errors.New("value: varint overflows 64 bits")

// Encode appends the compact storage encoding of v to dst and returns the
// extended slice. Layout: 1 byte kind, then a kind-specific payload:
//
//	INT    zig-zag varint (binary.AppendVarint), 1 to 10 bytes
//	FLOAT  8 bytes, big-endian IEEE 754 bits
//	TIME   8 bytes, big-endian Unix nanoseconds
//	BOOL   1 byte, 0 or 1
//	TEXT   uvarint length, then the bytes
//	NULL   nothing
func Encode(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindInt:
		dst = binary.AppendVarint(dst, v.i)
	case KindTime:
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.i))
	case KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.f))
	case KindBool:
		dst = append(dst, byte(v.i))
	case KindText:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	}
	return dst
}

// uvarint reads the canonical uvarint at the start of src: the one
// binary.AppendUvarint writes, so neither longer than its value needs
// nor past 64 bits. what names the field in errors.
func uvarint(src []byte, what string) (uint64, int, error) {
	x, n := binary.Uvarint(src)
	switch {
	case n == 0:
		return 0, 0, fmt.Errorf("value: short %s", what)
	case n < 0:
		return 0, 0, fmt.Errorf("%w: %s", ErrVarintOverflow, what)
	case n > 1 && src[n-1] == 0:
		return 0, 0, fmt.Errorf("%w: %s varint of %d bytes is not minimal", ErrNonCanonical, what, n)
	}
	return x, n, nil
}

// unzigzag inverts the zig-zag mapping binary.AppendVarint applies.
func unzigzag(u uint64) int64 {
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

// Decode reads one encoded value from src, returning the value and the
// number of bytes consumed.
func Decode(src []byte) (Value, int, error) {
	if len(src) == 0 {
		return Value{}, 0, fmt.Errorf("value: decode on empty input")
	}
	k := Kind(src[0])
	rest := src[1:]
	switch k {
	case KindNull:
		return Null(), 1, nil
	case KindInt:
		u, n, err := uvarint(rest, "INT payload")
		if err != nil {
			return Value{}, 0, err
		}
		return Int(unzigzag(u)), 1 + n, nil
	case KindTime:
		if len(rest) < 8 {
			return Value{}, 0, fmt.Errorf("value: short TIME payload")
		}
		return Value{kind: k, i: int64(binary.BigEndian.Uint64(rest))}, 9, nil
	case KindFloat:
		if len(rest) < 8 {
			return Value{}, 0, fmt.Errorf("value: short FLOAT payload")
		}
		return Float(math.Float64frombits(binary.BigEndian.Uint64(rest))), 9, nil
	case KindBool:
		if len(rest) < 1 {
			return Value{}, 0, fmt.Errorf("value: short BOOL payload")
		}
		if rest[0] > 1 {
			return Value{}, 0, fmt.Errorf("%w: BOOL byte 0x%02x", ErrNonCanonical, rest[0])
		}
		return Bool(rest[0] != 0), 2, nil
	case KindText:
		n, sz, err := uvarint(rest, "TEXT length")
		if err != nil {
			return Value{}, 0, err
		}
		if uint64(len(rest)-sz) < n {
			return Value{}, 0, fmt.Errorf("value: short TEXT payload (want %d have %d)", n, len(rest)-sz)
		}
		return Text(string(rest[sz : sz+int(n)])), 1 + sz + int(n), nil
	default:
		return Value{}, 0, fmt.Errorf("value: unknown kind byte 0x%02x", src[0])
	}
}

// Skip returns the length of the encoded value at the start of src — the
// byte count Decode would consume — without materializing it, so a
// caller can step over the columns of an encoded row without allocating.
// It refuses every input Decode refuses.
func Skip(src []byte) (int, error) {
	if len(src) == 0 {
		return 0, fmt.Errorf("value: skip on empty input")
	}
	n := 0
	switch Kind(src[0]) {
	case KindNull:
		return 1, nil
	case KindInt:
		_, sz, err := uvarint(src[1:], "INT payload")
		if err != nil {
			return 0, err
		}
		return 1 + sz, nil
	case KindTime, KindFloat:
		n = 9
	case KindBool:
		if len(src) > 1 && src[1] > 1 {
			return 0, fmt.Errorf("%w: BOOL byte 0x%02x", ErrNonCanonical, src[1])
		}
		n = 2
	case KindText:
		l, sz, err := uvarint(src[1:], "TEXT length")
		if err != nil {
			return 0, err
		}
		if l > uint64(len(src)) {
			return 0, fmt.Errorf("value: short TEXT payload")
		}
		n = 1 + sz + int(l)
	default:
		return 0, fmt.Errorf("value: unknown kind byte 0x%02x", src[0])
	}
	if n > len(src) {
		return 0, fmt.Errorf("value: short %s payload", Kind(src[0]))
	}
	return n, nil
}

// EncodedSize returns len(Encode(nil, v)) without building the buffer.
func EncodedSize(v Value) int {
	switch v.kind {
	case KindInt:
		return 1 + uvarintLen(uint64(v.i<<1^v.i>>63)) // zig-zag, as AppendVarint
	case KindTime, KindFloat:
		return 9
	case KindBool:
		return 2
	case KindText:
		return 1 + uvarintLen(uint64(len(v.s))) + len(v.s)
	default: // KindNull
		return 1
	}
}

// RowEncodedSize returns len(EncodeRow(nil, row)) without building the
// buffer, so callers can size-check rows cheaply.
func RowEncodedSize(row []Value) int {
	n := uvarintLen(uint64(len(row)))
	for _, v := range row {
		n += EncodedSize(v)
	}
	return n
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// EncodeRow appends the encoding of a row (a value sequence, prefixed by
// its length) to dst.
func EncodeRow(dst []byte, row []Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = Encode(dst, v)
	}
	return dst
}

// DecodeRow reads a row encoded by EncodeRow and returns it with the
// number of bytes consumed.
func DecodeRow(src []byte) ([]Value, int, error) {
	n, sz := binary.Uvarint(src)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("value: bad row length")
	}
	// Every encoded value needs at least one byte; a count beyond the
	// remaining input is corrupt, and checking before make() keeps a
	// hostile count from forcing a huge allocation.
	if n > uint64(len(src)-sz) {
		return nil, 0, fmt.Errorf("value: row claims %d fields in %d bytes", n, len(src)-sz)
	}
	off := sz
	row := make([]Value, 0, n)
	for i := uint64(0); i < n; i++ {
		v, c, err := Decode(src[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("value: row field %d: %w", i, err)
		}
		row = append(row, v)
		off += c
	}
	return row, off, nil
}

// AppendOrderedKey appends an order-preserving, prefix-free byte
// encoding of v: for any two values a, b of one kind, bytes.Compare of
// their keys is Compare(a, b), and no key is a proper prefix of another
// key of its kind (so a key followed by 0x00 bounds its kind's keys that
// sort after it). Keys of different kinds order by kind, NULL first, and
// an INT key never equals a FLOAT one: a probe of an index must be
// converted to the kind of the column the index keys first. The keys
// are B+tree keys, built at open and never stored. Layout: a tag byte,
// then a payload:
//
//	NULL   0x00, nothing
//	INT    0x01..0x12, the tag carrying the sign and the length of the
//	       value's shortest big-endian two's-complement form without its
//	       leading sign bytes — 0 to 8 bytes, a negative value's tag
//	       below a positive one's, a longer negative below a shorter
//	       and a longer positive above a shorter — then that form
//	FLOAT  0x20, 8 bytes of sign-flipped IEEE 754 bits (−0 as 0, and
//	       every NaN as 8 zero bytes, below −Inf, as Compare orders it)
//	TIME   0x21..0x32, Unix nanoseconds as INT's tag and form
//	TEXT   0x40, the bytes with 0x00 escaped as 0x00 0xFF, then 0x00 0x00
//	BOOL   0x50, 0 or 1
//
// An INT id below 2²⁴ takes 4 bytes; every INT keeps its exact value.
func AppendOrderedKey(dst []byte, v Value) []byte {
	const (
		tagNull  = 0x00
		tagInt   = 0x01
		tagFloat = 0x20
		tagTime  = 0x21
		tagText  = 0x40
		tagBool  = 0x50
	)
	switch v.kind {
	case KindNull:
		return append(dst, tagNull)
	case KindInt:
		return appendOrderedInt(dst, tagInt, v.i)
	case KindFloat:
		return appendOrderedFloat(append(dst, tagFloat), v.f)
	case KindTime:
		return appendOrderedInt(dst, tagTime, v.i)
	case KindText:
		dst = append(dst, tagText)
		// Escape 0x00 as 0x00 0xFF so the 0x00 0x00 terminator cannot
		// appear inside the payload, keeping prefix ordering correct.
		for i := 0; i < len(v.s); i++ {
			c := v.s[i]
			if c == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, c)
			}
		}
		return append(dst, 0x00, 0x00)
	case KindBool:
		dst = append(dst, tagBool)
		return append(dst, byte(v.i))
	default:
		panic("value: AppendOrderedKey on unknown kind")
	}
}

// appendOrderedInt appends i under tags base..base+17: i ≥ 0 of n
// significant bytes takes tag base+9+n, and i < 0 takes base+8−n for the
// n significant bytes of ^i (−1 takes n = 0); then the low n bytes of
// i, big-endian.
func appendOrderedInt(dst []byte, base byte, i int64) []byte {
	u := uint64(i)
	n := (bits.Len64(u) + 7) / 8
	tag := base + 9 + byte(n)
	if i < 0 {
		n = (bits.Len64(^u) + 7) / 8
		tag = base + 8 - byte(n)
	}
	dst = append(dst, tag)
	for sh := 8 * (n - 1); sh >= 0; sh -= 8 {
		dst = append(dst, byte(u>>sh))
	}
	return dst
}

func appendOrderedFloat(dst []byte, f float64) []byte {
	var u uint64
	switch {
	case f != f: // NaN sorts first
	case f == 0: // −0 equals 0
		u = 1 << 63
	default:
		u = math.Float64bits(f)
		if u&(1<<63) != 0 {
			u = ^u // negative floats: flip all bits
		} else {
			u ^= 1 << 63 // positive floats: flip sign bit
		}
	}
	return binary.BigEndian.AppendUint64(dst, u)
}
