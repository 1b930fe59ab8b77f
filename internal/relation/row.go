package relation

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Row is one encoded tuple viewed through its schema: the thing every join
// predicate reads. Every tuple of a schema has the same encoded size and
// every attribute the same offset (§3.4.3's Fixed Size principle), so each
// accessor reads its attribute's span in place, without decoding the row
// and without allocating. A Row aliases the bytes it views; it is valid as
// long as they are.
//
// The accessors read what Encode wrote: Int and Float the Int64 and Float64
// attributes, Bytes the String attributes without their zero padding and
// the Bytes attributes at full width, SetLen and SetElem the elements of a
// Set attribute in their canonical (sorted, distinct) order. Each agrees
// with Decode wherever Decode succeeds.
type Row struct {
	s *Schema
	b []byte
}

// Row views b, one encoded tuple of s, without copying it. b must be
// exactly TupleSize bytes long.
func (s *Schema) Row(b []byte) (Row, error) {
	if len(b) != s.size {
		return Row{}, fmt.Errorf("relation: encoded tuple is %d bytes, schema %s needs %d",
			len(b), s, s.size)
	}
	return Row{s: s, b: b}, nil
}

// Encoded returns the row's encoding, aliased, not copied.
func (r Row) Encoded() []byte { return r.b }

// field is attribute i's span of the encoding.
func (r Row) field(i int) []byte { return r.b[r.s.offs[i]:r.s.offs[i+1]] }

// Int reads Int64 attribute i.
func (r Row) Int(i int) int64 { return int64(r.word(r.s.offs[i])) }

// Float reads Float64 attribute i.
func (r Row) Float(i int) float64 { return math.Float64frombits(r.word(r.s.offs[i])) }

// word reads the 8-byte attribute at byte offset off; the numeric
// predicates resolve their offsets once, when they are built.
func (r Row) word(off int) uint64 { return binary.BigEndian.Uint64(r.b[off:]) }

// Bytes reads String or Bytes attribute i in place: a String without its
// zero padding, as Decode trims it, a Bytes value at its full width.
func (r Row) Bytes(i int) []byte {
	f := r.field(i)
	if r.s.attrs[i].Type == String {
		return trimPadding(f)
	}
	return f
}

// SetLen is the cardinality of Set attribute i (its 2-byte prefix),
// clamped to the capacity so that no element read leaves the span.
func (r Row) SetLen(i int) int {
	f := r.field(i)
	return min(int(binary.BigEndian.Uint16(f)), (len(f)-2)/4)
}

// SetElem is element k, 0 ≤ k < SetLen(i), of Set attribute i.
func (r Row) SetElem(i, k int) uint32 { return binary.BigEndian.Uint32(r.b[r.s.offs[i]+2+4*k:]) }

// trimPadding drops the zero padding after a String value.
func trimPadding(f []byte) []byte {
	end := len(f)
	for end > 0 && f[end-1] == 0 {
		end--
	}
	return f[:end]
}
