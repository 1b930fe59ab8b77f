package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Value is a dynamically typed attribute value. Exactly one field is used,
// selected by the attribute's declared type.
type Value struct {
	I int64
	F float64
	S string
	B []byte
	// SetElems holds a Set attribute's elements; order is irrelevant and
	// duplicates are removed during encoding.
	SetElems []uint32
}

// IntValue, FloatValue, StringValue, BytesValue and SetValue are convenience
// constructors for Value.
func IntValue(v int64) Value         { return Value{I: v} }
func FloatValue(v float64) Value     { return Value{F: v} }
func StringValue(v string) Value     { return Value{S: v} }
func BytesValue(v []byte) Value      { return Value{B: v} }
func SetValue(elems ...uint32) Value { return Value{SetElems: elems} }

// Tuple is a decoded row: one Value per schema attribute.
type Tuple []Value

// Encode serialises t under schema s into exactly s.TupleSize() bytes.
func (s *Schema) Encode(t Tuple) ([]byte, error) {
	if len(t) != len(s.attrs) {
		return nil, fmt.Errorf("relation: tuple has %d values, schema %s has %d attributes",
			len(t), s, len(s.attrs))
	}
	out := make([]byte, 0, s.size)
	for i, a := range s.attrs {
		v := t[i]
		switch a.Type {
		case Int64:
			out = binary.BigEndian.AppendUint64(out, uint64(v.I))
		case Float64:
			out = binary.BigEndian.AppendUint64(out, math.Float64bits(v.F))
		case String:
			if len(v.S) > a.Width {
				return nil, fmt.Errorf("relation: string %q exceeds width %d of attribute %q",
					v.S, a.Width, a.Name)
			}
			out = append(out, v.S...)
			out = append(out, make([]byte, a.Width-len(v.S))...)
		case Bytes:
			if len(v.B) > a.Width {
				return nil, fmt.Errorf("relation: %d bytes exceed width %d of attribute %q",
					len(v.B), a.Width, a.Name)
			}
			out = append(out, v.B...)
			out = append(out, make([]byte, a.Width-len(v.B))...)
		case Set:
			elems := normalizeSet(v.SetElems)
			if len(elems) > a.Width {
				return nil, fmt.Errorf("relation: set of %d elements exceeds capacity %d of attribute %q",
					len(elems), a.Width, a.Name)
			}
			out = binary.BigEndian.AppendUint16(out, uint16(len(elems)))
			for _, e := range elems {
				out = binary.BigEndian.AppendUint32(out, e)
			}
			out = append(out, make([]byte, 4*(a.Width-len(elems)))...)
		}
	}
	return out, nil
}

// MustEncode is Encode that panics on error; for tests and generators.
func (s *Schema) MustEncode(t Tuple) []byte {
	b, err := s.Encode(t)
	if err != nil {
		panic(err)
	}
	return b
}

// Decode deserialises a tuple previously produced by Encode.
func (s *Schema) Decode(b []byte) (Tuple, error) {
	if len(b) != s.size {
		return nil, fmt.Errorf("relation: encoded tuple is %d bytes, schema %s needs %d",
			len(b), s, s.size)
	}
	t := make(Tuple, len(s.attrs))
	off := 0
	for i, a := range s.attrs {
		switch a.Type {
		case Int64:
			t[i].I = int64(binary.BigEndian.Uint64(b[off:]))
			off += 8
		case Float64:
			t[i].F = math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
			off += 8
		case String:
			t[i].S = string(trimPadding(b[off : off+a.Width]))
			off += a.Width
		case Bytes:
			t[i].B = append([]byte(nil), b[off:off+a.Width]...)
			off += a.Width
		case Set:
			n := int(binary.BigEndian.Uint16(b[off:]))
			off += 2
			if n > a.Width {
				return nil, fmt.Errorf("relation: set cardinality %d exceeds capacity %d", n, a.Width)
			}
			elems := make([]uint32, n)
			for j := 0; j < n; j++ {
				elems[j] = binary.BigEndian.Uint32(b[off+4*j:])
			}
			t[i].SetElems = elems
			off += 4 * a.Width
		}
	}
	return t, nil
}

// normalizeSet sorts and deduplicates set elements so that encoding is
// canonical (set equality becomes byte equality of the encoding).
func normalizeSet(elems []uint32) []uint32 {
	if len(elems) == 0 {
		return nil
	}
	out := append([]uint32(nil), elems...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// JoinTuples concatenates tuples in order, producing a row of the Concat
// schema.
func JoinTuples(tuples ...Tuple) Tuple {
	var out Tuple
	for _, t := range tuples {
		out = append(out, t...)
	}
	return out
}

// Relation is an in-memory table: a schema plus rows. It is the plaintext
// view used by data providers and by the reference join; the privacy
// preserving algorithms only ever see encrypted encodings of the rows.
type Relation struct {
	Schema *Schema
	Rows   []Tuple
}

// NewRelation constructs an empty relation over s.
func NewRelation(s *Schema) *Relation { return &Relation{Schema: s} }

// Append validates and adds a row.
func (r *Relation) Append(t Tuple) error {
	if _, err := r.Schema.Encode(t); err != nil {
		return err
	}
	r.Rows = append(r.Rows, t)
	return nil
}

// AppendEncoded decodes b under the relation's schema and adds the row. It
// refuses exactly what Decode refuses: a decoded tuple always encodes, so
// Append's validating Encode would be thrown away.
func (r *Relation) AppendEncoded(b []byte) error {
	t, err := r.Schema.Decode(b)
	if err != nil {
		return err
	}
	r.Rows = append(r.Rows, t)
	return nil
}

// MustAppend is Append that panics on error.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.Rows) }

// EncodeAll returns the fixed-size encodings of every row.
func (r *Relation) EncodeAll() ([][]byte, error) {
	out := make([][]byte, len(r.Rows))
	for i, t := range r.Rows {
		b, err := r.Schema.Encode(t)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		out[i] = b
	}
	return out, nil
}
