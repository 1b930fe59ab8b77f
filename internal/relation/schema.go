// Package relation provides the relational substrate for the privacy
// preserving join algorithms: typed schemas, a fixed-size binary tuple codec,
// join predicates (arbitrary, equality, range, similarity), and synthetic
// workload generators modelled on the paper's motivating applications.
//
// The paper (Li, "Privacy Preserving Joins on Secure Coprocessors",
// UCB/EECS-2008-158; ICDE 2008) assumes fixed-size tuples so that the host
// cannot infer anything from ciphertext lengths (§4.1, §5.2.1). Every tuple
// of a schema therefore encodes to exactly Schema.TupleSize bytes; variable
// content (strings, sets) is truncated or zero-padded to its declared width.
package relation

import (
	"errors"
	"fmt"
	"strings"
)

// AttrType enumerates the supported attribute types.
type AttrType uint8

const (
	// Int64 is a signed 64-bit integer attribute (8 bytes).
	Int64 AttrType = iota
	// Float64 is an IEEE-754 double attribute (8 bytes).
	Float64
	// String is a fixed-width byte string attribute (Width bytes; shorter
	// values are zero-padded, longer values are rejected by Encode).
	String
	// Bytes is a fixed-width opaque byte attribute (Width bytes).
	Bytes
	// Set is a fixed-capacity set of 32-bit elements used by similarity
	// predicates (4 bytes per slot plus a 2-byte cardinality prefix).
	Set
)

// String implements fmt.Stringer.
func (t AttrType) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	case Bytes:
		return "bytes"
	case Set:
		return "set"
	default:
		return fmt.Sprintf("AttrType(%d)", uint8(t))
	}
}

// Attr describes one attribute of a schema.
type Attr struct {
	Name string
	Type AttrType
	// Width is the payload width in bytes for String and Bytes attributes
	// and the maximum cardinality for Set attributes. It is ignored for
	// Int64 and Float64.
	Width int
}

// size returns the encoded size of the attribute in bytes.
func (a Attr) size() int {
	switch a.Type {
	case Int64, Float64:
		return 8
	case String, Bytes:
		return a.Width
	case Set:
		return 2 + 4*a.Width
	default:
		return 0
	}
}

// Schema is an ordered list of attributes. A Schema is immutable after
// construction with NewSchema.
type Schema struct {
	attrs []Attr
	// offs[i] is attribute i's offset in every encoded tuple; offs[n] is
	// the tuple size.
	offs   []int
	size   int
	byName map[string]int
}

// NewSchema validates the attribute list and computes the fixed tuple size.
func NewSchema(attrs ...Attr) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, errors.New("relation: schema needs at least one attribute")
	}
	s := &Schema{byName: make(map[string]int, len(attrs)), offs: make([]int, 1, len(attrs)+1)}
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("relation: attribute %d has empty name", i)
		}
		if _, dup := s.byName[a.Name]; dup {
			return nil, fmt.Errorf("relation: duplicate attribute %q", a.Name)
		}
		switch a.Type {
		case Int64, Float64:
			// fixed size, Width ignored
		case String, Bytes, Set:
			if a.Width <= 0 {
				return nil, fmt.Errorf("relation: attribute %q needs positive width", a.Name)
			}
		default:
			return nil, fmt.Errorf("relation: attribute %q has unknown type", a.Name)
		}
		s.byName[a.Name] = i
		s.size += a.size()
		s.offs = append(s.offs, s.size)
	}
	s.attrs = append([]Attr(nil), attrs...)
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and examples.
func MustSchema(attrs ...Attr) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumAttrs returns the number of attributes.
func (s *Schema) NumAttrs() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attr { return s.attrs[i] }

// Index returns the position of the named attribute, or -1.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// TupleSize is the exact encoded size of every tuple of this schema.
func (s *Schema) TupleSize() int { return s.size }

// Span returns the byte range [from, to) attribute i occupies in every
// encoded tuple of this schema.
func (s *Schema) Span(i int) (from, to int) { return s.offs[i], s.offs[i+1] }

// Equal reports whether two schemas have identical attribute lists.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if o == nil || len(s.attrs) != len(o.attrs) {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i] != o.attrs[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(name type[width], ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", a.Name, a.Type)
		switch a.Type {
		case String, Bytes, Set:
			fmt.Fprintf(&b, "[%d]", a.Width)
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Concat builds the result schema of joining schemas in order, prefixing
// attribute names with tN_ to avoid collisions, mirroring SQL's qualified
// output columns.
func Concat(schemas ...*Schema) (*Schema, error) {
	var attrs []Attr
	for ti, s := range schemas {
		if s == nil {
			return nil, fmt.Errorf("relation: nil schema at position %d", ti)
		}
		for _, a := range s.attrs {
			a.Name = fmt.Sprintf("t%d_%s", ti, a.Name)
			attrs = append(attrs, a)
		}
	}
	return NewSchema(attrs...)
}
