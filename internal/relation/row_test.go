package relation

import (
	"bytes"
	"math"
	"testing"
)

// rowOf encodes t under s and views the encoding as a Row.
func rowOf(s *Schema, t Tuple) Row {
	r, err := s.Row(s.MustEncode(t))
	if err != nil {
		panic(err)
	}
	return r
}

// rowAgrees reports the first accessor of r, a row of s, that disagrees
// with the decoded tuple t, or "".
func rowAgrees(s *Schema, r Row, t Tuple) string {
	for i := range s.NumAttrs() {
		a, v := s.Attr(i), t[i]
		switch a.Type {
		case Int64:
			if r.Int(i) != v.I {
				return a.Name
			}
		case Float64:
			if got := r.Float(i); math.Float64bits(got) != math.Float64bits(v.F) {
				return a.Name
			}
		case String:
			if string(r.Bytes(i)) != v.S {
				return a.Name
			}
		case Bytes:
			if !bytes.Equal(r.Bytes(i), v.B) {
				return a.Name
			}
		case Set:
			if r.SetLen(i) != len(v.SetElems) {
				return a.Name
			}
			for k, e := range v.SetElems {
				if r.SetElem(i, k) != e {
					return a.Name
				}
			}
		}
	}
	return ""
}

func TestRowAccessors(t *testing.T) {
	s := allTypesSchema()
	in := Tuple{IntValue(-42), FloatValue(math.Pi), StringValue("hello"),
		BytesValue([]byte{0, 1, 0, 0}), SetValue(9, 3, 3, 1)}
	r := rowOf(s, in)
	out, err := s.Decode(r.Encoded())
	if err != nil {
		t.Fatal(err)
	}
	if bad := rowAgrees(s, r, out); bad != "" {
		t.Fatalf("accessor of %q disagrees with Decode", bad)
	}
	if r.SetLen(4) != 3 || r.SetElem(4, 0) != 1 || r.SetElem(4, 2) != 9 {
		t.Error("set elements not in canonical order")
	}
	if _, err := s.Row(r.Encoded()[1:]); err == nil {
		t.Error("short encoding accepted")
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = r.Int(0) + int64(r.Float(1)) + int64(len(r.Bytes(2))+len(r.Bytes(3))+r.SetLen(4)) + int64(r.SetElem(4, 1))
	}); n != 0 {
		t.Errorf("accessors allocate %v times", n)
	}
}

// FuzzRowAccessors feeds arbitrary bytes, cut or zero-padded to the tuple
// size of a schema with all five attribute types, to Row: no accessor may
// panic, and wherever Decode succeeds every accessor agrees with the
// decoded value.
func FuzzRowAccessors(f *testing.F) {
	s := allTypesSchema()
	f.Add(s.MustEncode(Tuple{IntValue(5), FloatValue(-0.5), StringValue("ab"), BytesValue([]byte{1}), SetValue(1, 2)}))
	f.Add(bytes.Repeat([]byte{0xFF}, s.TupleSize()))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append(data, make([]byte, s.TupleSize())...)[:s.TupleSize()]
		r, err := s.Row(data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.NumAttrs() {
			switch s.Attr(i).Type {
			case Int64:
				r.Int(i)
			case Float64:
				r.Float(i)
			case String, Bytes:
				r.Bytes(i)
			case Set:
				for k := range r.SetLen(i) {
					r.SetElem(i, k)
				}
			}
		}
		tup, err := s.Decode(data)
		if err != nil {
			return
		}
		if bad := rowAgrees(s, r, tup); bad != "" {
			t.Fatalf("accessor of %q disagrees with Decode", bad)
		}
	})
}
