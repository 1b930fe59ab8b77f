package relation

import (
	"bytes"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

func allTypesSchema() *Schema {
	return MustSchema(
		Attr{Name: "i", Type: Int64},
		Attr{Name: "f", Type: Float64},
		Attr{Name: "s", Type: String, Width: 16},
		Attr{Name: "b", Type: Bytes, Width: 4},
		Attr{Name: "set", Type: Set, Width: 8},
	)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := allTypesSchema()
	in := Tuple{
		IntValue(-42),
		FloatValue(math.Pi),
		StringValue("hello"),
		BytesValue([]byte{1, 2, 3, 4}),
		SetValue(9, 3, 3, 7),
	}
	enc, err := s.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != s.TupleSize() {
		t.Fatalf("encoded size %d != TupleSize %d", len(enc), s.TupleSize())
	}
	out, err := s.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].I != -42 || out[1].F != math.Pi || out[2].S != "hello" {
		t.Fatalf("decoded scalars wrong: %+v", out)
	}
	if !bytes.Equal(out[3].B, []byte{1, 2, 3, 4}) {
		t.Fatalf("decoded bytes wrong: %v", out[3].B)
	}
	if !reflect.DeepEqual(out[4].SetElems, []uint32{3, 7, 9}) {
		t.Fatalf("decoded set wrong: %v", out[4].SetElems)
	}
}

func TestEncodeFixedSize(t *testing.T) {
	// Fixed Size principle: every tuple of a schema encodes to the same
	// length regardless of content.
	s := allTypesSchema()
	a := s.MustEncode(Tuple{IntValue(0), FloatValue(0), StringValue(""), BytesValue(nil), SetValue()})
	b := s.MustEncode(Tuple{IntValue(1 << 62), FloatValue(-1e300),
		StringValue("sixteen-bytes!!!"), BytesValue([]byte{255, 255, 255, 255}),
		SetValue(1, 2, 3, 4, 5, 6, 7, 8)})
	if len(a) != len(b) || len(a) != s.TupleSize() {
		t.Fatalf("lengths differ: %d vs %d (want %d)", len(a), len(b), s.TupleSize())
	}
}

func TestEncodeErrors(t *testing.T) {
	s := allTypesSchema()
	base := Tuple{IntValue(0), FloatValue(0), StringValue(""), BytesValue(nil), SetValue()}

	long := append(Tuple(nil), base...)
	long[2] = StringValue("this string is definitely longer than sixteen bytes")
	if _, err := s.Encode(long); err == nil {
		t.Error("oversized string accepted")
	}

	big := append(Tuple(nil), base...)
	big[3] = BytesValue(make([]byte, 5))
	if _, err := s.Encode(big); err == nil {
		t.Error("oversized bytes accepted")
	}

	overset := append(Tuple(nil), base...)
	overset[4] = SetValue(1, 2, 3, 4, 5, 6, 7, 8, 9)
	if _, err := s.Encode(overset); err == nil {
		t.Error("oversized set accepted")
	}

	if _, err := s.Encode(base[:2]); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := s.Decode(make([]byte, 3)); err == nil {
		t.Error("short buffer accepted by Decode")
	}
}

func TestDecodeRejectsCorruptSetCardinality(t *testing.T) {
	s := MustSchema(Attr{Name: "s", Type: Set, Width: 2})
	enc := s.MustEncode(Tuple{SetValue(1)})
	enc[0], enc[1] = 0xFF, 0xFF // claim cardinality 65535 > capacity 2
	if _, err := s.Decode(enc); err == nil {
		t.Fatal("corrupt cardinality accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	s := KeyedSchema()
	f := func(key, payload int64) bool {
		in := Tuple{IntValue(key), IntValue(payload)}
		out, err := s.Decode(s.MustEncode(in))
		if err != nil {
			return false
		}
		return out[0].I == key && out[1].I == payload
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetEncodingCanonical(t *testing.T) {
	// Set equality must become byte equality of the encoding, regardless of
	// element order or duplicates (used by decoy comparisons).
	s := MustSchema(Attr{Name: "s", Type: Set, Width: 8})
	f := func(elems []uint32) bool {
		if len(elems) > 8 {
			elems = elems[:8]
		}
		shuffled := append([]uint32(nil), elems...)
		rng := rand.New(rand.NewPCG(1, 2))
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		a := s.MustEncode(Tuple{SetValue(elems...)})
		b := s.MustEncode(Tuple{SetValue(shuffled...)})
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJoinTuples(t *testing.T) {
	a := Tuple{IntValue(1)}
	b := Tuple{IntValue(2), IntValue(3)}
	j := JoinTuples(a, b)
	if len(j) != 3 || j[0].I != 1 || j[2].I != 3 {
		t.Fatalf("JoinTuples = %+v", j)
	}
}

func TestRelationAppend(t *testing.T) {
	r := NewRelation(KeyedSchema())
	if err := r.Append(Tuple{IntValue(1), IntValue(2)}); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(Tuple{IntValue(1)}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	encs, err := r.EncodeAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(encs) != 1 || len(encs[0]) != r.Schema.TupleSize() {
		t.Fatalf("EncodeAll wrong shape")
	}
}

// TestRelationAppendEncoded: AppendEncoded refuses exactly the byte strings
// Decode refuses, and what it admits is the decoded tuple, which Append's
// validating Encode also accepts.
func TestRelationAppendEncoded(t *testing.T) {
	s := allTypesSchema()
	valid := s.MustEncode(Tuple{IntValue(-3), FloatValue(2.5), StringValue("ab"), BytesValue([]byte{9}), SetValue(4, 1, 4)})
	setAt, _ := s.Span(4)
	inputs := [][]byte{valid, valid[:len(valid)-1], append(valid[:len(valid):len(valid)], 0), nil}
	rng := rand.New(rand.NewPCG(7, 8))
	for i := 0; i < 256; i++ {
		b := make([]byte, s.TupleSize())
		for j := range b {
			b[j] = byte(rng.UintN(256))
		}
		b[setAt], b[setAt+1] = 0, byte(rng.UintN(12)) // set cardinality 0..11 against capacity 8
		inputs = append(inputs, b)
	}
	var refused int
	for i, b := range inputs {
		r := NewRelation(s)
		want, derr := s.Decode(b)
		if err := r.AppendEncoded(b); (err == nil) != (derr == nil) {
			t.Fatalf("input %d: AppendEncoded err %v, Decode err %v", i, err, derr)
		} else if err != nil {
			refused++
			if r.Len() != 0 {
				t.Fatalf("input %d: refused row was appended", i)
			}
		} else if r.Len() != 1 || !reflect.DeepEqual(r.Rows[0], want) || NewRelation(s).Append(want) != nil {
			t.Fatalf("input %d: appended %+v, decoded %+v (must re-encode)", i, r.Rows, want)
		}
	}
	if refused == 0 || refused == len(inputs) {
		t.Fatalf("inputs exercised one side only: %d of %d refused", refused, len(inputs))
	}
}
