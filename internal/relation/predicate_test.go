package relation

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEquiPredicate(t *testing.T) {
	s := KeyedSchema()
	eq, err := NewEqui(s, "key", s, "key")
	if err != nil {
		t.Fatal(err)
	}
	a := Tuple{IntValue(7), IntValue(1)}
	b := Tuple{IntValue(7), IntValue(2)}
	c := Tuple{IntValue(8), IntValue(2)}
	if !eq.Match(a, b) {
		t.Error("equal keys do not match")
	}
	if eq.Match(a, c) {
		t.Error("different keys match")
	}
	if eq.KeyIndexA() != 0 || eq.KeyIndexB() != 0 {
		t.Error("key indexes wrong")
	}
	if !eq.Less(a, c) || eq.Less(c, a) {
		t.Error("Less ordering wrong")
	}
	if eq.Compare(a, b) != 0 || eq.Compare(a, c) != -1 || eq.Compare(c, a) != 1 {
		t.Error("Compare wrong")
	}
}

func TestEquiErrors(t *testing.T) {
	s := KeyedSchema()
	s2 := MustSchema(Attr{Name: "key", Type: Float64})
	if _, err := NewEqui(s, "nope", s, "key"); err == nil {
		t.Error("missing attrA accepted")
	}
	if _, err := NewEqui(s, "key", s, "nope"); err == nil {
		t.Error("missing attrB accepted")
	}
	if _, err := NewEqui(s, "key", s2, "key"); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestEquiOnAllTypes(t *testing.T) {
	s := allTypesSchema()
	for _, attr := range []string{"i", "f", "s", "b", "set"} {
		eq, err := NewEqui(s, attr, s, attr)
		if err != nil {
			t.Fatalf("%s: %v", attr, err)
		}
		x := Tuple{IntValue(1), FloatValue(2), StringValue("x"), BytesValue([]byte{1, 0, 0, 0}), SetValue(5, 6)}
		y := Tuple{IntValue(1), FloatValue(2), StringValue("x"), BytesValue([]byte{1, 0, 0, 0}), SetValue(6, 5, 5)}
		if !eq.Match(x, y) {
			t.Errorf("%s: identical values do not match", attr)
		}
	}
}

func TestBandPredicate(t *testing.T) {
	s := KeyedSchema()
	band, err := NewBand(s, "key", s, "key", 2)
	if err != nil {
		t.Fatal(err)
	}
	a := Tuple{IntValue(10), IntValue(0)}
	for _, tc := range []struct {
		k    int64
		want bool
	}{{8, true}, {10, true}, {12, true}, {13, false}, {7, false}} {
		b := Tuple{IntValue(tc.k), IntValue(0)}
		if got := band.Match(a, b); got != tc.want {
			t.Errorf("band |10-%d|<=2 = %v, want %v", tc.k, got, tc.want)
		}
	}
	if _, err := NewBand(s, "key", PersonSchema(), "name", 1); err == nil {
		t.Error("non-numeric band accepted")
	}
}

func TestLessThanPredicate(t *testing.T) {
	s := KeyedSchema()
	lt, err := NewLessThan(s, "key", s, "key")
	if err != nil {
		t.Fatal(err)
	}
	if !lt.Match(Tuple{IntValue(1), IntValue(0)}, Tuple{IntValue(2), IntValue(0)}) {
		t.Error("1 < 2 false")
	}
	if lt.Match(Tuple{IntValue(2), IntValue(0)}, Tuple{IntValue(2), IntValue(0)}) {
		t.Error("2 < 2 true")
	}
}

func TestJaccardCoefficient(t *testing.T) {
	cases := []struct {
		x, y []uint32
		want float64
	}{
		{nil, nil, 0},
		{[]uint32{1}, nil, 0},
		{[]uint32{1, 2}, []uint32{1, 2}, 1},
		{[]uint32{1, 2}, []uint32{2, 3}, 1.0 / 3.0},
		{[]uint32{1, 2, 3, 4}, []uint32{3, 4, 5, 6}, 2.0 / 6.0},
		{[]uint32{1, 1, 2}, []uint32{2, 2, 1}, 1}, // duplicates ignored
	}
	for _, tc := range cases {
		if got := JaccardCoefficient(tc.x, tc.y); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Jaccard(%v,%v) = %g, want %g", tc.x, tc.y, got, tc.want)
		}
	}
}

func TestJaccardSymmetric(t *testing.T) {
	f := func(x, y []uint32) bool {
		return JaccardCoefficient(x, y) == JaccardCoefficient(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJaccardPredicate(t *testing.T) {
	s := SequenceSchema(8)
	p, err := NewJaccard(s, "kmers", s, "kmers", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	a := Tuple{IntValue(1), SetValue(1, 2, 3, 4)}
	b := Tuple{IntValue(2), SetValue(1, 2, 3, 9)} // J = 3/5 > 0.5
	c := Tuple{IntValue(3), SetValue(7, 8, 9, 10)}
	if !p.Match(a, b) {
		t.Error("similar sets do not match")
	}
	if p.Match(a, c) {
		t.Error("dissimilar sets match")
	}
	if _, err := NewJaccard(s, "seqid", s, "kmers", 0.5); err == nil {
		t.Error("non-set attribute accepted")
	}
}

func TestPairwise(t *testing.T) {
	s := KeyedSchema()
	eq, _ := NewEqui(s, "key", s, "key")
	mp := Pairwise(eq)
	a := Tuple{IntValue(1), IntValue(0)}
	b := Tuple{IntValue(1), IntValue(9)}
	if !mp.Satisfy([]Tuple{a, b}) {
		t.Error("pairwise equal keys unsatisfied")
	}
	if mp.Satisfy([]Tuple{a}) {
		t.Error("wrong arity satisfied")
	}
	if mp.String() != eq.String() {
		t.Error("description not forwarded")
	}
}

func TestPredicateFuncAdapters(t *testing.T) {
	p := PredicateFunc{Fn: func(a, b Tuple) bool { return true }, Desc: "always"}
	if !p.Match(nil, nil) || p.String() != "always" {
		t.Error("PredicateFunc adapter broken")
	}
	mp := MultiPredicateFunc{Fn: func(ts []Tuple) bool { return len(ts) == 3 }, Desc: "arity3"}
	if !mp.Satisfy(make([]Tuple, 3)) || mp.Satisfy(nil) || mp.String() != "arity3" {
		t.Error("MultiPredicateFunc adapter broken")
	}
}
