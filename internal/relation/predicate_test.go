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
	a := rowOf(s, Tuple{IntValue(7), IntValue(1)})
	b := rowOf(s, Tuple{IntValue(7), IntValue(2)})
	c := rowOf(s, Tuple{IntValue(8), IntValue(2)})
	if !eq.Match(a, b) {
		t.Error("equal keys do not match")
	}
	if eq.Match(a, c) {
		t.Error("different keys match")
	}
	if eq.KeyIndexA() != 0 || eq.KeyIndexB() != 0 {
		t.Error("key indexes wrong")
	}
	if eq.CompareKeys(a.field(0), c.field(0)) >= 0 || eq.CompareKeys(c.field(0), a.field(0)) <= 0 {
		t.Error("CompareKeys ordering wrong")
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
		x := rowOf(s, Tuple{IntValue(1), FloatValue(2), StringValue("x"), BytesValue([]byte{1, 0, 0, 0}), SetValue(5, 6)})
		y := rowOf(s, Tuple{IntValue(1), FloatValue(2), StringValue("x"), BytesValue([]byte{1, 0, 0, 0}), SetValue(6, 5, 5)})
		z := rowOf(s, Tuple{IntValue(2), FloatValue(3), StringValue("x\x01"), BytesValue([]byte{1, 0, 0, 1}), SetValue(5)})
		if !eq.Match(x, y) {
			t.Errorf("%s: identical values do not match", attr)
		}
		if eq.Match(x, z) {
			t.Errorf("%s: different values match", attr)
		}
	}
}

func TestBandPredicate(t *testing.T) {
	s := KeyedSchema()
	band, err := NewBand(s, "key", s, "key", 2)
	if err != nil {
		t.Fatal(err)
	}
	a := rowOf(s, Tuple{IntValue(10), IntValue(0)})
	for _, tc := range []struct {
		k    int64
		want bool
	}{{8, true}, {10, true}, {12, true}, {13, false}, {7, false}} {
		b := rowOf(s, Tuple{IntValue(tc.k), IntValue(0)})
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
	if !lt.Match(rowOf(s, Tuple{IntValue(1), IntValue(0)}), rowOf(s, Tuple{IntValue(2), IntValue(0)})) {
		t.Error("1 < 2 false")
	}
	if lt.Match(rowOf(s, Tuple{IntValue(2), IntValue(0)}), rowOf(s, Tuple{IntValue(2), IntValue(0)})) {
		t.Error("2 < 2 true")
	}
}

// jaccardOf is the coefficient a Jaccard predicate's Match compares with
// its threshold: the largest threshold, among the coefficients of sets of
// up to eight elements, at which x and y still match.
func jaccardOf(t *testing.T, x, y []uint32) float64 {
	t.Helper()
	s := SequenceSchema(8)
	a, b := rowOf(s, Tuple{IntValue(0), SetValue(x...)}), rowOf(s, Tuple{IntValue(1), SetValue(y...)})
	best := -1.0
	for den := 1; den <= 16; den++ {
		for num := 0; num <= den; num++ {
			f := float64(num) / float64(den)
			p, err := NewJaccard(s, "kmers", s, "kmers", math.Nextafter(f, -1))
			if err != nil {
				t.Fatal(err)
			}
			if p.Match(a, b) && f > best {
				best = f
			}
		}
	}
	return best
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
		if got := jaccardOf(t, tc.x, tc.y); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Jaccard(%v,%v) = %g, want %g", tc.x, tc.y, got, tc.want)
		}
	}
}

func TestJaccardSymmetric(t *testing.T) {
	s := SequenceSchema(8)
	p, err := NewJaccard(s, "kmers", s, "kmers", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x, y []uint32) bool {
		x, y = x[:min(len(x), 8)], y[:min(len(y), 8)]
		a, b := rowOf(s, Tuple{IntValue(0), SetValue(x...)}), rowOf(s, Tuple{IntValue(1), SetValue(y...)})
		return p.Match(a, b) == p.Match(b, a)
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
	a := rowOf(s, Tuple{IntValue(1), SetValue(1, 2, 3, 4)})
	b := rowOf(s, Tuple{IntValue(2), SetValue(1, 2, 3, 9)}) // J = 3/5 > 0.5
	c := rowOf(s, Tuple{IntValue(3), SetValue(7, 8, 9, 10)})
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
	a := rowOf(s, Tuple{IntValue(1), IntValue(0)})
	b := rowOf(s, Tuple{IntValue(1), IntValue(9)})
	if !mp.Satisfy([]Row{a, b}) {
		t.Error("pairwise equal keys unsatisfied")
	}
	if err := CheckArity(mp, 2); err != nil {
		t.Errorf("two tables refused: %v", err)
	}
	for _, j := range []int{1, 3} {
		if err := CheckArity(mp, j); err == nil {
			t.Errorf("pairwise predicate over %d tables accepted", j)
		}
	}
	if mp.String() != eq.String() {
		t.Error("description not forwarded")
	}
}

func TestPredicateFuncAdapters(t *testing.T) {
	p := PredicateFunc{Fn: func(a, b Row) bool { return true }, Desc: "always"}
	if !p.Match(Row{}, Row{}) || p.String() != "always" {
		t.Error("PredicateFunc adapter broken")
	}
	mp := MultiPredicateFunc{Fn: func(rs []Row) bool { return len(rs) == 3 }, Desc: "arity3"}
	if !mp.Satisfy(make([]Row, 3)) || mp.Satisfy(nil) || mp.String() != "arity3" {
		t.Error("MultiPredicateFunc adapter broken")
	}
	if err := CheckArity(mp, 5); err != nil {
		t.Errorf("a predicate without an arity refused: %v", err)
	}
}
