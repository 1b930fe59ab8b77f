package relation

import (
	"testing"
)

func TestReferenceJoinEqui(t *testing.T) {
	rng := NewRand(1)
	a := GenKeyed(rng, 20, 8)
	b := GenKeyed(rng, 30, 8)
	eq, _ := NewEqui(a.Schema, "key", b.Schema, "key")
	out := ReferenceJoin(a, b, eq)

	// Cross-check against a per-key multiplicity computation.
	countA := map[int64]int{}
	countB := map[int64]int{}
	for _, ta := range a.Rows {
		countA[ta[0].I]++
	}
	for _, tb := range b.Rows {
		countB[tb[0].I]++
	}
	want := 0
	for k, ca := range countA {
		want += ca * countB[k]
	}
	if out.Len() != want {
		t.Fatalf("join size %d, want %d", out.Len(), want)
	}
	for _, row := range out.Rows {
		if row[0].I != row[2].I {
			t.Fatalf("non-matching row in output: %+v", row)
		}
	}
}

func TestReferenceMultiJoinMatchesPairwise(t *testing.T) {
	rng := NewRand(2)
	a := GenKeyed(rng, 10, 5)
	b := GenKeyed(rng, 12, 5)
	eq, _ := NewEqui(a.Schema, "key", b.Schema, "key")
	two := ReferenceJoin(a, b, eq)
	multi := ReferenceMultiJoin([]*Relation{a, b}, Pairwise(eq))
	if !SameMultiset(two, multi) {
		t.Fatal("2-way and multi-way reference joins differ")
	}
}

func TestReferenceMultiJoinThreeWay(t *testing.T) {
	mk := func(keys ...int64) *Relation {
		r := NewRelation(KeyedSchema())
		for i, k := range keys {
			r.MustAppend(Tuple{IntValue(k), IntValue(int64(i))})
		}
		return r
	}
	a, b, c := mk(1, 2), mk(1, 3), mk(1, 1)
	pred := MultiPredicateFunc{
		Fn: func(rs []Row) bool {
			return rs[0].Int(0) == rs[1].Int(0) && rs[1].Int(0) == rs[2].Int(0)
		},
		Desc: "all keys equal",
	}
	out := ReferenceMultiJoin([]*Relation{a, b, c}, pred)
	// key 1: 1 in a, 1 in b, 2 in c -> 2 rows
	if out.Len() != 2 {
		t.Fatalf("3-way join size %d, want 2", out.Len())
	}
	if got := CountMultiMatches([]*Relation{a, b, c}, pred); got != 2 {
		t.Fatalf("CountMultiMatches = %d, want 2", got)
	}
}

func TestMaxMatches(t *testing.T) {
	rng := NewRand(3)
	a, b := GenWithMatchBound(rng, 10, 40, 7)
	eq, _ := NewEqui(a.Schema, "key", b.Schema, "key")
	if got := MaxMatches(a, b, eq); got != 7 {
		t.Fatalf("MaxMatches = %d, want 7", got)
	}
}

func TestGenWithMatchBoundInvariant(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		rng := NewRand(seed)
		nA, nB, n := 5+int(seed), 20+int(seed)*3, 3+int(seed%4)
		a, b := GenWithMatchBound(rng, nA, nB, n)
		if a.Len() != nA || b.Len() != nB {
			t.Fatalf("seed %d: sizes %d/%d, want %d/%d", seed, a.Len(), b.Len(), nA, nB)
		}
		eq, _ := NewEqui(a.Schema, "key", b.Schema, "key")
		if got := MaxMatches(a, b, eq); got != n {
			t.Fatalf("seed %d: MaxMatches = %d, want %d", seed, got, n)
		}
	}
}

func TestSameMultiset(t *testing.T) {
	r1 := NewRelation(KeyedSchema())
	r2 := NewRelation(KeyedSchema())
	r1.MustAppend(Tuple{IntValue(1), IntValue(2)})
	r1.MustAppend(Tuple{IntValue(1), IntValue(2)})
	r2.MustAppend(Tuple{IntValue(1), IntValue(2)})
	if SameMultiset(r1, r2) {
		t.Error("different multiplicities reported equal")
	}
	r2.MustAppend(Tuple{IntValue(1), IntValue(2)})
	if !SameMultiset(r1, r2) {
		t.Error("equal multisets reported different")
	}
}

func TestGenerators(t *testing.T) {
	rng := NewRand(4)
	p := GenPersons(rng, 50, 100)
	if p.Len() != 50 {
		t.Fatalf("GenPersons len = %d", p.Len())
	}
	if _, err := p.EncodeAll(); err != nil {
		t.Fatalf("persons encode: %v", err)
	}
	seq := GenSequences(rng, 20, 6, 8, 40)
	if seq.Len() != 20 {
		t.Fatalf("GenSequences len = %d", seq.Len())
	}
	if _, err := seq.EncodeAll(); err != nil {
		t.Fatalf("sequences encode: %v", err)
	}
	z := GenKeyedZipf(rng, 200, 10, 1.2)
	if z.Len() != 200 {
		t.Fatalf("GenKeyedZipf len = %d", z.Len())
	}
	// Zipf skew: most common key should dominate the least common.
	counts := map[int64]int{}
	for _, row := range z.Rows {
		counts[row[0].I]++
	}
	if counts[0] <= counts[9]*2 {
		t.Errorf("Zipf skew too flat: key0=%d key9=%d", counts[0], counts[9])
	}
}
