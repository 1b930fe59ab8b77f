package core

import (
	"fmt"
	"testing"

	"ppj/internal/relation"
	"ppj/internal/sim"
)

// genSkewed builds a pair of keyed relations where one hot key covers 90%
// of the rows on both sides — the expansion step's worst case, since a
// single group owns almost the whole S·S output range.
func genSkewed(seed uint64, nA, nB int) (*relation.Relation, *relation.Relation) {
	rng := relation.NewRand(seed)
	const hot = int64(7)
	build := func(n int, coldBase int64) *relation.Relation {
		r := relation.NewRelation(relation.KeyedSchema())
		hotRows := n * 9 / 10
		for i := 0; i < n; i++ {
			key := hot
			if i >= hotRows {
				key = coldBase + int64(i)
			}
			r.MustAppend(relation.Tuple{relation.IntValue(key), relation.IntValue(rng.Int64N(1 << 30))})
		}
		return r
	}
	return build(nA, 1000), build(nB, 2000)
}

// TestJoin7MatchesReference checks Algorithm 7 against the reference join
// across the size edge cases around the transfer batch, mixed-multiplicity
// duplicate keys, and 90%-skewed keys — asserting the exact closed-form
// transfer count every time.
func TestJoin7MatchesReference(t *testing.T) {
	cases := []struct {
		name       string
		relA, relB *relation.Relation
	}{
		{"empty", relation.NewRelation(relation.KeyedSchema()), relation.NewRelation(relation.KeyedSchema())},
	}
	for _, n := range []int{1, 63, 64, 65} {
		s := n / 2
		if s == 0 {
			s = n
		}
		relA, relB := genJoinSized(uint64(100+n), n, n, s)
		cases = append(cases, struct {
			name       string
			relA, relB *relation.Relation
		}{fmt.Sprintf("n=%d", n), relA, relB})
	}
	for seed := uint64(0); seed < 3; seed++ {
		relA := relation.GenKeyed(relation.NewRand(40+seed), 30, 6)
		relB := relation.GenKeyed(relation.NewRand(80+seed), 40, 6)
		cases = append(cases, struct {
			name       string
			relA, relB *relation.Relation
		}{fmt.Sprintf("dups/seed=%d", seed), relA, relB})
	}
	skA, skB := genSkewed(5, 30, 30)
	cases = append(cases, struct {
		name       string
		relA, relB *relation.Relation
	}{"skew90", skA, skB})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := newEnv(t, 8, 17, tc.relA, tc.relB)
			pred := keyEqui(t, tc.relA, tc.relB)
			res, err := Join7(env.t, env.tabA, env.tabB, pred)
			if err != nil {
				t.Fatal(err)
			}
			want := relation.ReferenceJoin(tc.relA, tc.relB, pred)
			if res.OutputLen != int64(want.Len()) {
				t.Fatalf("OutputLen = %d, want exact join size %d", res.OutputLen, want.Len())
			}
			checkJoin(t, env, res, pred)
			wantTr := Join7Transfers(env.tabA.N, env.tabB.N, res.OutputLen)
			if got := int64(res.Stats.Transfers()); got != wantTr {
				t.Fatalf("transfers = %d, want closed form %d", got, wantTr)
			}
		})
	}
}

// TestJoin7Validation pins the admissibility errors.
func TestJoin7Validation(t *testing.T) {
	relA, relB := genJoinSized(1, 4, 4, 2)
	env := newEnv(t, 8, 3, relA, relB)
	if _, err := Join7(env.t, env.tabA, env.tabB, nil); err == nil {
		t.Fatal("Join7 accepted a nil predicate")
	}
	if _, _, err := join7(nil, env.tabA, env.tabB, keyEqui(t, relA, relB), nil, "", ""); err == nil {
		t.Fatal("join7 accepted an empty fleet")
	}
}

// alg7InvarianceInputs builds two input pairs that agree on every public
// parameter — |A| = |B| = 12, S = 8 — but differ in contents, key values,
// and duplicate multiplicity structure (run 1: eight 1×1 groups; run 2: one
// 2×4 group). The duplicate handling is exactly where a naive sort-based
// join leaks, so the multiplicities are the interesting axis.
func alg7InvarianceInputs(variant int, seed uint64) (*relation.Relation, *relation.Relation) {
	if variant == 0 {
		return genJoinSized(seed, 12, 12, 8)
	}
	rng := relation.NewRand(seed)
	a := relation.NewRelation(relation.KeyedSchema())
	for i := 0; i < 2; i++ { // one key, multiplicity 2
		a.MustAppend(relation.Tuple{relation.IntValue(5), relation.IntValue(rng.Int64N(1 << 30))})
	}
	for i := 0; i < 10; i++ {
		a.MustAppend(relation.Tuple{relation.IntValue(100 + int64(i)), relation.IntValue(rng.Int64N(1 << 30))})
	}
	b := relation.NewRelation(relation.KeyedSchema())
	for i := 0; i < 4; i++ { // matched by multiplicity 4: S = 2·4 = 8
		b.MustAppend(relation.Tuple{relation.IntValue(5), relation.IntValue(rng.Int64N(1 << 30))})
	}
	for i := 0; i < 8; i++ {
		b.MustAppend(relation.Tuple{relation.IntValue(900 + int64(i)), relation.IntValue(rng.Int64N(1 << 30))})
	}
	return a, b
}

// TestAlg7AccessPatternInvariance pins Algorithm 7's obliviousness at the
// counter level, serially and per device: executions over inputs that agree
// only on (|A|, |B|, S) — differing in contents, keys, duplicate
// multiplicities, and coprocessor seeds — must charge identical sim.Stats,
// and at P > 1 identical stats on every device.
func TestAlg7AccessPatternInvariance(t *testing.T) {
	const nA, nB, s = 12, 12, 8

	t.Run("serial", func(t *testing.T) {
		run := func(variant int, dataSeed, copSeed uint64) sim.Stats {
			t.Helper()
			relA, relB := alg7InvarianceInputs(variant, dataSeed)
			h := sim.NewHost(0)
			cop := newCop(t, h, 8, copSeed)
			tabs := loadTables(t, h, cop.Sealer(), relA, relB)
			res, err := Join7(cop, tabs[0], tabs[1], keyEqui(t, relA, relB))
			if err != nil {
				t.Fatal(err)
			}
			if res.OutputLen != s {
				t.Fatalf("output length %d, want exact S=%d", res.OutputLen, s)
			}
			return res.Stats
		}
		s1, s2 := run(0, 1001, 7), run(1, 2002, 8)
		if s1.Transfers() == 0 || s1.Comparisons == 0 {
			t.Fatalf("degenerate run: %+v", s1)
		}
		if s1 != s2 {
			t.Fatalf("alg7 access pattern depends on tuple contents:\n run1 %+v\n run2 %+v", s1, s2)
		}
		if got, want := int64(s1.Transfers()), Join7Transfers(nA, nB, s); got != want {
			t.Fatalf("transfers = %d, want closed form %d", got, want)
		}
	})

	for _, p := range []int{2, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			run := func(variant int, dataSeed uint64) []sim.Stats {
				t.Helper()
				relA, relB := alg7InvarianceInputs(variant, dataSeed)
				h := sim.NewHost(0)
				cops := newFleet(t, h, p, 8)
				tabs := loadTables(t, h, cops[0].Sealer(), relA, relB)
				res, _, err := join7(cops, tabs[0], tabs[1], keyEqui(t, relA, relB), nil, "", "")
				if err != nil {
					t.Fatal(err)
				}
				if res.OutputLen != s {
					t.Fatalf("output length %d, want exact S=%d", res.OutputLen, s)
				}
				per := make([]sim.Stats, p)
				for i, c := range cops {
					per[i] = c.Stats()
				}
				return per
			}
			per1, per2 := run(0, 3003), run(1, 4004)
			for d := range per1 {
				if per1[d] != per2[d] {
					t.Fatalf("device %d schedule depends on tuple contents:\n run1 %+v\n run2 %+v", d, per1[d], per2[d])
				}
			}
		})
	}
}

// TestParallelJoin7Correctness runs the parallel variant over duplicate-
// heavy inputs for several fleet sizes and checks the reference join.
func TestParallelJoin7Correctness(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			relA := relation.GenKeyed(relation.NewRand(uint64(p)), 21, 5)
			relB := relation.GenKeyed(relation.NewRand(uint64(p)^0xBEEF), 27, 5)
			h := sim.NewHost(0)
			cops := newFleet(t, h, p, 8)
			tabs := loadTables(t, h, cops[0].Sealer(), relA, relB)
			pred := keyEqui(t, relA, relB)
			res, _, err := join7(cops, tabs[0], tabs[1], pred, nil, "", "")
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeOutput(cops[0], res)
			if err != nil {
				t.Fatal(err)
			}
			want := relation.ReferenceJoin(relA, relB, pred)
			if !relation.SameMultiset(got, want) {
				t.Fatalf("p=%d mismatch: got %d rows, want %d", p, got.Len(), want.Len())
			}
		})
	}
}
