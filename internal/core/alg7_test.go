package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"strings"
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

// alg7Model is Algorithm 7's closed form for a run on devices of memory m,
// through the algorithm table's row: uncached for a nil use, else cached
// with use's hit bits.
func alg7Model(aN, bN, s, m int64, use *CacheUse) int64 {
	in, u := Inputs{}, CacheUse{}
	if use != nil {
		in.Cache, u = newMemCache(), *use
	}
	return Algorithms[6].Transfers([]int64{aN, bN}, s, m, in, u)
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
			wantTr := alg7Model(env.tabA.N, env.tabB.N, res.OutputLen, 8, nil)
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
		if got, want := int64(s1.Transfers()), alg7Model(nA, nB, s, 8, nil); got != want {
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

// TestJoin7EveryMemory runs Algorithm 7 at device memories from M = 1 (one
// cell per comparator) through M = 64 (B = MaxBlock) and the unbounded
// default, uncached and cached cold, on one and two devices: the join is
// the reference join, the transfers are the table row's closed form at M,
// and from M = 64 on they are Join7Transfers and Join7CachedTransfers.
func TestJoin7EveryMemory(t *testing.T) {
	relA := relation.GenKeyed(relation.NewRand(61), 40, 9)
	relB := relation.GenKeyed(relation.NewRand(62), 33, 9)
	pred := keyEqui(t, relA, relB)
	want := relation.ReferenceJoin(relA, relB, pred)
	s := int64(want.Len())
	for _, mem := range []int{1, 2, 3, 4, 7, 8, 16, 63, 64, 1000, 0} {
		for _, p := range []int{1, 2} {
			for _, cached := range []bool{false, true} {
				name := fmt.Sprintf("M=%d P=%d cached=%v", mem, p, cached)
				h := sim.NewHost(0)
				cops := newFleet(t, h, p, mem)
				tabs := loadTables(t, h, cops[0].Sealer(), relA, relB)
				in := Inputs{Pred: pred}
				var use *CacheUse
				if cached {
					in.Cache, in.KeyA, in.KeyB, use = newMemCache(), "A", "B", &CacheUse{}
				}
				res, _, err := Algorithms[6].Run(cops, tabs, in)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, err := DecodeOutput(cops[0], res)
				if err != nil {
					t.Fatal(err)
				}
				if !relation.SameMultiset(got, want) {
					t.Fatalf("%s: %d rows, want the reference join's %d", name, got.Len(), want.Len())
				}
				tr := int64(res.Stats.Transfers())
				if model := alg7Model(40, 33, s, int64(mem), use); tr != model {
					t.Fatalf("%s: %d transfers, closed form at M says %d", name, tr, model)
				}
				frozen := Join7Transfers(40, 33, s)
				if cached {
					frozen = Join7CachedTransfers(40, 33, s, false, false)
				}
				if (mem == 0 || mem >= 64) != (tr == frozen) {
					t.Fatalf("%s: %d transfers against the M ≥ 64 form %d", name, tr, frozen)
				}
				for i, c := range cops {
					if c.MemoryFree() != c.Memory() {
						t.Fatalf("%s: device %d kept %d cells granted", name, i, c.Memory()-c.MemoryFree())
					}
				}
			}
		}
	}
}

// TestJoin7GrantedMemoryIsRefused pins that B is a function of the
// configured M, not of what is free when the join starts: with one cell of
// M = 64 already granted, the join does not fall back to a smaller B (a
// schedule the table row does not price) but is refused by the networks'
// 2B grant.
func TestJoin7GrantedMemoryIsRefused(t *testing.T) {
	relA := relation.GenKeyed(relation.NewRand(63), 40, 9)
	relB := relation.GenKeyed(relation.NewRand(64), 33, 9)
	pred := keyEqui(t, relA, relB)
	h := sim.NewHost(0)
	cops := newFleet(t, h, 1, 64)
	tabs := loadTables(t, h, cops[0].Sealer(), relA, relB)
	release, err := cops[0].Grant(1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if _, _, err := Algorithms[6].Run(cops, tabs, Inputs{Pred: pred}); err == nil {
		t.Fatal("join ran with one cell of M granted away; want the 2B grant's refusal")
	}
}

// compareDecoded three-way-compares two decoded key values of type typ.
func compareDecoded(typ relation.AttrType, a, b relation.Value) int {
	switch typ {
	case relation.Int64:
		return cmp.Compare(a.I, b.I)
	case relation.Float64:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
		return 0
	case relation.String:
		return strings.Compare(a.S, b.S)
	default:
		return bytes.Compare(a.B, b.B)
	}
}

// TestA7CompareKeysMatchesEqui is the property test of the in-place key
// order: for every orderable key type — strings and bytes at different
// widths per side, the key at a different offset on each side —
// Equi.CompareKeys on two working cells' encoded keys gives the sign of
// the decoded values' order, and lessKeyTag is that order with A rows
// first on ties.
func TestA7CompareKeysMatchesEqui(t *testing.T) {
	rng := relation.NewRand(71)
	for _, kt := range []struct {
		typ    relation.AttrType
		wA, wB int
		value  func() relation.Value
	}{
		{relation.Int64, 0, 0, func() relation.Value {
			vs := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64, rng.Int64N(7) - 3}
			return relation.IntValue(vs[rng.IntN(len(vs))])
		}},
		{relation.Float64, 0, 0, func() relation.Value {
			vs := []float64{math.Inf(-1), -2.5, math.Copysign(0, -1), 0, 1e-300, 3, math.Inf(1), math.NaN(), float64(rng.IntN(5))}
			return relation.FloatValue(vs[rng.IntN(len(vs))])
		}},
		{relation.String, 6, 9, func() relation.Value {
			vs := []string{"", "a", "a\x00b", "ab", "b", "\x00", "zzzzzz", "abc"}
			return relation.StringValue(vs[rng.IntN(len(vs))])
		}},
		{relation.Bytes, 4, 4, func() relation.Value {
			vs := [][]byte{{}, {0}, {1}, {0, 1}, {1, 0}, {255, 255, 255, 255}, {1, 2, 3}}
			return relation.BytesValue(vs[rng.IntN(len(vs))])
		}},
	} {
		sa := relation.MustSchema(relation.Attr{Name: "k", Type: kt.typ, Width: kt.wA}, relation.Attr{Name: "p", Type: relation.Int64})
		sb := relation.MustSchema(relation.Attr{Name: "p", Type: relation.Int64}, relation.Attr{Name: "k", Type: kt.typ, Width: kt.wB})
		pred, err := relation.NewEqui(sa, "k", sb, "k")
		if err != nil {
			t.Fatal(err)
		}
		c := newA7Codec(pred, sa, sb, 1)
		type cell struct {
			enc []byte
			key relation.Value
		}
		var cells []cell
		for i := range 60 {
			v := kt.value()
			if i%2 == 0 {
				cells = append(cells, cell{c.wrap(a7TagA, sa.MustEncode(relation.Tuple{v, relation.IntValue(int64(i))})), v})
			} else {
				cells = append(cells, cell{c.wrap(a7TagB, sb.MustEncode(relation.Tuple{relation.IntValue(int64(i)), v})), v})
			}
		}
		decodedKey := func(enc []byte) relation.Value {
			r, err := c.row(enc)
			if err != nil {
				t.Fatal(err)
			}
			s, i := sa, pred.KeyIndexA()
			if enc[0] == a7TagB {
				s, i = sb, pred.KeyIndexB()
			}
			tup, err := s.Decode(r.Encoded())
			if err != nil {
				t.Fatal(err)
			}
			return tup[i]
		}
		for _, x := range cells {
			kx := decodedKey(x.enc)
			for _, y := range cells {
				ky := decodedKey(y.enc)
				bx, _ := c.key(x.enc)
				by, _ := c.key(y.enc)
				want := compareDecoded(kt.typ, kx, ky)
				if got := pred.CompareKeys(bx, by); got != want {
					t.Fatalf("%s: CompareKeys(%v, %v) = %d, decoded order %d", kt.typ, x.key, y.key, got, want)
				}
				if got, want := c.lessKeyTag(x.enc, y.enc), want < 0 || want == 0 && x.enc[0] < y.enc[0]; got != want {
					t.Fatalf("%s: lessKeyTag(%v, %v) = %v, want %v", kt.typ, x.key, y.key, got, want)
				}
			}
		}
	}
}
