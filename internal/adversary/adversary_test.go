package adversary

import (
	"reflect"
	"sort"
	"testing"

	"ppj/internal/core"
	"ppj/internal/oblivious"
	"ppj/internal/relation"
	"ppj/internal/sim"
)

func setup(t *testing.T, relA, relB *relation.Relation, mem int) (*sim.Host, *sim.Coprocessor, sim.Table, sim.Table) {
	t.Helper()
	h := sim.NewHost(1 << 20)
	cop, err := sim.NewCoprocessor(h, sim.Config{Memory: mem, Sealer: sim.PlainSealer{}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	tabA, err := sim.LoadTable(h, cop.Sealer(), "A", relA)
	if err != nil {
		t.Fatal(err)
	}
	tabB, err := sim.LoadTable(h, cop.Sealer(), "B", relB)
	if err != nil {
		t.Fatal(err)
	}
	return h, cop, tabA, tabB
}

func equi(t *testing.T, a, b *relation.Relation) *relation.Equi {
	t.Helper()
	eq, err := relation.NewEqui(a.Schema, "key", b.Schema, "key")
	if err != nil {
		t.Fatal(err)
	}
	return eq
}

func TestNestedLoopFullMatrixRecovery(t *testing.T) {
	// §3.4.1: the adversary recovers the exact match matrix.
	relA := relation.GenKeyed(relation.NewRand(1), 6, 4)
	relB := relation.GenKeyed(relation.NewRand(2), 9, 4)
	h, cop, tabA, tabB := setup(t, relA, relB, 16)
	pred := equi(t, relA, relB)
	if _, err := core.UnsafeNestedLoop(cop, tabA, tabB, pred); err != nil {
		t.Fatal(err)
	}
	res := h.Trace().Events()
	outReg := sim.RegionID(-1)
	for _, e := range res {
		if e.Op == sim.OpPut && e.Region != tabA.Region && e.Region != tabB.Region {
			outReg = e.Region
			break
		}
	}
	got := MatchMatrixFromNestedLoop(res, tabA.Region, tabB.Region, outReg)

	var want [][2]int64
	for i, ta := range relA.Rows {
		for j, tb := range relB.Rows {
			if ta[0].I == tb[0].I { // pred's keys
				want = append(want, [2]int64{int64(i), int64(j)})
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("adversary recovered %v, truth %v", got, want)
	}
	if len(want) == 0 {
		t.Fatal("degenerate test: no matches")
	}
}

func TestNestedLoopTracesDistinguishable(t *testing.T) {
	// Same sizes, different contents -> distinguishable traces (the failure
	// of Definition 1 for the unsafe algorithm).
	run := func(seedB uint64) *sim.Trace {
		relA := relation.GenKeyed(relation.NewRand(1), 5, 3)
		relB := relation.GenKeyed(relation.NewRand(seedB), 8, 3)
		h, cop, tabA, tabB := setup(t, relA, relB, 16)
		if _, err := core.UnsafeNestedLoop(cop, tabA, tabB, equi(t, relA, relB)); err != nil {
			t.Fatal(err)
		}
		return h.Trace()
	}
	if !Distinguish(run(2), run(5)) {
		t.Fatal("unsafe nested loop traces indistinguishable (expected leak)")
	}
}

func TestBlockedNestedLoopLeaksDistribution(t *testing.T) {
	// §3.4.2: flush bursts land inside the outer iterations that filled the
	// block, exposing where the matches concentrate.
	mkSkew := func(hot int) (*relation.Relation, *relation.Relation) {
		a := relation.NewRelation(relation.KeyedSchema())
		for i := 0; i < 4; i++ {
			a.MustAppend(relation.Tuple{relation.IntValue(int64(i)), relation.IntValue(0)})
		}
		b := relation.NewRelation(relation.KeyedSchema())
		for j := 0; j < 8; j++ {
			b.MustAppend(relation.Tuple{relation.IntValue(int64(hot)), relation.IntValue(int64(j))})
		}
		return a, b
	}
	burstsFor := func(hot int) []int64 {
		relA, relB := mkSkew(hot)
		h, cop, tabA, tabB := setup(t, relA, relB, 16)
		if _, err := core.UnsafeBlockedNestedLoop(cop, tabA, tabB, equi(t, relA, relB), 4); err != nil {
			t.Fatal(err)
		}
		return OutputBurstsPerOuter(h.Trace().Events(), tabA.Region, h.Trace().Events()[len(h.Trace().Events())-1].Region, 4)
	}
	b0 := burstsFor(0)
	b3 := burstsFor(3)
	// The adversary localises the hot outer tuple.
	if argmax(b0) != 0 || argmax(b3) != 3 {
		t.Fatalf("adversary failed to localise hot tuple: %v / %v", b0, b3)
	}
}

func TestSortMergeLeaksMatchCounts(t *testing.T) {
	// §4.5.1: per-outer inner reads reveal the match counts. A keys are
	// 1,2,3 (already distinct); B holds 5 copies of key 2.
	relA := relation.NewRelation(relation.KeyedSchema())
	for _, k := range []int64{1, 2, 3} {
		relA.MustAppend(relation.Tuple{relation.IntValue(k), relation.IntValue(0)})
	}
	relB := relation.NewRelation(relation.KeyedSchema())
	for j := 0; j < 5; j++ {
		relB.MustAppend(relation.Tuple{relation.IntValue(2), relation.IntValue(int64(j))})
	}
	relB.MustAppend(relation.Tuple{relation.IntValue(9), relation.IntValue(99)})

	h, cop, tabA, tabB := setup(t, relA, relB, 16)
	if _, err := core.UnsafeSortMergeJoin(cop, tabA, tabB, equi(t, relA, relB)); err != nil {
		t.Fatal(err)
	}
	// Discard the publicly-sized oblivious-sort prelude.
	prefix := oblivious.SortTransfers(tabA.N, 1) + oblivious.SortTransfers(tabB.N, 1)
	merge := SkipPrefix(h.Trace().Events(), prefix)
	counts := InnerReadsPerOuter(merge, tabA.Region, tabB.Region, tabA.N)
	// Sorted A = [1,2,3]; the middle tuple must stand out.
	if argmax(counts) != 1 {
		t.Fatalf("adversary failed to localise heavy key: reads per outer = %v", counts)
	}
	if counts[1] < 5 {
		t.Fatalf("heavy key reads %d, expected >= its 5 matches", counts[1])
	}
}

func TestSortMergeTracesDistinguishable(t *testing.T) {
	run := func(heavy bool) *sim.Trace {
		relA := relation.GenKeyed(relation.NewRand(1), 4, 4)
		relB := relation.NewRelation(relation.KeyedSchema())
		for j := 0; j < 8; j++ {
			k := int64(j % 4)
			if heavy {
				k = 0
			}
			relB.MustAppend(relation.Tuple{relation.IntValue(k), relation.IntValue(int64(j))})
		}
		h, cop, tabA, tabB := setup(t, relA, relB, 16)
		if _, err := core.UnsafeSortMergeJoin(cop, tabA, tabB, equi(t, relA, relB)); err != nil {
			t.Fatal(err)
		}
		return h.Trace()
	}
	if !Distinguish(run(true), run(false)) {
		t.Fatal("sort-merge traces indistinguishable (expected leak)")
	}
}

func TestGraceHashLeaksSkew(t *testing.T) {
	// §4.5.1 footnote: uniform keys fill buckets evenly (flush after ~np
	// reads); skewed keys flush after ~p reads. The gap vectors differ.
	gaps := func(rel *relation.Relation) []int64 {
		h := sim.NewHost(1 << 20)
		cop, err := sim.NewCoprocessor(h, sim.Config{Memory: 64, Sealer: sim.PlainSealer{}, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		tab, err := sim.LoadTable(h, cop.Sealer(), "A", rel)
		if err != nil {
			t.Fatal(err)
		}
		out, err := core.UnsafeGraceHashPartition(cop, tab, 0, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		// Discard the publicly-sized oblivious-shuffle prelude.
		events := SkipPrefix(h.Trace().Events(), oblivious.ShuffleTransfers(tab.N))
		return ReadsBetweenFlushes(events, tab.Region, out.Region)
	}
	uniform := relation.GenKeyed(relation.NewRand(3), 48, 1000)
	skewed := relation.NewRelation(relation.KeyedSchema())
	for i := 0; i < 48; i++ {
		skewed.MustAppend(relation.Tuple{relation.IntValue(0), relation.IntValue(int64(i))})
	}
	gu, gs := gaps(uniform), gaps(skewed)
	// Skewed input flushes every 4 reads like clockwork; uniform input's
	// first flush needs far more reads.
	if gs[0] > 4 {
		t.Fatalf("skewed first gap %d, want <= bucket size", gs[0])
	}
	if gu[0] <= 4 {
		t.Fatalf("uniform first gap %d, want > bucket size", gu[0])
	}
	if len(gs) <= len(gu) {
		t.Fatalf("skewed input should flush more often: %d vs %d bursts", len(gs), len(gu))
	}
}

func TestCommutativeLeaksDuplicateHistogram(t *testing.T) {
	// §4.5.1: the host reconstructs the exact duplicate distribution.
	relA := relation.GenKeyed(relation.NewRand(1), 4, 100)
	relB := relation.NewRelation(relation.KeyedSchema())
	for _, k := range []int64{7, 7, 7, 8, 8, 9} {
		relB.MustAppend(relation.Tuple{relation.IntValue(k), relation.IntValue(0)})
	}
	h, cop, tabA, tabB := setup(t, relA, relB, 16)
	_, _, tagsB, err := core.UnsafeCommutativeJoin(cop, tabA, tabB, equi(t, relA, relB))
	if err != nil {
		t.Fatal(err)
	}
	hist := DuplicateHistogram(h, tagsB, tabB.N)
	// Truth: one value x3, one value x2, one value x1.
	want := map[int64]int64{3: 1, 2: 1, 1: 1}
	if !reflect.DeepEqual(hist, want) {
		t.Fatalf("adversary histogram %v, want %v", hist, want)
	}
}

func TestCommutativeJoinPairsCorrect(t *testing.T) {
	// The construction does produce correct join pairs — it fails on
	// privacy, not correctness.
	relA := relation.GenKeyed(relation.NewRand(5), 6, 4)
	relB := relation.GenKeyed(relation.NewRand(6), 9, 4)
	_, cop, tabA, tabB := setup(t, relA, relB, 16)
	pred := equi(t, relA, relB)
	pairs, _, _, err := core.UnsafeCommutativeJoin(cop, tabA, tabB, pred)
	if err != nil {
		t.Fatal(err)
	}
	var want [][2]int64
	for i, ta := range relA.Rows {
		for j, tb := range relB.Rows {
			if ta[0].I == tb[0].I { // pred's keys
				want = append(want, [2]int64{int64(i), int64(j)})
			}
		}
	}
	sortPairs := func(p [][2]int64) {
		sort.Slice(p, func(x, y int) bool {
			if p[x][0] != p[y][0] {
				return p[x][0] < p[y][0]
			}
			return p[x][1] < p[y][1]
		})
	}
	sortPairs(pairs)
	sortPairs(want)
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("host-computed pairs %v, want %v", pairs, want)
	}
}

func TestSRACommutes(t *testing.T) {
	k1, err := core.NewSRAKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := core.NewSRAKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{0, 1, 42, 1 << 40} {
		if !k1.CommutesWith(k2, v) {
			t.Fatalf("SRA keys do not commute on %d", v)
		}
	}
	// Determinism (the leak) and key separation.
	if k1.Encrypt(7).Cmp(k1.Encrypt(7)) != 0 {
		t.Fatal("SRA not deterministic")
	}
	if k1.Encrypt(7).Cmp(k2.Encrypt(7)) == 0 {
		t.Fatal("two SRA keys coincide")
	}
}

func argmax(xs []int64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func TestAdvantageZeroForSafeAlgorithm(t *testing.T) {
	// Algorithm 5 on same-size same-S inputs: the adversary cannot do
	// better than guessing.
	world := func(base uint64) func(int) *sim.Trace {
		return func(trial int) *sim.Trace {
			relA, relB := sizedPair(base + uint64(trial)*1000)
			h := sim.NewHost(0)
			cop, err := sim.NewCoprocessor(h, sim.Config{Memory: 3, Sealer: sim.PlainSealer{}, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			tabA, _ := sim.LoadTable(h, cop.Sealer(), "A", relA)
			tabB, _ := sim.LoadTable(h, cop.Sealer(), "B", relB)
			if _, err := core.Join5(cop, []sim.Table{tabA, tabB}, relation.Pairwise(equi(t, relA, relB))); err != nil {
				t.Fatal(err)
			}
			return h.Trace()
		}
	}
	adv := Advantage(world(1), world(5_000_000), 10)
	if adv != 0 {
		t.Fatalf("safe algorithm advantage = %g, want 0", adv)
	}
}

func TestAdvantageOneForUnsafeAlgorithm(t *testing.T) {
	// The naive nested loop's traces differ whenever the match patterns
	// differ, handing the adversary full advantage.
	world := func(heavy bool) func(int) *sim.Trace {
		return func(trial int) *sim.Trace {
			relA := relation.GenKeyed(relation.NewRand(7), 5, 3)
			relB := relation.NewRelation(relation.KeyedSchema())
			for j := 0; j < 8; j++ {
				k := int64(j % 3)
				if heavy {
					k = 0
				}
				relB.MustAppend(relation.Tuple{relation.IntValue(k), relation.IntValue(int64(j))})
			}
			h := sim.NewHost(0)
			cop, err := sim.NewCoprocessor(h, sim.Config{Memory: 16, Sealer: sim.PlainSealer{}, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			tabA, _ := sim.LoadTable(h, cop.Sealer(), "A", relA)
			tabB, _ := sim.LoadTable(h, cop.Sealer(), "B", relB)
			if _, err := core.UnsafeNestedLoop(cop, tabA, tabB, equi(t, relA, relB)); err != nil {
				t.Fatal(err)
			}
			return h.Trace()
		}
	}
	adv := Advantage(world(false), world(true), 10)
	if adv != 1 {
		t.Fatalf("unsafe algorithm advantage = %g, want 1", adv)
	}
}

// sizedPair builds input pairs with fixed sizes and join size regardless of
// seed (contents vary).
func sizedPair(seed uint64) (*relation.Relation, *relation.Relation) {
	rng := relation.NewRand(seed)
	a := relation.NewRelation(relation.KeyedSchema())
	for i := 0; i < 6; i++ {
		a.MustAppend(relation.Tuple{relation.IntValue(int64(i)), relation.IntValue(rng.Int64N(1 << 20))})
	}
	b := relation.NewRelation(relation.KeyedSchema())
	for j := 0; j < 8; j++ {
		key := int64(j)
		if j >= 5 { // exactly 5 matches
			key = 100 + int64(j)
		}
		b.MustAppend(relation.Tuple{relation.IntValue(key), relation.IntValue(rng.Int64N(1 << 20))})
	}
	return a, b
}
