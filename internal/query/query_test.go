package query

import (
	"fmt"
	"strings"
	"testing"

	"ppj/internal/core"
	"ppj/internal/costmodel"
	"ppj/internal/relation"
	"ppj/internal/sim"
)

func equi(t *testing.T, a, b *relation.Relation) *relation.Equi {
	t.Helper()
	eq, err := relation.NewEqui(a.Schema, "key", b.Schema, "key")
	if err != nil {
		t.Fatal(err)
	}
	return eq
}

func TestPlannerPicksAlg2WhenGammaSmall(t *testing.T) {
	// γ = 1 (N fits in memory): Algorithm 2 dominates (§4.6.1). Use a band
	// predicate so Algorithm 3 is not admissible.
	relA, relB := relation.GenWithMatchBound(relation.NewRand(1), 20, 40, 4)
	band, err := relation.NewBand(relA.Schema, "key", relB.Schema, "key", 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Planner{Memory: 64}.Plan(Query{Predicate: band}, []*relation.Relation{relA, relB})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm != 2 {
		t.Fatalf("plan = %s, want Algorithm 2", plan)
	}
}

func TestPlannerPicksAlg1WhenGammaHuge(t *testing.T) {
	// §4.6.2's threshold (γ > 2 + α + 2(log₂ 2α|B|)²) is the paper
	// formula's. By exact count Algorithm 1 wins when its ⌈|B|/N⌉ sorts of
	// 2N cells, each padded to a power of two, undercut Algorithm 2's γ·|B|
	// per a ∈ A: at M = 1, N = 256 over |B| = 512 gives 2,380,590 transfers
	// against 3,939,870. (N = 200 over |B| = 300, past the formula's
	// threshold, still pads its sorts to 512 cells and loses.)
	relA, relB := relation.GenWithMatchBound(relation.NewRand(2), 30, 512, 256)
	band, err := relation.NewBand(relA.Schema, "key", relB.Schema, "key", 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Planner{Memory: 1}.Plan(Query{Predicate: band}, []*relation.Relation{relA, relB})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm != 1 {
		t.Fatalf("plan = %s, want Algorithm 1 (γ = 256)", plan)
	}
}

func TestPlannerPicksAlg3ForEquijoinLargeGamma(t *testing.T) {
	// Equijoin with γ >= 4: Algorithm 3 (§4.6.3).
	relA, relB := relation.GenWithMatchBound(relation.NewRand(3), 30, 60, 24)
	plan, err := Planner{Memory: 1}.Plan(Query{Predicate: equi(t, relA, relB)},
		[]*relation.Relation{relA, relB})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm != 3 {
		t.Fatalf("plan = %s, want Algorithm 3", plan)
	}
}

func TestPlannerExactModeUsesCh5(t *testing.T) {
	relA, relB := relation.GenWithMatchBound(relation.NewRand(4), 10, 20, 3)
	plan, err := Planner{Memory: 8}.Plan(Query{Predicate: equi(t, relA, relB), Mode: Exact},
		[]*relation.Relation{relA, relB})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm < 4 {
		t.Fatalf("plan = %s, want a Chapter 5 algorithm", plan)
	}
}

func TestPlannerEpsilonUnlocksAlg6(t *testing.T) {
	// The planner prices this implementation, not the thesis's Eqns 5.3 and
	// 5.7 (whose Table 5.3 ordering TestTable53Ordering in costmodel keeps).
	// At Table 5.2 setting 1 (L = 640,000, S = 6,400, M = 64) Algorithm 5
	// holds blocks of 32 rows of X₁ and needs 4,041,600 transfers, under
	// Algorithm 6's 9,023,900 even with an ε budget. Where S ≫ M² the
	// budget does unlock Algorithm 6: at setting 3's L = 2,560,000 and
	// S = 25,600 with M = 32 (S = 25·M²), Algorithm 5 needs 243,395,200
	// and Algorithm 6 117,132,276. (Plan evaluates closed forms plus one
	// counting pass, so these sizes are fine.) The join is posed as a
	// MultiPredicate so the comparison stays among the scan-based rows: a
	// visible orderable Equi would admit Algorithm 7, which beats them all
	// here (TestPlannerAutoFlipsToAlg7).
	for _, c := range []struct {
		n, budgeted int
		mem, a5, a6 int64
	}{
		{800, 5, 64, 4_041_600, 9_023_900},
		{1600, 6, 32, 243_395_200, 117_132_276},
	} {
		// Each key 0..99 appears n/100 times in each relation: S = n²/100.
		relA := relation.NewRelation(relation.KeyedSchema())
		relB := relation.NewRelation(relation.KeyedSchema())
		for i := 0; i < c.n; i++ {
			relA.MustAppend(relation.Tuple{relation.IntValue(int64(i % 100)), relation.IntValue(int64(i))})
			relB.MustAppend(relation.Tuple{relation.IntValue(int64(i % 100)), relation.IntValue(int64(i))})
		}
		rels := []*relation.Relation{relA, relB}
		q := Query{Multi: relation.Pairwise(equi(t, relA, relB)), Mode: Exact}
		noBudget, err := Planner{Memory: c.mem}.Plan(q, rels)
		if err != nil {
			t.Fatal(err)
		}
		if noBudget.Algorithm != 5 || int64(noBudget.PredictedCost) != c.a5 {
			t.Fatalf("n = %d, M = %d: plan = %s, want Algorithm 5 at %d without a budget", c.n, c.mem, noBudget, c.a5)
		}
		q.Epsilon = 1e-20
		withBudget, err := Planner{Memory: c.mem}.Plan(q, rels)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("alg6 %d", c.a6); withBudget.Algorithm != c.budgeted || !strings.Contains(withBudget.Reason, want) {
			t.Fatalf("n = %d, M = %d: plan = %s, want Algorithm %d with ε budget and %q priced", c.n, c.mem, withBudget, c.budgeted, want)
		}
	}
}

func TestPlannerAggregateSkipsMaterialisation(t *testing.T) {
	relA, relB := relation.GenWithMatchBound(relation.NewRand(7), 10, 20, 3)
	plan, err := Planner{Memory: 4}.Plan(Query{
		Predicate: equi(t, relA, relB),
		Aggregate: &core.AggSpec{Kind: core.AggCount},
	}, []*relation.Relation{relA, relB})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm != 0 {
		t.Fatalf("plan = %s, want aggregate pass", plan)
	}
	if want := core.AggregateTransfers([]int64{10, 20}); plan.PredictedCost != float64(want) {
		t.Fatalf("predicted cost %g, want %d", plan.PredictedCost, want)
	}
	if !strings.Contains(plan.String(), "aggregate") {
		t.Fatalf("plan string %q", plan.String())
	}
}

func TestExecuteMatchesReferenceAcrossRegimes(t *testing.T) {
	cases := []struct {
		name string
		mem  int64
		mode OutputMode
		eps  float64
	}{
		{"ch4-small-mem", 1, PaddedN, 0},
		{"ch4-large-mem", 64, PaddedN, 0},
		{"ch5-exact", 4, Exact, 0},
		{"ch5-budget", 2, Exact, 1e-9},
	}
	relA := relation.GenKeyed(relation.NewRand(8), 12, 5)
	relB := relation.GenKeyed(relation.NewRand(9), 15, 5)
	rels := []*relation.Relation{relA, relB}
	eq := equi(t, relA, relB)
	want := relation.ReferenceJoin(relA, relB, eq)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, plan, err := Planner{Memory: tc.mem}.Execute(
				Query{Predicate: eq, Mode: tc.mode, Epsilon: tc.eps}, rels, 11)
			if err != nil {
				t.Fatal(err)
			}
			if !relation.SameMultiset(rows, want) {
				t.Fatalf("%s (plan %s): got %d rows, want %d", tc.name, plan, rows.Len(), want.Len())
			}
		})
	}
}

func TestExecuteThreeWay(t *testing.T) {
	mk := func(seed uint64, n int) *relation.Relation {
		return relation.GenKeyed(relation.NewRand(seed), n, 4)
	}
	rels := []*relation.Relation{mk(1, 5), mk(2, 6), mk(3, 4)}
	mp := relation.MultiPredicateFunc{
		Fn: func(rs []relation.Row) bool {
			return rs[0].Int(0) == rs[1].Int(0) && rs[1].Int(0) == rs[2].Int(0)
		},
		Desc: "keys all equal",
	}
	rows, plan, err := Planner{Memory: 4}.Execute(Query{Multi: mp, Mode: Exact}, rels, 13)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm < 4 {
		t.Fatalf("three-way plan = %s", plan)
	}
	want := relation.ReferenceMultiJoin(rels, mp)
	if !relation.SameMultiset(rows, want) {
		t.Fatalf("3-way: got %d rows, want %d", rows.Len(), want.Len())
	}
}

func TestExecuteAggregate(t *testing.T) {
	relA, relB := relation.GenWithMatchBound(relation.NewRand(10), 8, 16, 3)
	eq := equi(t, relA, relB)
	res, plan, err := Planner{Memory: 4}.ExecuteAggregate(Query{
		Predicate: eq,
		Aggregate: &core.AggSpec{Kind: core.AggCount},
	}, []*relation.Relation{relA, relB}, 17)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm != 0 {
		t.Fatalf("plan = %s", plan)
	}
	want := relation.ReferenceJoin(relA, relB, eq).Len()
	if res.Count != int64(want) {
		t.Fatalf("COUNT = %d, want %d", res.Count, want)
	}
}

func TestPlannerValidation(t *testing.T) {
	relA, relB := relation.GenWithMatchBound(relation.NewRand(11), 4, 8, 2)
	rels := []*relation.Relation{relA, relB}
	if _, err := (Planner{}).Plan(Query{Predicate: equi(t, relA, relB)}, rels); err == nil {
		t.Error("zero memory accepted")
	}
	if _, err := (Planner{Memory: 4}).Plan(Query{Predicate: equi(t, relA, relB)}, rels[:1]); err == nil {
		t.Error("single relation accepted")
	}
	if _, err := (Planner{Memory: 4}).Plan(Query{}, rels); err == nil {
		t.Error("missing predicate accepted")
	}
	if _, _, err := (Planner{Memory: 4}).Execute(Query{
		Predicate: equi(t, relA, relB), Aggregate: &core.AggSpec{Kind: core.AggCount},
	}, rels, 1); err == nil {
		t.Error("Execute accepted aggregate query")
	}
	if _, _, err := (Planner{Memory: 4}).ExecuteAggregate(Query{Predicate: equi(t, relA, relB)}, rels, 1); err == nil {
		t.Error("ExecuteAggregate accepted row query")
	}
}

// matchedKeys builds |A| = |B| = n relations where each row joins exactly
// once (S = n) — the workload whose alg5-vs-alg7 crossover the cost model
// solves in closed form.
func matchedKeys(n int) []*relation.Relation {
	relA := relation.NewRelation(relation.KeyedSchema())
	relB := relation.NewRelation(relation.KeyedSchema())
	for i := 0; i < n; i++ {
		relA.MustAppend(relation.Tuple{relation.IntValue(int64(i)), relation.IntValue(int64(i) * 3)})
		relB.MustAppend(relation.Tuple{relation.IntValue(int64(i)), relation.IntValue(int64(i) * 7)})
	}
	return []*relation.Relation{relA, relB}
}

// TestPlannerAutoFlipsToAlg7 pins the "auto" decision boundary: below the
// cost-model crossover the planner keeps the scan-based Chapter 5 plans,
// at and past it the sort-based Algorithm 7 wins, and the decision is
// exactly the closed-form cost comparison.
func TestPlannerAutoFlipsToAlg7(t *testing.T) {
	const mem = 64
	cross := CrossoverN57(mem)
	if cross == 0 || cross > 1<<12 {
		t.Fatalf("implausible crossover %d for M=%d", cross, mem)
	}
	plan := func(n int) Plan {
		rels := matchedKeys(n)
		q := Query{Predicate: equi(t, rels[0], rels[1]), Mode: Exact}
		p, err := Planner{Memory: mem}.Plan(q, rels)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	below := plan(int(cross) / 4)
	if below.Algorithm == 7 {
		t.Fatalf("below crossover (n=%d): plan = %s, want a scan-based algorithm", cross/4, below)
	}
	if below.Algorithm < 4 {
		t.Fatalf("exact mode planned %s, want a Chapter 5 algorithm", below)
	}
	for _, n := range []int64{cross, 2 * cross} {
		p := plan(int(n))
		if p.Algorithm != 7 {
			t.Fatalf("past crossover (n=%d): plan = %s, want Algorithm 7", n, p)
		}
		if p.AlgorithmName() != "alg7" {
			t.Fatalf("AlgorithmName() = %q", p.AlgorithmName())
		}
		if want := alg7Cost(n, n, n, mem); p.PredictedCost != want {
			t.Fatalf("n=%d: predicted cost %g, want closed form %g", n, p.PredictedCost, want)
		}
	}
	// The parallel variant sorts on a power-of-two fleet.
	if alg, _ := core.AlgorithmByNumber(plan(int(cross)).Algorithm); alg.Devices(6) != 4 {
		t.Fatalf("Devices(6) = %d, want largest power of two 4", alg.Devices(6))
	}
}

// TestPlannerNeverPicksAlg7WhenInadmissible drives every route on which
// Algorithm 7 must not be selected — padded output, J-way joins, opaque
// and non-equality predicates, non-orderable join attributes — at a scale
// where it would win on cost if admissibility were ignored.
func TestPlannerNeverPicksAlg7WhenInadmissible(t *testing.T) {
	rels := matchedKeys(1024)
	eq := equi(t, rels[0], rels[1])

	// Padded (Chapter 4) output: alg7's exact-S output shape breaks the
	// N·|A| contract.
	p, err := Planner{Memory: 64}.Plan(Query{Predicate: eq, Mode: PaddedN}, rels)
	if err != nil {
		t.Fatal(err)
	}
	if p.Algorithm == 7 || p.Algorithm > 3 {
		t.Fatalf("padded mode planned %s, want a Chapter 4 algorithm", p)
	}

	// An opaque MultiPredicate hides the equality structure.
	p, err = Planner{Memory: 64}.Plan(Query{Multi: relation.Pairwise(eq), Mode: Exact}, rels)
	if err != nil {
		t.Fatal(err)
	}
	if p.Algorithm == 7 {
		t.Fatalf("opaque multi predicate planned %s", p)
	}

	// A non-equality 2-way predicate.
	opaque := relation.PredicateFunc{Fn: func(a, b relation.Row) bool { return a.Int(0) == b.Int(0) }, Desc: "opaque"}
	p, err = Planner{Memory: 64}.Plan(Query{Predicate: opaque, Mode: Exact}, rels)
	if err != nil {
		t.Fatal(err)
	}
	if p.Algorithm == 7 {
		t.Fatalf("non-equi predicate planned %s", p)
	}

	// Three relations: alg7 is strictly binary.
	threeRels := append(matchedKeys(64), matchedKeys(64)[0])
	p, err = Planner{Memory: 64}.Plan(Query{
		Multi: relation.MultiPredicateFunc{Fn: func(rs []relation.Row) bool {
			return rs[0].Int(0) == rs[1].Int(0) && rs[1].Int(0) == rs[2].Int(0)
		}, Desc: "3way"},
		Mode: Exact,
	}, threeRels)
	if err != nil {
		t.Fatal(err)
	}
	if p.Algorithm == 7 {
		t.Fatalf("3-way join planned %s", p)
	}

	// A Set-typed join attribute has no total order: Equi admits it, the
	// sort-based pipeline must not.
	setSchema := relation.MustSchema(
		relation.Attr{Name: "key", Type: relation.Set, Width: 4},
		relation.Attr{Name: "payload", Type: relation.Int64},
	)
	setA, setB := relation.NewRelation(setSchema), relation.NewRelation(setSchema)
	for i := 0; i < 512; i++ {
		setA.MustAppend(relation.Tuple{relation.SetValue(uint32(i)), relation.IntValue(int64(i))})
		setB.MustAppend(relation.Tuple{relation.SetValue(uint32(i)), relation.IntValue(int64(i))})
	}
	setEq, err := relation.NewEqui(setSchema, "key", setSchema, "key")
	if err != nil {
		t.Fatal(err)
	}
	if setEq.Orderable() {
		t.Fatal("Set attribute reported as orderable")
	}
	p, err = Planner{Memory: 64}.Plan(Query{Predicate: setEq, Mode: Exact}, []*relation.Relation{setA, setB})
	if err != nil {
		t.Fatal(err)
	}
	if p.Algorithm == 7 {
		t.Fatalf("non-orderable equijoin planned %s", p)
	}
}

// TestExecuteRunsAlg7PastCrossover runs the full Execute path at a size the
// planner resolves to Algorithm 7 and checks the decoded rows.
func TestExecuteRunsAlg7PastCrossover(t *testing.T) {
	const mem = 4
	cross := CrossoverN57(mem)
	if cross == 0 || cross > 256 {
		t.Skipf("crossover %d too large to execute in a unit test", cross)
	}
	rels := matchedKeys(int(cross))
	eq := equi(t, rels[0], rels[1])
	rows, plan, err := Planner{Memory: mem}.Execute(Query{Predicate: eq, Mode: Exact}, rels, 11)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm != 7 {
		t.Fatalf("plan = %s, want Algorithm 7", plan)
	}
	want := relation.ReferenceJoin(rels[0], rels[1], eq)
	if !relation.SameMultiset(rows, want) {
		t.Fatalf("execute mismatch: got %d rows, want %d", rows.Len(), want.Len())
	}
}

// TestAlg7CrossoverAgainstCh5 places Algorithm 7 on the performance map:
// on the matched-keys workload (|A| = |B| = n, S = n, L = n²) the
// scan-based Algorithm 5 wins at small n, and the sort-based Algorithm 7
// wins past a crossover that must exist — the n² scans can't keep up with
// n log²n forever. At M = 2048 Algorithm 5 holds blocks of 1,024 rows of
// X₁, which puts the crossover at n = 32,768.
func TestAlg7CrossoverAgainstCh5(t *testing.T) {
	const m = 2048
	cross := CrossoverN57(m)
	if cross == 0 {
		t.Fatal("Algorithm 7 never overtakes Algorithm 5")
	}
	if cross != 1<<15 {
		t.Fatalf("crossover n=%d at M=%d, want %d", cross, m, 1<<15)
	}
	// Below the crossover alg5 wins, above it alg7 wins — and keeps winning.
	alg5 := func(n int64) float64 { return float64(core.Join5Transfers([]int64{n, n}, n, m)) }
	if small := cross / 2; alg7Cost(small, small, small, m) < alg5(small) {
		t.Fatalf("alg7 already cheaper at n=%d, below reported crossover %d", small, cross)
	}
	for n := cross; n <= cross*16; n <<= 1 {
		a7 := alg7Cost(n, n, n, m)
		if a5 := alg5(n); a7 >= a5 {
			t.Fatalf("n=%d: alg7 %v not cheaper than alg5 %v past crossover", n, a7, a5)
		}
		if a6 := costmodel.Alg6Cost(n*n, n, m, 1e-6).Total; n >= 4*cross && a7 >= a6 {
			t.Fatalf("n=%d: alg7 %v not cheaper than alg6 %v well past crossover", n, a7, a6)
		}
	}
	// Against the thesis's Eqn 5.3 the separation at n = 4096 is the
	// headline: alg7 under a quarter of its transfers (the BENCH_8
	// acceptance bar).
	if a7, a5 := alg7Cost(4096, 4096, 4096, m), costmodel.Alg5Cost(4096*4096, 4096, m); a7 >= 0.25*a5 {
		t.Fatalf("alg7 %v not under 25%% of alg5 %v at n=4k", a7, a5)
	}
}

// TestCrossoverN57Pinned pins where the planner flips from Algorithm 5 to
// Algorithm 7 on the matched-keys workload at three device memories. The
// crossover moves whenever either closed form does, so a change to either
// schedule shows here as a changed planner decision. Algorithm 5's blocks
// of ⌊M/2⌋ rows of X₁ push it out as M grows: at M = 8 the block is 4 rows
// and the flip stays at 64, at M = 64 it moves from 128 to 512, at
// M = 1024 from 128 to 16,384.
func TestCrossoverN57Pinned(t *testing.T) {
	for _, c := range []struct{ mem, cross int64 }{{8, 64}, {64, 512}, {1024, 16384}} {
		if got := CrossoverN57(c.mem); got != c.cross {
			t.Errorf("CrossoverN57(%d) = %d, want %d", c.mem, got, c.cross)
		}
	}
}

// TestAlg7CrossoverAgainstAlg3 pins the Chapter 4 comparison: Algorithm 3
// is Θ(|A|·|B|) even at N=1, so Algorithm 7 overtakes it too — even at
// M = 1, where its networks move one cell per comparator.
func TestAlg7CrossoverAgainstAlg3(t *testing.T) {
	var crossed bool
	for n := int64(2); n <= 1<<14; n <<= 1 {
		a7 := alg7Cost(n, n, n, 1)
		a3 := costmodel.Alg3Cost(n, n, 1, false)
		if crossed && a7 >= a3 {
			t.Fatalf("n=%d: alg7 %v fell back behind alg3 %v", n, a7, a3)
		}
		if a7 < a3 {
			crossed = true
		}
	}
	if !crossed {
		t.Fatal("Algorithm 7 never overtakes Algorithm 3 up to n=2^14")
	}
}

// TestPlanIsMeasuredArgmin checks the planner against measurement: every
// algorithm of the query's output class runs once on a plaintext device,
// those whose Run refuses the query (before charging a transfer) are not
// admissible, and the plan must be the admissible row with the fewest
// measured transfers — ties to the lower number — with PredictedCost equal
// to that count. The class is padded when the mode allows padding and a
// padded row admits the query, exact otherwise, and Algorithm 6 competes
// only under a privacy budget. Algorithm 6 runs only where S ≤ M: past
// that its closed form is a bound, not a count.
func TestPlanIsMeasuredArgmin(t *testing.T) {
	keyed := func(seed uint64, nA, nB, n int) []*relation.Relation {
		a, b := relation.GenWithMatchBound(relation.NewRand(seed), nA, nB, n)
		return []*relation.Relation{a, b}
	}
	band := func(rels []*relation.Relation) relation.Predicate {
		p, err := relation.NewBand(rels[0].Schema, "key", rels[1].Schema, "key", 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	wide, small, mid := keyed(2, 30, 300, 200), keyed(7, 10, 20, 3), keyed(3, 30, 60, 24)
	three := []*relation.Relation{
		relation.GenKeyed(relation.NewRand(1), 5, 4),
		relation.GenKeyed(relation.NewRand(2), 6, 4),
		relation.GenKeyed(relation.NewRand(3), 4, 4),
	}
	allEqual := relation.MultiPredicateFunc{
		Fn: func(rs []relation.Row) bool {
			return rs[0].Int(0) == rs[1].Int(0) && rs[1].Int(0) == rs[2].Int(0)
		},
		Desc: "keys all equal",
	}
	cases := []struct {
		name string
		rels []*relation.Relation
		q    Query
		mem  int64
	}{
		// §4.6.2's formulas pick Algorithm 1 here; its exact count is dearer.
		{"band/30x300/N200/M1", wide, Query{Predicate: band(wide)}, 1},
		{"band/10x20/M64", small, Query{Predicate: band(small)}, 64},
		{"band/10x20/exact/M1", small, Query{Predicate: band(small), Mode: Exact}, 1},
		{"equi/30x60/N24/M1", mid, Query{Predicate: equi(t, mid[0], mid[1])}, 1},
		{"equi/10x20/M4", small, Query{Predicate: equi(t, small[0], small[1]), Epsilon: 1e-6}, 4},
		{"equi/10x20/exact/M4", small, Query{Predicate: equi(t, small[0], small[1]), Mode: Exact}, 4},
		{"equi/10x20/exact/M64/eps", small, Query{Predicate: equi(t, small[0], small[1]), Mode: Exact, Epsilon: 1e-6}, 64},
		{"multi3/exact/M4", three, Query{Multi: allEqual, Mode: Exact}, 4},
		{"multi3/M64/eps", three, Query{Multi: allEqual, Epsilon: 1e-6}, 64},
	}
	measure := func(t *testing.T, alg *core.Algorithm, rels []*relation.Relation, in core.Inputs, mem int64) (int64, bool) {
		host := sim.NewHost(0)
		cop, err := sim.NewCoprocessor(host, sim.Config{Memory: int(mem), Sealer: sim.PlainSealer{}, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		tabs := make([]sim.Table, len(rels))
		for i, r := range rels {
			if tabs[i], err = sim.LoadTable(host, cop.Sealer(), fmt.Sprintf("X%d", i+1), r); err != nil {
				t.Fatal(err)
			}
		}
		res, _, err := alg.Run([]*sim.Coprocessor{cop}, tabs, in)
		if err != nil {
			if cop.Stats().Transfers() != 0 {
				t.Fatalf("%s failed after charging transfers: %v", alg.Name, err)
			}
			return 0, false
		}
		return int64(res.Stats.Transfers()), true
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := core.Inputs{Pred: tc.q.Predicate, Multi: tc.q.Multi, Epsilon: tc.q.Epsilon}
			if in.Pred != nil {
				in.N = max(1, int64(relation.MaxMatches(tc.rels[0], tc.rels[1], in.Pred)))
			}
			best, bestCost := 0, int64(0)
			for _, padded := range []bool{tc.q.Mode == PaddedN, false} {
				for _, alg := range core.Algorithms {
					if alg.Padded != padded || alg.Number == 6 && tc.q.Epsilon <= 0 {
						continue
					}
					if alg.Number == 6 {
						mp := tc.q.Multi
						if mp == nil {
							mp = relation.Pairwise(tc.q.Predicate)
						}
						if s := relation.CountMultiMatches(tc.rels, mp); s > tc.mem {
							t.Fatalf("S = %d > M = %d: Algorithm 6's form is only a bound here", s, tc.mem)
						}
					}
					if cost, ok := measure(t, alg, tc.rels, in, tc.mem); ok && (best == 0 || cost < bestCost) {
						best, bestCost = alg.Number, cost
					}
				}
				if best != 0 || !padded {
					break
				}
			}
			if best == 0 {
				t.Fatal("no algorithm admits the query")
			}
			plan, err := Planner{Memory: tc.mem}.Plan(tc.q, tc.rels)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Algorithm != best || plan.PredictedCost != float64(bestCost) {
				t.Fatalf("plan = %s, measured argmin is Algorithm %d at %d transfers", plan, best, bestCost)
			}
		})
	}
	t.Run("aggregate/10x20/M4", func(t *testing.T) {
		q := Query{Predicate: equi(t, small[0], small[1]), Aggregate: &core.AggSpec{Kind: core.AggCount}}
		res, plan, err := Planner{Memory: 4}.ExecuteAggregate(q, small, 5)
		if err != nil {
			t.Fatal(err)
		}
		if got := float64(res.Stats.Transfers()); plan.Algorithm != 0 || plan.PredictedCost != got {
			t.Fatalf("plan = %s, the pass measured %g transfers", plan, got)
		}
	})
}

// TestPlanRefusesPairwiseOverThree refuses a 2-way predicate lifted by
// Pairwise as the J-way predicate of three relations, instead of pricing a
// join size that ignores the third.
func TestPlanRefusesPairwiseOverThree(t *testing.T) {
	rels := append(matchedKeys(8), matchedKeys(8)[0])
	eq, err := relation.NewEqui(rels[0].Schema, "key", rels[1].Schema, "key")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Planner{Memory: 8}).Plan(Query{Multi: relation.Pairwise(eq), Mode: Exact}, rels); err == nil {
		t.Fatal("planned a pairwise predicate over three relations")
	}
}
