package main

import (
	"fmt"

	"ppj/internal/core"
	"ppj/internal/costmodel"
	"ppj/internal/relation"
	"ppj/internal/sim"
	"ppj/internal/smc"
)

// runValidate executes every algorithm in the coprocessor simulator at
// reduced scale and compares the measured transfer counters against (a) the
// implementation's exact count functions and (b) the paper's closed forms.
// The implementation counts are required to match exactly; the paper's
// forms are approximations (bitonic sorts of power-of-two sizes, logical D reads),
// so only their ratio is reported.
func runValidate(out *output) error {
	out.csvRow("experiment", "measured", "exact_model", "paper_formula", "paper_ratio")

	// --- Chapter 4, |A|=32, |B|=64, N=4, M=2 ---
	const nA, nB, n, mem = 32, 64, 4, 2
	relA, relB := relation.GenWithMatchBound(relation.NewRand(77), nA, nB, n)
	eq, err := relation.NewEqui(relA.Schema, "key", relB.Schema, "key")
	if err != nil {
		return err
	}
	out.printf("Chapter 4 algorithms, |A|=%d |B|=%d N=%d M=%d\n", nA, nB, n, mem)
	out.printf("%-26s %12s %12s %14s %8s\n", "", "measured", "exact model", "paper formula", "ratio")

	// measure runs one row of the algorithm table on a fresh single-device
	// engine and reports it against the row's closed form and the paper's.
	// Only Algorithm 6's closed form is a bound (random-order reads reuse
	// coordinates); the others must match the measurement exactly.
	measure := func(alg *core.Algorithm, label string, mem int, rels []*relation.Relation, in core.Inputs, s int64, paper float64) error {
		h := sim.NewHost(0)
		cop, err := sim.NewCoprocessor(h, sim.Config{Memory: mem, Sealer: sim.PlainSealer{}, Seed: 5})
		if err != nil {
			return err
		}
		tabs := make([]sim.Table, len(rels))
		sizes := make([]int64, len(rels))
		for i, rel := range rels {
			if tabs[i], err = sim.LoadTable(h, cop.Sealer(), fmt.Sprintf("X%d", i+1), rel); err != nil {
				return err
			}
			sizes[i] = int64(rel.Len())
		}
		res, use, err := alg.Run([]*sim.Coprocessor{cop}, tabs, in)
		if err != nil {
			return err
		}
		meas := int64(res.Stats.Transfers())
		exact := alg.Transfers(sizes, s, int64(mem), in, use)
		holds := meas == exact || alg.Number == 6 && meas <= exact
		status := "OK"
		if !holds {
			status = "MISMATCH"
		}
		out.printf("%-26s %12d %12d %14.0f %8.2f  %s\n", label, meas, exact, paper, float64(meas)/paper, status)
		out.csvRow(label, meas, exact, paper, float64(meas)/paper)
		if !holds {
			return fmt.Errorf("%s: measured %d vs model %d", label, meas, exact)
		}
		return nil
	}

	paper4 := []float64{costmodel.Alg1Cost(nA, nB, n), costmodel.Alg2Cost(nA, nB, n, mem), costmodel.Alg3Cost(nA, nB, n, false)}
	for i, alg := range core.Algorithms[:3] {
		label := fmt.Sprintf("Algorithm %d", alg.Number)
		if err := measure(alg, label, mem, []*relation.Relation{relA, relB}, core.Inputs{Pred: eq, N: n}, 0, paper4[i]); err != nil {
			return err
		}
	}

	// --- Chapter 5, scaled setting: |X1|=|X2|=80 (L=6400), S=64 ---
	const x, s5, eps = 80, 64, 1e-10
	l := int64(x * x)
	relX, relY := genJoinSizedBench(101, x, x, s5)
	in5 := core.Inputs{Pred: mustEqui(relX, relY), Epsilon: eps}
	out.printf("\nChapter 5 algorithms, L=%d S=%d (scaled setting)\n", l, s5)
	out.printf("%-26s %12s %12s %14s %8s\n", "", "measured", "exact model", "paper formula", "ratio")

	for _, mem5 := range []int{8, 32} {
		paper5 := []float64{costmodel.Alg4Cost(l, s5), costmodel.Alg5Cost(l, s5, int64(mem5)), costmodel.Alg6Cost(l, s5, int64(mem5), eps).Total}
		for i, alg := range core.Algorithms[3:6] {
			label := fmt.Sprintf("Algorithm %d (M=%d)", alg.Number, mem5)
			if alg.Number == 4 {
				if mem5 != 8 {
					continue // Algorithm 4 ignores memory
				}
				label = "Algorithm 4"
			}
			if err := measure(alg, label, mem5, []*relation.Relation{relX, relY}, in5, s5, paper5[i]); err != nil {
				return err
			}
		}
	}
	out.printf("\nThe paper counts one logical read per iTuple; the simulator counts the\n")
	out.printf("underlying per-table gets of D. Algorithm 6's ratios > 1: its random-order\n")
	out.printf("reads fetch every table. Algorithm 5's < 1: T holds a block of K = M/2\n")
	out.printf("rows of X1 and fetches X2 once per block, not once per X1 row.\n")
	return nil
}

// runSMCDemo runs the executable garbled-circuit join on a toy input and
// the coprocessor join on the same input, comparing bytes moved — the
// paper's headline claim made concrete.
func runSMCDemo(out *output) error {
	aliceKeys := []uint64{3, 17, 42, 99}
	bobKeys := []uint64{17, 5, 42}
	const width = 16

	pairs, st, err := smc.PrivateEqualityJoin{Width: width}.Run(aliceKeys, bobKeys)
	if err != nil {
		return err
	}
	out.printf("inputs: %d x %d keys of %d bits\n\n", len(aliceKeys), len(bobKeys), width)
	out.printf("Yao garbled-circuit join (this repo's executable SMC baseline):\n")
	out.printf("  matches: %v\n", pairs)
	out.printf("  circuits: %d, oblivious transfers: %d\n", st.Pairs, st.OTs)
	out.printf("  bytes moved: %d (garbled tables %d, OT %d, labels %d)\n",
		st.TotalBytes, st.GarbledBytes, st.OTBytes, st.InputLabelSize)

	// Same join inside the coprocessor.
	relA := relation.NewRelation(relation.KeyedSchema())
	for i, k := range aliceKeys {
		relA.MustAppend(relation.Tuple{relation.IntValue(int64(k)), relation.IntValue(int64(i))})
	}
	relB := relation.NewRelation(relation.KeyedSchema())
	for i, k := range bobKeys {
		relB.MustAppend(relation.Tuple{relation.IntValue(int64(k)), relation.IntValue(int64(i))})
	}
	h := sim.NewHost(0)
	sealer, err := sim.NewRandomGCMSealer()
	if err != nil {
		return err
	}
	cop, err := sim.NewCoprocessor(h, sim.Config{Memory: 8, Sealer: sealer, Seed: 3})
	if err != nil {
		return err
	}
	tabA, err := sim.LoadTable(h, cop.Sealer(), "A", relA)
	if err != nil {
		return err
	}
	tabB, err := sim.LoadTable(h, cop.Sealer(), "B", relB)
	if err != nil {
		return err
	}
	res, err := core.Join5(cop, []sim.Table{tabA, tabB}, relation.Pairwise(mustEqui(relA, relB)))
	if err != nil {
		return err
	}
	tupleBytes := relA.Schema.TupleSize() + sealer.Overhead()
	copBytes := int64(res.Stats.Transfers()) * int64(tupleBytes)
	out.printf("\nAlgorithm 5 on a secure coprocessor, same input:\n")
	out.printf("  matches: %d\n", res.OutputLen)
	out.printf("  tuple transfers: %d (~%d bytes incl. sealing overhead)\n", res.Stats.Transfers(), copBytes)
	out.printf("\nSMC / coprocessor byte ratio: %.0fx\n", float64(st.TotalBytes)/float64(copBytes))
	out.csvRow("smc_bytes", st.TotalBytes)
	out.csvRow("coprocessor_bytes", copBytes)
	return nil
}

// genJoinSizedBench mirrors the core test generator: a pair of keyed
// relations with an exact join size s.
func genJoinSizedBench(seed uint64, nA, nB, s int) (*relation.Relation, *relation.Relation) {
	rng := relation.NewRand(seed)
	a := relation.NewRelation(relation.KeyedSchema())
	for i := 0; i < nA; i++ {
		a.MustAppend(relation.Tuple{relation.IntValue(int64(i)), relation.IntValue(rng.Int64N(1 << 30))})
	}
	b := relation.NewRelation(relation.KeyedSchema())
	for j := 0; j < s; j++ {
		b.MustAppend(relation.Tuple{relation.IntValue(int64(j % nA)), relation.IntValue(rng.Int64N(1 << 30))})
	}
	for j := s; j < nB; j++ {
		b.MustAppend(relation.Tuple{relation.IntValue(int64(nA) + rng.Int64N(1<<20)), relation.IntValue(rng.Int64N(1 << 30))})
	}
	return a, b
}

func mustEqui(a, b *relation.Relation) *relation.Equi {
	eq, err := relation.NewEqui(a.Schema, "key", b.Schema, "key")
	if err != nil {
		panic(err)
	}
	return eq
}

// runOnePass measures the one-pass Algorithm 6 extension (known S) against
// the standard two-pass Algorithm 6 at the scaled setting, quantifying the
// answer to the thesis's "does a one pass algorithm exist?" question. It
// fails unless both runs are clean and the one-pass run saves exactly the
// L logical reads of the screening pass.
func runOnePass(out *output) error {
	const x, s = 80, 64
	l := int64(x * x)
	relX, relY := genJoinSizedBench(211, x, x, s)
	pred := relation.Pairwise(mustEqui(relX, relY))
	out.printf("L=%d S=%d M=8, eps=1e-10\n\n", l, s)
	out.printf("%-24s %14s %14s %10s\n", "", "logical reads", "transfers", "blemish")
	out.csvRow("variant", "logical_reads", "transfers")

	run := func(onePass bool) (sim.Stats, bool, error) {
		h := sim.NewHost(0)
		cop, err := sim.NewCoprocessor(h, sim.Config{Memory: 8, Sealer: sim.PlainSealer{}, Seed: 5})
		if err != nil {
			return sim.Stats{}, false, err
		}
		tabX, err := sim.LoadTable(h, cop.Sealer(), "X1", relX)
		if err != nil {
			return sim.Stats{}, false, err
		}
		tabY, err := sim.LoadTable(h, cop.Sealer(), "X2", relY)
		if err != nil {
			return sim.Stats{}, false, err
		}
		tabs := []sim.Table{tabX, tabY}
		if onePass {
			rep, err := core.Join6OnePass(cop, tabs, pred, 1e-10, s)
			return rep.Stats, rep.Blemished, err
		}
		rep, err := core.Join6(cop, tabs, pred, 1e-10)
		return rep.Stats, rep.Blemished, err
	}
	two, b2, err := run(false)
	if err != nil {
		return err
	}
	one, b1, err := run(true)
	if err != nil {
		return err
	}
	out.printf("%-24s %14d %14d %10v\n", "Algorithm 6 (two-pass)", two.LogicalReads, two.Transfers(), b2)
	out.printf("%-24s %14d %14d %10v\n", "one-pass (S known)", one.LogicalReads, one.Transfers(), b1)
	out.csvRow("two-pass", two.LogicalReads, two.Transfers())
	out.csvRow("one-pass", one.LogicalReads, one.Transfers())
	out.printf("\nthe screening pass (exactly L = %d logical reads) disappears when S is\n", l)
	out.printf("public a priori; the random-order processing pass and filter are unchanged.\n")
	if b1 || b2 {
		return fmt.Errorf("a blemished run (two-pass %v, one-pass %v) measures the salvage, not the passes", b2, b1)
	}
	if two.LogicalReads != one.LogicalReads+uint64(l) {
		return fmt.Errorf("two-pass logical reads %d, one-pass %d: the difference should be exactly L = %d",
			two.LogicalReads, one.LogicalReads, l)
	}
	return nil
}
