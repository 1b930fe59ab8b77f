package core

import (
	"testing"

	"ppj/internal/relation"
	"ppj/internal/sim"
)

// These tests pin the obliviousness guarantees (Def. 1 §4.2, Def. 3
// §5.1.2) at the counter level: two executions over relations that agree
// only on the public parameters — sizes and N for Algorithm 3; sizes, S
// and M for Algorithm 5 — but differ in tuple contents, data seeds, and
// coprocessor seeds must charge exactly the same Stats. A refactor that
// made any counter data-dependent (an early exit, a skipped dummy write, a
// content-sensitive buffer flush) would break these before it ever reached
// the full trace-equality privacy suite.

// TestAccessPatternInvarianceAlg3 runs Algorithm 3 on two unrelated inputs
// sharing (|A|, |B|, N) and asserts identical counters.
func TestAccessPatternInvarianceAlg3(t *testing.T) {
	const (
		nA = 9
		nB = 14
		n  = 3
	)
	run := func(dataSeed, copSeed uint64) sim.Stats {
		t.Helper()
		relA, relB := relation.GenWithMatchBound(relation.NewRand(dataSeed), nA, nB, n)
		h := sim.NewHost(0)
		cop := newCop(t, h, 64, copSeed)
		tabs := loadTables(t, h, cop.Sealer(), relA, relB)
		res, err := ParallelJoin3([]*sim.Coprocessor{cop}, tabs[0], tabs[1], keyEqui(t, relA, relB), n, false)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	s1, s2 := run(1001, 7), run(2002, 8)
	if s1.Transfers() == 0 || s1.PredEvals == 0 {
		t.Fatalf("degenerate run: %+v", s1)
	}
	if s1 != s2 {
		t.Fatalf("alg3 access pattern depends on tuple contents:\n run1 %+v\n run2 %+v", s1, s2)
	}
}

// TestAccessPatternInvarianceAlg5 runs Algorithm 5 on two unrelated inputs
// sharing (|R1|, |R2|, S, M) — S > M−K+1 so the multi-scan flush
// discipline is exercised — and asserts identical counters, once with the
// one-row view (K = 1) and once with blocks of K = 4 rows of X₁, the last
// one short.
func TestAccessPatternInvarianceAlg5(t *testing.T) {
	for _, sh := range []struct{ nA, nB, s, m int }{
		{8, 12, 6, 3},
		{10, 7, 7, 8},
	} {
		run := func(dataSeed, copSeed uint64) sim.Stats {
			t.Helper()
			relA, relB := genJoinSized(dataSeed, sh.nA, sh.nB, sh.s)
			h := sim.NewHost(0)
			cop := newCop(t, h, sh.m, copSeed)
			tabs := loadTables(t, h, cop.Sealer(), relA, relB)
			res, err := Join5(cop, tabs, relation.Pairwise(keyEqui(t, relA, relB)))
			if err != nil {
				t.Fatal(err)
			}
			if res.OutputLen != int64(sh.s) {
				t.Fatalf("output length %d, want exact S=%d (the public size the pattern may reveal)", res.OutputLen, sh.s)
			}
			return res.Stats
		}
		s1, s2 := run(3003, 17), run(4004, 18)
		if s1.LogicalReads == 0 || s1.PredEvals == 0 {
			t.Fatalf("degenerate run: %+v", s1)
		}
		if s1 != s2 {
			t.Fatalf("alg5 %dx%d, M = %d: access pattern depends on tuple contents:\n run1 %+v\n run2 %+v", sh.nA, sh.nB, sh.m, s1, s2)
		}
	}
}
