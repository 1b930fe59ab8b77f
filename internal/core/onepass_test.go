package core

import (
	"math"
	"strings"
	"testing"

	"ppj/internal/relation"
	"ppj/internal/sim"
)

func TestJoin6OnePassCorrectness(t *testing.T) {
	for _, sh := range []struct{ nA, nB, s, m int }{
		{6, 10, 7, 3},  // segmented path (S > M)
		{6, 10, 4, 64}, // single sequential pass (S <= M)
		{5, 9, 0, 4},   // empty join
	} {
		relA, relB := genJoinSized(uint64(sh.nA*31+sh.s), sh.nA, sh.nB, sh.s)
		h := sim.NewHost(0)
		cop := newCop(t, h, sh.m, 7)
		tabs := loadTables(t, h, cop.Sealer(), relA, relB)
		pred := relation.Pairwise(keyEqui(t, relA, relB))
		rep, err := Join6OnePass(cop, tabs, pred, 1e-9, int64(sh.s))
		if err != nil {
			t.Fatalf("%+v: %v", sh, err)
		}
		checkMultiJoin(t, cop, rep.Result, []*relation.Relation{relA, relB}, pred)
	}
}

func TestJoin6OnePassSavesTheScreeningPass(t *testing.T) {
	// The whole point: with S known a priori, the read cost drops by a full
	// pass over D compared to Algorithm 6.
	relA, relB := genJoinSized(53, 8, 12, 9)
	pred := relation.Pairwise(keyEqui(t, relA, relB))
	run := func(onePass bool) sim.Stats {
		h := sim.NewHost(0)
		cop := newCop(t, h, 3, 7)
		tabs := loadTables(t, h, cop.Sealer(), relA, relB)
		if onePass {
			rep, err := Join6OnePass(cop, tabs, pred, 1e-9, 9)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Blemished {
				t.Skip("blemished run")
			}
			return rep.Stats
		}
		rep, err := Join6(cop, tabs, pred, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Blemished {
			t.Skip("blemished run")
		}
		return rep.Stats
	}
	one := run(true)
	two := run(false)
	l := uint64(8 * 12)
	if one.LogicalReads+l != two.LogicalReads {
		t.Fatalf("one-pass logical reads %d, two-pass %d: difference should be exactly L=%d",
			one.LogicalReads, two.LogicalReads, l)
	}
}

func TestJoin6OnePassRejectsWrongS(t *testing.T) {
	relA, relB := genJoinSized(59, 6, 10, 7)
	pred := relation.Pairwise(keyEqui(t, relA, relB))
	for _, wrongS := range []int64{6, 8} { // under- and over-declared
		h := sim.NewHost(0)
		cop := newCop(t, h, 3, 7)
		tabs := loadTables(t, h, cop.Sealer(), relA, relB)
		_, err := Join6OnePass(cop, tabs, pred, 1e-9, wrongS)
		if err == nil || !strings.Contains(err.Error(), "declared S") {
			t.Fatalf("declared S=%d (true 7): err = %v", wrongS, err)
		}
	}
	// And for the S <= M path.
	h := sim.NewHost(0)
	cop := newCop(t, h, 64, 7)
	tabs := loadTables(t, h, cop.Sealer(), relA, relB)
	if _, err := Join6OnePass(cop, tabs, pred, 1e-9, 3); err == nil {
		t.Fatal("under-declared S accepted on the sequential path")
	}
}

func TestJoin6OnePassValidation(t *testing.T) {
	relA, relB := genJoinSized(61, 3, 3, 2)
	h := sim.NewHost(0)
	cop := newCop(t, h, 2, 7)
	tabs := loadTables(t, h, cop.Sealer(), relA, relB)
	pred := relation.Pairwise(keyEqui(t, relA, relB))
	if _, err := Join6OnePass(cop, tabs, pred, -1, 2); err == nil {
		t.Error("negative epsilon accepted")
	}
	if _, err := Join6OnePass(cop, tabs, pred, 0.5, -1); err == nil {
		t.Error("negative S accepted")
	}
	if _, err := Join6OnePass(cop, tabs, pred, math.NaN(), 2); err == nil {
		t.Error("NaN epsilon accepted")
	}
}

func TestJoin6OnePassPrivacyTraceIdentical(t *testing.T) {
	// The access pattern is a function of (L, knownS, M, eps) only.
	const nA, nB, s, m = 6, 10, 7, 3
	digest := func(seed uint64) (uint64, uint64) {
		relA, relB := genJoinSized(seed, nA, nB, s)
		h := sim.NewHost(0)
		cop := newCop(t, h, m, 77)
		tabs := loadTables(t, h, cop.Sealer(), relA, relB)
		pred := relation.Pairwise(keyEqui(t, relA, relB))
		if _, err := Join6OnePass(cop, tabs, pred, 1e-9, s); err != nil {
			t.Fatal(err)
		}
		return h.Trace().Digest(), h.Trace().Count()
	}
	d1, c1 := digest(301)
	d2, c2 := digest(302)
	if d1 != d2 || c1 != c2 {
		t.Fatal("one-pass access pattern depends on relation contents")
	}
}
