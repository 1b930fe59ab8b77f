package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"ppj/internal/relation"
	"ppj/internal/sim"
)

// loadTables loads several relations onto one host.
func loadTables(t *testing.T, h *sim.Host, sealer sim.Sealer, rels ...*relation.Relation) []sim.Table {
	t.Helper()
	out := make([]sim.Table, len(rels))
	for i, r := range rels {
		tab, err := sim.LoadTable(h, sealer, fmt.Sprintf("X%d", i+1), r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tab
	}
	return out
}

func newCop(t *testing.T, h *sim.Host, mem int, seed uint64) *sim.Coprocessor {
	t.Helper()
	cop, err := sim.NewCoprocessor(h, sim.Config{Memory: mem, Sealer: sim.PlainSealer{}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return cop
}

func checkMultiJoin(t *testing.T, cop *sim.Coprocessor, res Result, rels []*relation.Relation, pred relation.MultiPredicate) {
	t.Helper()
	got, err := DecodeOutput(cop, res)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := relation.ReferenceMultiJoin(rels, pred)
	if !relation.SameMultiset(got, want) {
		t.Fatalf("join mismatch: got %d rows, want %d", got.Len(), want.Len())
	}
	// Chapter 5 outputs are exact: no decoys and no padding.
	if res.OutputLen != int64(want.Len()) {
		t.Fatalf("output length %d, want exact S=%d", res.OutputLen, want.Len())
	}
}

type runCh5 func(cop *sim.Coprocessor, tabs []sim.Table, pred relation.MultiPredicate) (Result, error)

var ch5Algorithms = map[string]runCh5{
	"alg4": func(cop *sim.Coprocessor, tabs []sim.Table, pred relation.MultiPredicate) (Result, error) {
		return join4([]*sim.Coprocessor{cop}, tabs, pred)
	},
	"alg5": Join5,
	"alg6": func(cop *sim.Coprocessor, tabs []sim.Table, pred relation.MultiPredicate) (Result, error) {
		rep, err := Join6(cop, tabs, pred, 1e-9)
		return rep.Result, err
	},
}

func TestCh5CorrectnessTwoWay(t *testing.T) {
	shapes := []struct{ nA, nB, s, m int }{
		{6, 8, 5, 2},   // S > M: multi-scan / segmented paths
		{6, 8, 5, 64},  // S <= M: single pass
		{5, 9, 0, 4},   // empty result
		{4, 4, 4, 1},   // M = 1
		{7, 11, 11, 3}, // many scans
	}
	for name, run := range ch5Algorithms {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s_%dx%d_S%d_M%d", name, sh.nA, sh.nB, sh.s, sh.m), func(t *testing.T) {
				relA, relB := genJoinSized(uint64(sh.nA+sh.s), sh.nA, sh.nB, sh.s)
				h := sim.NewHost(0)
				cop := newCop(t, h, sh.m, 21)
				tabs := loadTables(t, h, cop.Sealer(), relA, relB)
				pred := relation.Pairwise(keyEqui(t, relA, relB))
				res, err := run(cop, tabs, pred)
				if err != nil {
					t.Fatal(err)
				}
				checkMultiJoin(t, cop, res, []*relation.Relation{relA, relB}, pred)
			})
		}
	}
}

func TestCh5CorrectnessThreeWay(t *testing.T) {
	mk := func(seed uint64, n int) *relation.Relation {
		return relation.GenKeyed(relation.NewRand(seed), n, 4)
	}
	rels := []*relation.Relation{mk(1, 4), mk(2, 5), mk(3, 3)}
	pred := relation.MultiPredicateFunc{
		Fn: func(rs []relation.Row) bool {
			return rs[0].Int(0) == rs[1].Int(0) && rs[1].Int(0) == rs[2].Int(0)
		},
		Desc: "x1.key = x2.key = x3.key",
	}
	for name, run := range ch5Algorithms {
		t.Run(name, func(t *testing.T) {
			h := sim.NewHost(0)
			cop := newCop(t, h, 3, 31)
			tabs := loadTables(t, h, cop.Sealer(), rels...)
			res, err := run(cop, tabs, pred)
			if err != nil {
				t.Fatal(err)
			}
			checkMultiJoin(t, cop, res, rels, pred)
		})
	}
}

func TestCh5CorrectnessWithOCB(t *testing.T) {
	relA, relB := genJoinSized(9, 5, 7, 4)
	for name, run := range ch5Algorithms {
		t.Run(name, func(t *testing.T) {
			h := sim.NewHost(0)
			sealer, err := sim.NewRandomGCMSealer()
			if err != nil {
				t.Fatal(err)
			}
			cop, err := sim.NewCoprocessor(h, sim.Config{Memory: 2, Sealer: sealer, Seed: 13})
			if err != nil {
				t.Fatal(err)
			}
			tabs := loadTables(t, h, sealer, relA, relB)
			pred := relation.Pairwise(keyEqui(t, relA, relB))
			res, err := run(cop, tabs, pred)
			if err != nil {
				t.Fatal(err)
			}
			checkMultiJoin(t, cop, res, []*relation.Relation{relA, relB}, pred)
		})
	}
}

func TestCh5PrivacyTraceIdentical(t *testing.T) {
	// Definition 3: inputs agreeing on (|X₁|, |X₂|, S) — and the device seed
	// — must induce identical access sequences.
	const nA, nB, s, m = 6, 10, 7, 3
	for name, run := range ch5Algorithms {
		t.Run(name, func(t *testing.T) {
			digest := func(seed uint64) (uint64, uint64) {
				relA, relB := genJoinSized(seed, nA, nB, s)
				h := sim.NewHost(0)
				cop := newCop(t, h, m, 77)
				tabs := loadTables(t, h, cop.Sealer(), relA, relB)
				pred := relation.Pairwise(keyEqui(t, relA, relB))
				if _, err := run(cop, tabs, pred); err != nil {
					t.Fatal(err)
				}
				return h.Trace().Digest(), h.Trace().Count()
			}
			d1, c1 := digest(101)
			d2, c2 := digest(202)
			if d1 != d2 || c1 != c2 {
				t.Fatalf("%s: access pattern depends on relation contents", name)
			}
		})
	}
}

func TestJoin5TransfersExact(t *testing.T) {
	for _, sh := range []struct{ nA, nB, s, m int }{
		{6, 8, 5, 2}, {5, 9, 0, 4}, {7, 11, 11, 3}, {4, 4, 4, 64},
	} {
		relA, relB := genJoinSized(uint64(sh.nA), sh.nA, sh.nB, sh.s)
		h := sim.NewHost(0)
		cop := newCop(t, h, sh.m, 3)
		tabs := loadTables(t, h, cop.Sealer(), relA, relB)
		pred := relation.Pairwise(keyEqui(t, relA, relB))
		res, err := Join5(cop, tabs, pred)
		if err != nil {
			t.Fatal(err)
		}
		want := Join5Transfers([]int64{int64(sh.nA), int64(sh.nB)}, int64(sh.s), int64(sh.m))
		if got := int64(res.Stats.Transfers()); got != want {
			t.Errorf("%+v: transfers %d, want %d", sh, got, want)
		}
	}
}

func TestJoin4TransfersExact(t *testing.T) {
	for _, sh := range []struct{ nA, nB, s int }{
		{6, 8, 5}, {5, 9, 0}, {4, 16, 16},
	} {
		relA, relB := genJoinSized(uint64(sh.nA*7), sh.nA, sh.nB, sh.s)
		h := sim.NewHost(0)
		cop := newCop(t, h, 2, 3)
		tabs := loadTables(t, h, cop.Sealer(), relA, relB)
		pred := relation.Pairwise(keyEqui(t, relA, relB))
		res, err := join4([]*sim.Coprocessor{cop}, tabs, pred)
		if err != nil {
			t.Fatal(err)
		}
		want := Join4Transfers([]int64{int64(sh.nA), int64(sh.nB)}, int64(sh.s))
		if got := int64(res.Stats.Transfers()); got != want {
			t.Errorf("%+v: transfers %d, want %d", sh, got, want)
		}
	}
}

func TestJoin6TransfersBounded(t *testing.T) {
	// Random-order reads make the exact get count permutation-dependent;
	// Join6Transfers is an upper bound that assumes no coordinate reuse.
	sh := struct{ nA, nB, s, m int }{8, 16, 12, 2}
	relA, relB := genJoinSized(11, sh.nA, sh.nB, sh.s)
	h := sim.NewHost(0)
	cop := newCop(t, h, sh.m, 5)
	tabs := loadTables(t, h, cop.Sealer(), relA, relB)
	pred := relation.Pairwise(keyEqui(t, relA, relB))
	rep, err := Join6(cop, tabs, pred, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blemished {
		t.Skip("blemished run; transfer bound applies to the clean path")
	}
	bound := Join6Transfers([]int64{int64(sh.nA), int64(sh.nB)}, int64(sh.s), int64(sh.m), 0.3)
	got := int64(rep.Stats.Transfers())
	if got > bound {
		t.Fatalf("transfers %d exceed bound %d", got, bound)
	}
	l := int64(sh.nA * sh.nB)
	if got < bound-2*l {
		t.Fatalf("transfers %d implausibly far below bound %d", got, bound)
	}
}

func TestJoin6LargeMemorySinglePass(t *testing.T) {
	// M >= S: cost collapses to L + S (§5.3.3), a single screening pass.
	relA, relB := genJoinSized(13, 6, 6, 5)
	h := sim.NewHost(0)
	cop := newCop(t, h, 64, 5)
	tabs := loadTables(t, h, cop.Sealer(), relA, relB)
	pred := relation.Pairwise(keyEqui(t, relA, relB))
	rep, err := Join6(cop, tabs, pred, 1e-20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 1 || rep.S != 5 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Stats.LogicalReads != 36 {
		t.Fatalf("logical reads %d, want L=36", rep.Stats.LogicalReads)
	}
	if rep.Stats.Puts != 5 {
		t.Fatalf("puts %d, want S=5", rep.Stats.Puts)
	}
}

func TestJoin6BlemishSalvage(t *testing.T) {
	// eps=1 accepts any segment size, so n*=L and a single segment holds all
	// S > M results: a guaranteed blemish exercising the salvage path.
	relA, relB := genJoinSized(17, 6, 9, 8)
	h := sim.NewHost(0)
	cop := newCop(t, h, 2, 5)
	tabs := loadTables(t, h, cop.Sealer(), relA, relB)
	pred := relation.Pairwise(keyEqui(t, relA, relB))
	rep, err := Join6(cop, tabs, pred, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Blemished {
		t.Fatal("expected a blemished run")
	}
	checkMultiJoin(t, cop, rep.Result, []*relation.Relation{relA, relB}, pred)
}

func TestJoin6ReportFields(t *testing.T) {
	relA, relB := genJoinSized(19, 6, 10, 7)
	h := sim.NewHost(0)
	cop := newCop(t, h, 3, 5)
	tabs := loadTables(t, h, cop.Sealer(), relA, relB)
	pred := relation.Pairwise(keyEqui(t, relA, relB))
	rep, err := Join6(cop, tabs, pred, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.S != 7 {
		t.Fatalf("S = %d, want 7", rep.S)
	}
	if rep.NStar < 3 { // n* >= M always
		t.Fatalf("NStar = %d", rep.NStar)
	}
	if rep.Segments != (60+rep.NStar-1)/rep.NStar {
		t.Fatalf("Segments = %d with NStar = %d", rep.Segments, rep.NStar)
	}
}

func TestJoin6Validation(t *testing.T) {
	relA, relB := genJoinSized(23, 3, 3, 2)
	h := sim.NewHost(0)
	cop := newCop(t, h, 2, 5)
	tabs := loadTables(t, h, cop.Sealer(), relA, relB)
	pred := relation.Pairwise(keyEqui(t, relA, relB))
	if _, err := Join6(cop, tabs, pred, -0.1); !errors.Is(err, errInvalid) {
		t.Error("negative epsilon accepted")
	}
	if _, err := Join6(cop, tabs, pred, 1.5); !errors.Is(err, errInvalid) {
		t.Error("epsilon > 1 accepted")
	}
	if _, err := Join6(cop, tabs, pred, math.NaN()); !errors.Is(err, errInvalid) {
		t.Error("NaN epsilon accepted")
	}
	if _, err := join4([]*sim.Coprocessor{cop}, nil, pred); !errors.Is(err, errInvalid) {
		t.Error("no tables accepted")
	}
}

func TestCh5FixedTimePredicateCharges(t *testing.T) {
	// Fixed Time principle: the predicate is evaluated (and charged) exactly
	// once per iTuple per pass, independent of match outcomes.
	for _, sh := range []struct {
		nA, nB, s, m, k, scans int
	}{
		{5, 8, 6, 2, 1, 3},
		// K = 4: blocks of 4, 4 and 2 rows, 5 result slots, so S = 7 takes
		// two scans where the one-row view would take one.
		{10, 7, 7, 8, 4, 2},
	} {
		relA, relB := genJoinSized(29, sh.nA, sh.nB, sh.s)
		h := sim.NewHost(0)
		cop := newCop(t, h, sh.m, 5)
		tabs := loadTables(t, h, cop.Sealer(), relA, relB)
		if k := join5Block([]int64{int64(sh.nA), int64(sh.nB)}, int64(sh.m)); k != int64(sh.k) {
			t.Fatalf("%dx%d, M = %d: block of %d rows, want %d", sh.nA, sh.nB, sh.m, k, sh.k)
		}
		res, err := Join5(cop, tabs, relation.Pairwise(keyEqui(t, relA, relB)))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Stats.PredEvals, uint64(sh.scans*sh.nA*sh.nB); got != want || res.Stats.LogicalReads != want {
			t.Fatalf("%dx%d, M = %d: %d predicate evaluations and %d logical reads, want %d", sh.nA, sh.nB, sh.m, got, res.Stats.LogicalReads, want)
		}
	}
}

// TestScanFormOneRowTables holds the scan form of Algorithms 4–6 and the
// aggregate pass to measurement at P = 1 on inputs with a one-row table,
// whose row the Cartesian view fetches once and keeps across scans, with
// Algorithm 5 at K = 1 and in blocks.
func TestScanFormOneRowTables(t *testing.T) {
	firstEqualsLast := relation.MultiPredicateFunc{
		Fn:   func(rs []relation.Row) bool { return rs[0].Int(0) == rs[len(rs)-1].Int(0) },
		Desc: "x1.key = xJ.key",
	}
	for _, sh := range []struct {
		sizes          []int64
		keySpace, m, k int64 // k: Algorithm 5's block size
	}{
		{[]int64{3, 1}, 2, 8, 1}, // a block of 3 saves no gets: 4 a scan either way
		{[]int64{5, 1}, 2, 8, 1},
		{[]int64{1, 3}, 1, 1, 1},    // S = 3: three scans
		{[]int64{1, 3}, 1, 8, 1},    // |X₁| = 1
		{[]int64{2, 1, 3}, 1, 2, 1}, // S = 6: three scans
		{[]int64{4, 1, 3}, 1, 8, 4}, // S = 12: three scans of 5 slots, X₁ read once
	} {
		if k := join5Block(sh.sizes, sh.m); k != sh.k {
			t.Errorf("%v, M = %d: Algorithm 5 blocks %d rows, want %d", sh.sizes, sh.m, k, sh.k)
		}
		rels := make([]*relation.Relation, len(sh.sizes))
		for j, n := range sh.sizes {
			rels[j] = relation.GenKeyed(relation.NewRand(uint64(j+1)), int(n), sh.keySpace)
		}
		s := int64(relation.ReferenceMultiJoin(rels, firstEqualsLast).Len())
		for _, alg := range Algorithms[3:6] {
			if alg.Number == 6 && s > sh.m {
				continue // Algorithm 6's form is a bound once S > M
			}
			h := sim.NewHost(0)
			cop := newCop(t, h, int(sh.m), 7)
			in := Inputs{Multi: firstEqualsLast, Epsilon: 1e-9}
			res, use, err := alg.Run([]*sim.Coprocessor{cop}, loadTables(t, h, cop.Sealer(), rels...), in)
			if err != nil {
				t.Fatal(err)
			}
			if model := alg.Transfers(sh.sizes, s, sh.m, in, use); int64(res.Stats.Transfers()) != model {
				t.Errorf("%s %v, S = %d, M = %d: measured %d transfers, closed form %d", alg.Name, sh.sizes, s, sh.m, res.Stats.Transfers(), model)
			}
		}
		h := sim.NewHost(0)
		cop := newCop(t, h, int(sh.m), 7)
		res, err := Aggregate(cop, loadTables(t, h, cop.Sealer(), rels...), firstEqualsLast, AggSpec{Kind: AggCount})
		if err != nil {
			t.Fatal(err)
		}
		if model := AggregateTransfers(sh.sizes); res.Count != s || int64(res.Stats.Transfers()) != model {
			t.Errorf("aggregate %v: count %d (S = %d), measured %d transfers, closed form %d", sh.sizes, res.Count, s, res.Stats.Transfers(), model)
		}
	}
}
