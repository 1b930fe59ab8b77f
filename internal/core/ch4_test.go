package core

import (
	"errors"
	"fmt"
	"testing"

	"ppj/internal/relation"
	"ppj/internal/sim"
)

// runCh4 is the shape of the Chapter 4 algorithm entry points under test.
type runCh4 func(env *testEnv, pred *relation.Equi, n int64) (Result, error)

var ch4Algorithms = map[string]runCh4{
	"alg1": func(env *testEnv, pred *relation.Equi, n int64) (Result, error) {
		return Join1(env.t, env.tabA, env.tabB, pred, n)
	},
	"alg1variant": func(env *testEnv, pred *relation.Equi, n int64) (Result, error) {
		return Join1Variant(env.t, env.tabA, env.tabB, pred, n)
	},
	"alg2": func(env *testEnv, pred *relation.Equi, n int64) (Result, error) {
		return ParallelJoin2([]*sim.Coprocessor{env.t}, env.tabA, env.tabB, pred, n, 0)
	},
	"alg3": func(env *testEnv, pred *relation.Equi, n int64) (Result, error) {
		return ParallelJoin3([]*sim.Coprocessor{env.t}, env.tabA, env.tabB, pred, n, false)
	},
}

func TestCh4Correctness(t *testing.T) {
	shapes := []struct{ nA, nB, n int }{
		{4, 8, 2}, {7, 13, 5}, {10, 16, 1}, {3, 20, 20}, {8, 9, 3},
	}
	for name, run := range ch4Algorithms {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s_%dx%d_N%d", name, sh.nA, sh.nB, sh.n), func(t *testing.T) {
				relA, relB := relation.GenWithMatchBound(relation.NewRand(uint64(sh.nA*sh.nB)), sh.nA, sh.nB, sh.n)
				env := newEnv(t, 64, 7, relA, relB)
				pred := keyEqui(t, relA, relB)
				res, err := run(env, pred, int64(sh.n))
				if err != nil {
					t.Fatal(err)
				}
				checkJoin(t, env, res, pred)
				if res.OutputLen != int64(sh.n*sh.nA) {
					t.Fatalf("output length %d, want N|A| = %d", res.OutputLen, sh.n*sh.nA)
				}
			})
		}
	}
}

func TestCh4CorrectnessArbitraryPredicate(t *testing.T) {
	// The general algorithms must handle non-equality predicates; use a band
	// join |a.key - b.key| <= 2.
	relA := relation.GenKeyed(relation.NewRand(3), 6, 12)
	relB := relation.GenKeyed(relation.NewRand(4), 10, 12)
	band, err := relation.NewBand(relA.Schema, "key", relB.Schema, "key", 2)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(relation.MaxMatches(relA, relB, band))
	if n == 0 {
		n = 1
	}
	for _, name := range []string{"alg1", "alg2"} {
		t.Run(name, func(t *testing.T) {
			env := newEnv(t, 64, 9, relA, relB)
			var res Result
			if name == "alg1" {
				res, err = Join1(env.t, env.tabA, env.tabB, band, n)
			} else {
				res, err = ParallelJoin2([]*sim.Coprocessor{env.t}, env.tabA, env.tabB, band, n, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeOutput(env.t, res)
			if err != nil {
				t.Fatal(err)
			}
			want := relation.ReferenceJoin(relA, relB, band)
			if !relation.SameMultiset(got, want) {
				t.Fatalf("band join mismatch: got %d want %d rows", got.Len(), want.Len())
			}
		})
	}
}

func TestCh4CorrectnessWithOCB(t *testing.T) {
	// One full run per algorithm through the real authenticated encryption.
	relA, relB := relation.GenWithMatchBound(relation.NewRand(5), 5, 10, 3)
	for name, run := range ch4Algorithms {
		t.Run(name, func(t *testing.T) {
			h := sim.NewHost(0)
			sealer, err := sim.NewRandomGCMSealer()
			if err != nil {
				t.Fatal(err)
			}
			cop, err := sim.NewCoprocessor(h, sim.Config{Memory: 64, Sealer: sealer, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			tabA, err := sim.LoadTable(h, sealer, "A", relA)
			if err != nil {
				t.Fatal(err)
			}
			tabB, err := sim.LoadTable(h, sealer, "B", relB)
			if err != nil {
				t.Fatal(err)
			}
			env := &testEnv{h: h, t: cop, relA: relA, relB: relB, tabA: tabA, tabB: tabB}
			pred := keyEqui(t, relA, relB)
			res, err := run(env, pred, 3)
			if err != nil {
				t.Fatal(err)
			}
			checkJoin(t, env, res, pred)
		})
	}
}

func TestCh4PrivacyTraceIdentical(t *testing.T) {
	// Definition 1: for relations agreeing on (|A|, |B|, N), the access
	// sequences must be identically distributed. The algorithms are
	// deterministic given the device seed, so the traces must be equal.
	const nA, nB, n = 6, 12, 3
	for name, run := range ch4Algorithms {
		t.Run(name, func(t *testing.T) {
			digest := func(seed uint64) (uint64, uint64) {
				relA, relB := relation.GenWithMatchBound(relation.NewRand(seed), nA, nB, n)
				env := newEnv(t, 64, 42, relA, relB)
				if _, err := run(env, keyEqui(t, relA, relB), n); err != nil {
					t.Fatal(err)
				}
				return env.h.Trace().Digest(), env.h.Trace().Count()
			}
			d1, c1 := digest(100)
			d2, c2 := digest(200)
			if d1 != d2 || c1 != c2 {
				t.Fatalf("%s: access pattern depends on relation contents", name)
			}
		})
	}
}

func TestCh4PrivacyExtremeContents(t *testing.T) {
	// All-match vs no-match inputs of the same shape must be
	// indistinguishable (given the same declared N).
	const nA, nB, n = 4, 8, 8
	mk := func(match bool) (*relation.Relation, *relation.Relation) {
		a := relation.NewRelation(relation.KeyedSchema())
		b := relation.NewRelation(relation.KeyedSchema())
		for i := 0; i < nA; i++ {
			a.MustAppend(relation.Tuple{relation.IntValue(0), relation.IntValue(int64(i))})
		}
		for j := 0; j < nB; j++ {
			key := int64(0)
			if !match {
				key = 999
			}
			b.MustAppend(relation.Tuple{relation.IntValue(key), relation.IntValue(int64(j))})
		}
		return a, b
	}
	for name, run := range ch4Algorithms {
		t.Run(name, func(t *testing.T) {
			digest := func(match bool) uint64 {
				relA, relB := mk(match)
				env := newEnv(t, 64, 17, relA, relB)
				if _, err := run(env, keyEqui(t, relA, relB), n); err != nil {
					t.Fatal(err)
				}
				return env.h.Trace().Digest()
			}
			if digest(true) != digest(false) {
				t.Fatalf("%s: all-match and no-match traces differ", name)
			}
		})
	}
}

func TestJoin1TransfersExact(t *testing.T) {
	for _, sh := range []struct{ nA, nB, n int64 }{{4, 8, 2}, {5, 13, 3}, {2, 10, 10}} {
		relA, relB := relation.GenWithMatchBound(relation.NewRand(1), int(sh.nA), int(sh.nB), int(sh.n))
		env := newEnv(t, 64, 5, relA, relB)
		res, err := Join1(env.t, env.tabA, env.tabB, keyEqui(t, relA, relB), sh.n)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := int64(res.Stats.Transfers()), Join1Transfers(sh.nA, sh.nB, sh.n); got != want {
			t.Errorf("%+v: transfers %d, want %d", sh, got, want)
		}
	}
}

func TestJoin2TransfersExact(t *testing.T) {
	for _, sh := range []struct{ nA, nB, n, m int64 }{
		{4, 8, 2, 2}, {5, 13, 6, 2}, {3, 10, 10, 4}, {6, 6, 1, 8},
	} {
		relA, relB := relation.GenWithMatchBound(relation.NewRand(2), int(sh.nA), int(sh.nB), int(sh.n))
		env := newEnv(t, int(sh.m), 5, relA, relB)
		res, err := ParallelJoin2([]*sim.Coprocessor{env.t}, env.tabA, env.tabB, keyEqui(t, relA, relB), sh.n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := int64(res.Stats.Transfers()), Join2Transfers(sh.nA, sh.nB, sh.n, sh.m, 0); got != want {
			t.Errorf("%+v: transfers %d, want %d", sh, got, want)
		}
		// The pass count must match the cost model's γ.
		if gamma, _ := passes2(sh.n, sh.m, 0); gamma != (sh.n+sh.m-1)/sh.m {
			t.Errorf("γ mismatch for %+v", sh)
		}
	}
}

func TestJoin2TransfersRefusedMemory(t *testing.T) {
	// M ≤ δ leaves no result buffer: Run refuses, so the closed form
	// charges what a refused run does, nothing.
	relA, relB := relation.GenWithMatchBound(relation.NewRand(2), 4, 4, 3)
	for _, m := range []int{2, 1} {
		in := Inputs{Pred: keyEqui(t, relA, relB), N: 3, Delta: 2}
		if got := Algorithms[1].Transfers([]int64{4, 4}, 0, int64(m), in, CacheUse{}); got != 0 {
			t.Errorf("M=%d, δ=2: closed form %d, want 0", m, got)
		}
		env := newEnv(t, m, 5, relA, relB)
		if _, _, err := Algorithms[1].Run([]*sim.Coprocessor{env.t}, []sim.Table{env.tabA, env.tabB}, in); !errors.Is(err, errInvalid) {
			t.Errorf("M=%d, δ=2: Run err = %v", m, err)
		}
	}
}

func TestJoin3TransfersExact(t *testing.T) {
	for _, preSorted := range []bool{false, true} {
		relA, relB := relation.GenWithMatchBound(relation.NewRand(3), 5, 12, 4)
		if preSorted {
			// Provider-sorted B.
			eq := keyEqui(t, relA, relB)
			rows := relB.Rows
			for i := 1; i < len(rows); i++ {
				for j := i; j > 0 && eq.Less(rows[j], rows[j-1]); j-- {
					rows[j], rows[j-1] = rows[j-1], rows[j]
				}
			}
		}
		env := newEnv(t, 64, 5, relA, relB)
		pred := keyEqui(t, relA, relB)
		res, err := ParallelJoin3([]*sim.Coprocessor{env.t}, env.tabA, env.tabB, pred, 4, preSorted)
		if err != nil {
			t.Fatal(err)
		}
		checkJoin(t, env, res, pred)
		if got, want := int64(res.Stats.Transfers()), Join3Transfers(5, 12, 4, preSorted); got != want {
			t.Errorf("preSorted=%v: transfers %d, want %d", preSorted, got, want)
		}
	}
}

func TestJoin2MemoryEnforced(t *testing.T) {
	// With M=4 and N=16, Algorithm 2 runs γ=4 passes holding blk=4 results;
	// it must succeed within the granted memory, and the device must reject
	// an attempt to grab more during the run (indirectly verified by the
	// grant in ParallelJoin2 itself succeeding exactly).
	relA, relB := relation.GenWithMatchBound(relation.NewRand(4), 3, 16, 16)
	env := newEnv(t, 4, 5, relA, relB)
	pred := keyEqui(t, relA, relB)
	res, err := ParallelJoin2([]*sim.Coprocessor{env.t}, env.tabA, env.tabB, pred, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkJoin(t, env, res, pred)
	if env.t.MemoryFree() != 4 {
		t.Fatal("memory not released after run")
	}
}

func TestCh4Validation(t *testing.T) {
	relA, relB := relation.GenWithMatchBound(relation.NewRand(6), 3, 6, 2)
	env := newEnv(t, 16, 5, relA, relB)
	pred := keyEqui(t, relA, relB)
	if _, err := Join1(env.t, env.tabA, env.tabB, pred, 0); !errors.Is(err, errInvalid) {
		t.Error("N=0 accepted")
	}
	if _, err := Join1(env.t, env.tabA, env.tabB, pred, 7); !errors.Is(err, errInvalid) {
		t.Error("N>|B| accepted")
	}
	if _, err := ParallelJoin2([]*sim.Coprocessor{env.t}, env.tabA, env.tabB, pred, 2, 16); !errors.Is(err, errInvalid) {
		t.Error("delta consuming all memory accepted")
	}
	empty := sim.Table{Region: env.tabA.Region, N: 0, Schema: relA.Schema}
	if _, err := Join1(env.t, empty, env.tabB, pred, 1); !errors.Is(err, errInvalid) {
		t.Error("empty relation accepted")
	}
}

func TestCh4TamperAborts(t *testing.T) {
	relA, relB := relation.GenWithMatchBound(relation.NewRand(7), 4, 8, 2)
	h := sim.NewHost(0)
	sealer, err := sim.NewRandomGCMSealer()
	if err != nil {
		t.Fatal(err)
	}
	cop, err := sim.NewCoprocessor(h, sim.Config{Memory: 16, Sealer: sealer, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tabA, _ := sim.LoadTable(h, sealer, "A", relA)
	tabB, _ := sim.LoadTable(h, sealer, "B", relB)
	// Malicious host flips a bit in an input cell.
	ct := append([]byte(nil), h.Inspect(tabB.Region, 3)...)
	ct[len(ct)/2] ^= 0x80
	h.Tamper(tabB.Region, 3, ct)
	_, err = Join1(cop, tabA, tabB, keyEqui(t, relA, relB), 2)
	if !errors.Is(err, sim.ErrTamper) {
		t.Fatalf("tampered run error = %v, want ErrTamper", err)
	}
}

func TestUnderestimatedNLosesResults(t *testing.T) {
	// N is a correctness precondition, not just a privacy parameter:
	// declaring it too small silently truncates per-tuple matches ("Guessing
	// N too small and rerunning the algorithm if the actual value happens to
	// be larger leaks information", §4.3 — so the algorithms never rerun).
	relA, relB := relation.GenWithMatchBound(relation.NewRand(81), 4, 16, 6)
	pred := keyEqui(t, relA, relB)
	want := relation.ReferenceJoin(relA, relB, pred).Len()
	for name, run := range ch4Algorithms {
		t.Run(name, func(t *testing.T) {
			env := newEnv(t, 64, 9, relA, relB)
			res, err := run(env, pred, 3) // true N is 6
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeOutput(env.t, res)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() >= want {
				t.Fatalf("%s with understated N returned %d rows, reference %d — expected truncation",
					name, got.Len(), want)
			}
		})
	}
}

func TestSortedMatchesConsecutiveInvariant(t *testing.T) {
	// Algorithm 3's key insight (§4.5.2): after sorting B on the join
	// attribute, "the B tuples that will join with an A tuple will come
	// from at most N consecutive positions in B" — which is what makes the
	// circular scratch[N] overwrite-free. Check the invariant on random
	// inputs.
	for seed := uint64(0); seed < 10; seed++ {
		relA := relation.GenKeyed(relation.NewRand(seed), 8, 6)
		relB := relation.GenKeyed(relation.NewRand(seed+500), 20, 6)
		eq := keyEqui(t, relA, relB)
		n := relation.MaxMatches(relA, relB, eq)
		if n == 0 {
			continue
		}
		sorted := append([]relation.Tuple(nil), relB.Rows...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && eq.Less(sorted[j], sorted[j-1]); j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		for _, a := range relA.Rows {
			first, last := -1, -1
			for i, b := range sorted {
				if eq.Match(a, b) {
					if first < 0 {
						first = i
					}
					last = i
				}
			}
			if first < 0 {
				continue
			}
			span := last - first + 1
			if span > n {
				t.Fatalf("seed %d: matches span %d positions > N=%d", seed, span, n)
			}
			// And they are contiguous: every position in [first, last] matches.
			for i := first; i <= last; i++ {
				if !eq.Match(a, sorted[i]) {
					t.Fatalf("seed %d: non-contiguous match block", seed)
				}
			}
		}
	}
}
