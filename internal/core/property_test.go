package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"ppj/internal/relation"
	"ppj/internal/sim"
)

// TestPipelineProperty drives random shapes through the full encrypted
// pipeline — generate, load, join with every algorithm, decode — and
// checks the result against the reference join every time.
func TestPipelineProperty(t *testing.T) {
	type shape struct {
		NA, NB   uint8
		KeySpace uint8
		Mem      uint8
		Seed     uint64
	}
	f := func(sh shape) bool {
		nA := int(sh.NA)%10 + 2
		nB := int(sh.NB)%14 + 2
		keySpace := int64(sh.KeySpace)%8 + 2
		mem := int(sh.Mem)%8 + 1
		relA := relation.GenKeyed(relation.NewRand(sh.Seed), nA, keySpace)
		relB := relation.GenKeyed(relation.NewRand(sh.Seed^0xABCD), nB, keySpace)
		eq, err := relation.NewEqui(relA.Schema, "key", relB.Schema, "key")
		if err != nil {
			return false
		}
		want := relation.ReferenceJoin(relA, relB, eq)
		n := int64(relation.MaxMatches(relA, relB, eq))
		if n == 0 {
			n = 1
		}
		for _, desc := range Algorithms {
			alg := desc.Name
			h := sim.NewHost(0)
			cop, err := sim.NewCoprocessor(h, sim.Config{Memory: mem, Sealer: sim.PlainSealer{}, Seed: sh.Seed | 1})
			if err != nil {
				return false
			}
			tabA, err := sim.LoadTable(h, cop.Sealer(), "A", relA)
			if err != nil {
				return false
			}
			tabB, err := sim.LoadTable(h, cop.Sealer(), "B", relB)
			if err != nil {
				return false
			}
			res, _, err := desc.Run([]*sim.Coprocessor{cop}, []sim.Table{tabA, tabB}, Inputs{Pred: eq, N: n, Epsilon: 1e-6})
			if err != nil {
				t.Logf("%s failed on %+v: %v", alg, sh, err)
				return false
			}
			got, err := DecodeOutput(cop, res)
			if err != nil {
				t.Logf("%s decode failed on %+v: %v", alg, sh, err)
				return false
			}
			if !relation.SameMultiset(got, want) {
				t.Logf("%s mismatch on %+v: got %d want %d rows", alg, sh, got.Len(), want.Len())
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCh4PrivacyAcrossMemorySizes pins that Algorithm 2's trace depends on
// M (a public device parameter) but never on the data, for several M.
func TestCh4PrivacyAcrossMemorySizes(t *testing.T) {
	for _, mem := range []int{1, 3, 8} {
		digest := func(seed uint64) uint64 {
			relA, relB := relation.GenWithMatchBound(relation.NewRand(seed), 5, 12, 6)
			h := sim.NewHost(0)
			cop, err := sim.NewCoprocessor(h, sim.Config{Memory: mem, Sealer: sim.PlainSealer{}, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			tabA, _ := sim.LoadTable(h, cop.Sealer(), "A", relA)
			tabB, _ := sim.LoadTable(h, cop.Sealer(), "B", relB)
			if _, err := ParallelJoin2([]*sim.Coprocessor{cop}, tabA, tabB, keyEqui(t, relA, relB), 6, 0); err != nil {
				t.Fatal(err)
			}
			return h.Trace().Digest()
		}
		if digest(1) != digest(2) {
			t.Fatalf("M=%d: Algorithm 2 trace depends on data", mem)
		}
	}
}

// TestJoin5BlockedProperty drives Algorithm 5's blocked scan over seeded
// random shapes — two and three tables, one-row tables, blocks that do not
// divide |X₁|, M from 1 to 24, P ∈ {1,2,4} — and checks the output against
// the reference join at every P, and at P = 1 the transfers against
// Join5Transfers and the logical reads against the scan count. It then
// checks the block rule's guarantee over a grid: no (sizes, M, S ≤ L)
// costs more transfers, or more than twice the scans, than the one-row
// view's ⌈S/M⌉ scans.
func TestJoin5BlockedProperty(t *testing.T) {
	firstEqualsLast := relation.MultiPredicateFunc{
		Fn:   func(rs []relation.Row) bool { return rs[0].Int(0) == rs[len(rs)-1].Int(0) },
		Desc: "x1.key = xJ.key",
	}
	rng := relation.NewRand(5)
	var blocked, partial int
	for range 60 {
		sizes := make([]int64, 2+rng.IntN(2))
		rels := make([]*relation.Relation, len(sizes))
		for j := range sizes {
			sizes[j] = 1 + rng.Int64N(12)
			if rng.IntN(5) == 0 {
				sizes[j] = 1
			}
			rels[j] = relation.GenKeyed(rng, int(sizes[j]), 1+rng.Int64N(4))
		}
		m := 1 + rng.Int64N(24)
		want := relation.ReferenceMultiJoin(rels, firstEqualsLast)
		s, l := int64(want.Len()), int64(1)
		for _, n := range sizes {
			l *= n
		}
		k := join5Block(sizes, m)
		if k > 1 {
			blocked++
			if sizes[0]%k != 0 {
				partial++
			}
		}
		for _, p := range []int{1, 2, 4} {
			name := fmt.Sprintf("%v, S = %d, M = %d (K = %d), P = %d", sizes, s, m, k, p)
			h := sim.NewHost(0)
			cops := newFleet(t, h, p, int(m))
			res, err := ParallelJoin5(cops, loadTables(t, h, cops[0].Sealer(), rels...), firstEqualsLast)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := DecodeOutput(cops[0], res)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !relation.SameMultiset(got, want) {
				t.Fatalf("%s: %d rows, reference %d", name, got.Len(), want.Len())
			}
			if p > 1 {
				continue
			}
			if model := Join5Transfers(sizes, s, m); int64(res.Stats.Transfers()) != model {
				t.Errorf("%s: measured %d transfers, closed form %d", name, res.Stats.Transfers(), model)
			}
			if scans := join5Scans(s, m-k+1); int64(res.Stats.LogicalReads) != scans*l {
				t.Errorf("%s: %d logical reads, want %d scans of %d", name, res.Stats.LogicalReads, scans, l)
			}
		}
	}
	if blocked < 10 || partial < 5 {
		t.Fatalf("only %d blocked shapes, %d with a short last block", blocked, partial)
	}

	for _, sizes := range oneRowGrid() {
		l := int64(1)
		for _, n := range sizes {
			l *= n
		}
		for m := int64(1); m <= 24; m++ {
			k := join5Block(sizes, m)
			for s := int64(0); s <= l; s++ {
				oneRow := join5Scans(s, m)
				gets, _ := scanGets(sizes, oneRow)
				if got := Join5Transfers(sizes, s, m); got > gets+s {
					t.Fatalf("%v, S = %d, M = %d: %d transfers in blocks of %d, %d with the one-row view", sizes, s, m, got, k, gets+s)
				}
				if scans := join5Scans(s, m-k+1); scans > 2*oneRow {
					t.Fatalf("%v, S = %d, M = %d: %d scans in blocks of %d, %d with the one-row view", sizes, s, m, scans, k, oneRow)
				}
			}
		}
	}
}

// oneRowGrid is every two-table shape up to 9×9 and every three-table shape
// over sizes {1, 2, 3, 5}.
func oneRowGrid() [][]int64 {
	var grid [][]int64
	for a := int64(1); a <= 9; a++ {
		for b := int64(1); b <= 9; b++ {
			grid = append(grid, []int64{a, b})
		}
	}
	ns := []int64{1, 2, 3, 5}
	for _, a := range ns {
		for _, b := range ns {
			for _, c := range ns {
				grid = append(grid, []int64{a, b, c})
			}
		}
	}
	return grid
}
