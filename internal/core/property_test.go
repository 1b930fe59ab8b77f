package core

import (
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
