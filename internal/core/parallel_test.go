package core

import (
	"fmt"
	"testing"

	"ppj/internal/relation"
	"ppj/internal/sim"
)

// newFleet builds P coprocessors sharing one host and sealer.
func newFleet(t *testing.T, h *sim.Host, p, mem int) []*sim.Coprocessor {
	t.Helper()
	sealer := sim.PlainSealer{}
	cops := make([]*sim.Coprocessor, p)
	for i := range cops {
		var err error
		cops[i], err = sim.NewCoprocessor(h, sim.Config{Memory: mem, Sealer: sealer, Seed: uint64(i) + 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	return cops
}

func TestParallelJoin2Correctness(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			relA, relB := relation.GenWithMatchBound(relation.NewRand(uint64(p)), 7, 12, 4)
			h := sim.NewHost(0)
			cops := newFleet(t, h, p, 8)
			tabA, _ := sim.LoadTable(h, cops[0].Sealer(), "A", relA)
			tabB, _ := sim.LoadTable(h, cops[0].Sealer(), "B", relB)
			pred := keyEqui(t, relA, relB)
			res, err := ParallelJoin2(cops, tabA, tabB, pred, 4, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeOutput(cops[0], res)
			if err != nil {
				t.Fatal(err)
			}
			want := relation.ReferenceJoin(relA, relB, pred)
			if !relation.SameMultiset(got, want) {
				t.Fatalf("p=%d: join mismatch %d vs %d rows", p, got.Len(), want.Len())
			}
		})
	}
}

func TestParallelJoin2LinearWorkSplit(t *testing.T) {
	// §4.4.4 "linear speed-up": per-device transfer counts shrink by ~P.
	relA, relB := relation.GenWithMatchBound(relation.NewRand(9), 8, 16, 4)
	run := func(p int) uint64 {
		h := sim.NewHost(0)
		cops := newFleet(t, h, p, 8)
		tabA, _ := sim.LoadTable(h, cops[0].Sealer(), "A", relA)
		tabB, _ := sim.LoadTable(h, cops[0].Sealer(), "B", relB)
		if _, err := ParallelJoin2(cops, tabA, tabB, keyEqui(t, relA, relB), 4, 0); err != nil {
			t.Fatal(err)
		}
		maxT := uint64(0)
		for _, c := range cops {
			if tr := c.Stats().Transfers(); tr > maxT {
				maxT = tr
			}
		}
		return maxT
	}
	t1, t4 := run(1), run(4)
	if t4*3 > t1 {
		t.Fatalf("per-device work did not shrink ~linearly: 1 dev %d, 4 devs max %d", t1, t4)
	}
}

func TestParallelJoin5Correctness(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for _, s := range []int{0, 5, 11} {
			t.Run(fmt.Sprintf("p=%d_s=%d", p, s), func(t *testing.T) {
				relA, relB := genJoinSized(uint64(p*100+s), 6, 11, s)
				h := sim.NewHost(0)
				cops := newFleet(t, h, p, 2)
				tabs := []sim.Table{}
				for i, rel := range []*relation.Relation{relA, relB} {
					tab, err := sim.LoadTable(h, cops[0].Sealer(), fmt.Sprintf("X%d", i), rel)
					if err != nil {
						t.Fatal(err)
					}
					tabs = append(tabs, tab)
				}
				pred := relation.Pairwise(keyEqui(t, relA, relB))
				res, err := ParallelJoin5(cops, tabs, pred)
				if err != nil {
					t.Fatal(err)
				}
				got, err := DecodeOutput(cops[0], res)
				if err != nil {
					t.Fatal(err)
				}
				want := relation.ReferenceMultiJoin([]*relation.Relation{relA, relB}, pred)
				if !relation.SameMultiset(got, want) {
					t.Fatalf("join mismatch: %d vs %d rows", got.Len(), want.Len())
				}
			})
		}
	}
}

func TestParallelJoin4Correctness(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			relA, relB := genJoinSized(uint64(p), 5, 8, 6)
			h := sim.NewHost(0)
			cops := newFleet(t, h, p, 4)
			eq := keyEqui(t, relA, relB)
			res, _, err := Algorithms[3].Run(cops, loadTables(t, h, cops[0].Sealer(), relA, relB), Inputs{Pred: eq})
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeOutput(cops[0], res)
			if err != nil {
				t.Fatal(err)
			}
			want := relation.ReferenceJoin(relA, relB, eq)
			if !relation.SameMultiset(got, want) {
				t.Fatalf("join mismatch: %d vs %d rows", got.Len(), want.Len())
			}
		})
	}
}

// TestParallelJoin4PerDeviceTraceDataIndependent checks that Algorithm 4's
// per-device schedule at P = 2 and 4, through the table row, is a function
// of the run's public sizes alone: fifty identical runs leave one
// per-device Trace.Digest vector (so region ids never follow goroutine
// order), and a content-different input with the same sizes and join size
// leaves the same vector and the same per-device Stats.
func TestParallelJoin4PerDeviceTraceDataIndependent(t *testing.T) {
	const runs = 50
	type perDevice struct {
		digests [4]uint64
		stats   [4]sim.Stats
	}
	for _, p := range []int{2, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			run := func(seed uint64) perDevice {
				relA, relB := genJoinSized(seed, 6, 8, 5)
				h := sim.NewHost(0)
				cops := newFleet(t, h, p, 4)
				tabs := loadTables(t, h, cops[0].Sealer(), relA, relB)
				if _, _, err := Algorithms[3].Run(cops, tabs, Inputs{Pred: keyEqui(t, relA, relB)}); err != nil {
					t.Fatal(err)
				}
				var per perDevice
				for i, c := range cops {
					per.digests[i], per.stats[i] = c.Trace().Digest(), c.Stats()
				}
				return per
			}
			want := run(41)
			for i := 1; i < runs; i++ {
				if got := run(41); got != want {
					t.Fatalf("run %d of the same input left per-device traces %#x, run 0 left %#x",
						i, got.digests[:p], want.digests[:p])
				}
			}
			if other := run(42); other != want {
				t.Fatalf("per-device schedule depends on tuple contents:\n run1 %#x %+v\n run2 %#x %+v",
					want.digests[:p], want.stats[:p], other.digests[:p], other.stats[:p])
			}
		})
	}
}

func TestParallelValidation(t *testing.T) {
	relA, relB := genJoinSized(1, 3, 3, 2)
	h := sim.NewHost(0)
	tabA, _ := sim.LoadTable(h, sim.PlainSealer{}, "A", relA)
	tabB, _ := sim.LoadTable(h, sim.PlainSealer{}, "B", relB)
	pred := keyEqui(t, relA, relB)
	if _, err := ParallelJoin2(nil, tabA, tabB, pred, 1, 0); err == nil {
		t.Error("no coprocessors accepted by ParallelJoin2")
	}
	if _, err := ParallelJoin5(nil, []sim.Table{tabA, tabB}, relation.Pairwise(pred)); err == nil {
		t.Error("no coprocessors accepted by ParallelJoin5")
	}
	if _, _, err := Algorithms[3].Run(nil, []sim.Table{tabA, tabB}, Inputs{Pred: pred}); err == nil {
		t.Error("no coprocessors accepted by Algorithm 4")
	}
}

func TestParallelJoin2PerDeviceTraceDataIndependent(t *testing.T) {
	run := func(seed uint64) []uint64 {
		relA, relB := relation.GenWithMatchBound(relation.NewRand(seed), 8, 16, 4)
		h := sim.NewHost(0)
		cops := newFleet(t, h, 4, 8)
		tabA, _ := sim.LoadTable(h, cops[0].Sealer(), "A", relA)
		tabB, _ := sim.LoadTable(h, cops[0].Sealer(), "B", relB)
		if _, err := ParallelJoin2(cops, tabA, tabB, keyEqui(t, relA, relB), 4, 0); err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, len(cops))
		for i, c := range cops {
			out[i] = c.Trace().Digest()
		}
		return out
	}
	a, b := run(61), run(62)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("device %d access pattern depends on data", i)
		}
	}
}

func TestParallelJoin5PerDeviceTraceDataIndependent(t *testing.T) {
	// One-row view at M = 2, and blocks of K = 4 rows of X₁ (the last one
	// short) with 5 result slots at M = 8.
	for _, sh := range []struct{ nA, nB, s, m int }{{6, 10, 7, 2}, {10, 7, 7, 8}} {
		for _, p := range []int{1, 2, 4} {
			run := func(seed uint64) []uint64 {
				relA, relB := genJoinSized(seed, sh.nA, sh.nB, sh.s)
				h := sim.NewHost(0)
				cops := newFleet(t, h, p, sh.m)
				tabA, _ := sim.LoadTable(h, cops[0].Sealer(), "X1", relA)
				tabB, _ := sim.LoadTable(h, cops[0].Sealer(), "X2", relB)
				pred := relation.Pairwise(keyEqui(t, relA, relB))
				if _, err := ParallelJoin5(cops, []sim.Table{tabA, tabB}, pred); err != nil {
					t.Fatal(err)
				}
				out := make([]uint64, len(cops))
				for i, c := range cops {
					out[i] = c.Trace().Digest()
				}
				return out
			}
			a, b := run(71), run(72)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%dx%d, M = %d, P = %d: device %d access pattern depends on data", sh.nA, sh.nB, sh.m, p, i)
				}
			}
		}
	}
}
