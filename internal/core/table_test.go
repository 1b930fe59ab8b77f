package core

import (
	"fmt"
	"testing"

	"ppj/internal/relation"
	"ppj/internal/sim"
)

// direct is each algorithm's entry point, called by name on one device: the
// one place a test spells out what the table's rows must dispatch to.
var direct = map[string]func(t *sim.Coprocessor, tabs []sim.Table, in Inputs) (Result, error){
	"alg1": func(t *sim.Coprocessor, tabs []sim.Table, in Inputs) (Result, error) {
		return Join1(t, tabs[0], tabs[1], in.Pred, in.N)
	},
	"alg2": func(t *sim.Coprocessor, tabs []sim.Table, in Inputs) (Result, error) {
		return ParallelJoin2([]*sim.Coprocessor{t}, tabs[0], tabs[1], in.Pred, in.N, in.Delta)
	},
	"alg3": func(t *sim.Coprocessor, tabs []sim.Table, in Inputs) (Result, error) {
		return ParallelJoin3([]*sim.Coprocessor{t}, tabs[0], tabs[1], in.Pred.(*relation.Equi), in.N, in.PreSorted)
	},
	"alg4": func(t *sim.Coprocessor, tabs []sim.Table, in Inputs) (Result, error) {
		return join4([]*sim.Coprocessor{t}, tabs, relation.Pairwise(in.Pred))
	},
	"alg5": func(t *sim.Coprocessor, tabs []sim.Table, in Inputs) (Result, error) {
		return Join5(t, tabs, relation.Pairwise(in.Pred))
	},
	"alg6": func(t *sim.Coprocessor, tabs []sim.Table, in Inputs) (Result, error) {
		rep, err := Join6(t, tabs, relation.Pairwise(in.Pred), in.Epsilon)
		return rep.Result, err
	},
	"alg7": func(t *sim.Coprocessor, tabs []sim.Table, in Inputs) (Result, error) {
		return Join7(t, tabs[0], tabs[1], in.Pred.(*relation.Equi))
	},
}

// TestAlgorithmTable checks every row of the table against what the
// hand-written dispatch switches it replaced did: the row's Run on one
// device is the direct sequential entry point (equal sim.Stats and equal
// host Trace.Digest), its Devices rule gives the answers query.Plan.Devices
// gave, its closed form equals the measured transfers, and inadmissible
// calls are refused before any transfer is charged.
func TestAlgorithmTable(t *testing.T) {
	// S = 12 fits the device memory, so Algorithm 6's closed form is exact.
	const nA, nB, s, mem = 10, 14, 12, 16
	relA, relB := genJoinSized(5, nA, nB, s)
	eq := keyEqui(t, relA, relB)
	in := Inputs{Pred: eq, N: int64(relation.MaxMatches(relA, relB, eq)), Epsilon: 1e-6}
	band, err := relation.NewBand(relA.Schema, "key", relB.Schema, "key", 1)
	if err != nil {
		t.Fatal(err)
	}
	// A hard-coded copy of the answers query.Plan.Devices gave for r=1..8.
	anyR := [8]int{1, 2, 3, 4, 5, 6, 7, 8}
	pow2 := [8]int{1, 2, 2, 4, 4, 4, 4, 8}
	one := [8]int{1, 1, 1, 1, 1, 1, 1, 1}
	wantDevices := map[string][8]int{
		"alg1": one, "alg2": anyR, "alg3": anyR, "alg4": pow2, "alg5": anyR, "alg6": one, "alg7": pow2,
	}
	if len(Algorithms) != len(direct) {
		t.Fatalf("table has %d rows, want %d", len(Algorithms), len(direct))
	}
	for i, alg := range Algorithms {
		t.Run(alg.Name, func(t *testing.T) {
			if alg.Number != i+1 || alg.Name != fmt.Sprintf("alg%d", i+1) {
				t.Fatalf("row %d is %s/%d", i, alg.Name, alg.Number)
			}
			if byName, err := AlgorithmByName(alg.Name); err != nil || byName != alg {
				t.Fatalf("AlgorithmByName(%s) = %v, %v", alg.Name, byName, err)
			}
			if byNum, err := AlgorithmByNumber(alg.Number); err != nil || byNum != alg {
				t.Fatalf("AlgorithmByNumber(%d) = %v, %v", alg.Number, byNum, err)
			}
			for r := 1; r <= 8; r++ {
				if got := alg.Devices(r); got != wantDevices[alg.Name][r-1] {
					t.Errorf("Devices(%d) = %d, want %d", r, got, wantDevices[alg.Name][r-1])
				}
			}
			if alg.Devices(0) != 1 || alg.Devices(-3) != 1 {
				t.Error("a non-positive request must yield one device")
			}

			viaTable, viaDirect := newEnv(t, mem, 3, relA, relB), newEnv(t, mem, 3, relA, relB)
			got, use, err := alg.Run([]*sim.Coprocessor{viaTable.t}, []sim.Table{viaTable.tabA, viaTable.tabB}, in)
			if err != nil {
				t.Fatal(err)
			}
			want, err := direct[alg.Name](viaDirect.t, []sim.Table{viaDirect.tabA, viaDirect.tabB}, in)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats != want.Stats || use != (CacheUse{}) {
				t.Fatalf("Run at P=1 charged %+v (cache %+v), the sequential entry point %+v", got.Stats, use, want.Stats)
			}
			if !viaTable.h.Trace().Equal(viaDirect.h.Trace()) {
				t.Fatal("Run at P=1 and the sequential entry point leave different host traces")
			}
			checkJoin(t, viaTable, got, eq)
			if padded := got.OutputLen == in.N*nA; padded != alg.Padded {
				t.Errorf("Padded = %v, output is %d cells (N·|A| = %d, S = %d)", alg.Padded, got.OutputLen, in.N*nA, s)
			}
			if model := alg.Transfers([]int64{nA, nB}, s, mem, in, use); int64(got.Stats.Transfers()) != model {
				t.Errorf("measured %d transfers, closed form %d", got.Stats.Transfers(), model)
			}

			// Inadmissible calls charge nothing.
			env := newEnv(t, mem, 3, relA, relB)
			refused := func(what string, cops []*sim.Coprocessor, tabs []sim.Table, in Inputs) {
				t.Helper()
				before := env.h.Trace().Count()
				if _, _, err := alg.Run(cops, tabs, in); err == nil {
					t.Errorf("%s accepted", what)
				}
				if after := env.h.Trace().Count(); after != before {
					t.Errorf("%s charged %d host accesses before being refused", what, after-before)
				}
			}
			two := []sim.Table{env.tabA, env.tabB}
			if alg.TwoWay {
				refused("three tables", []*sim.Coprocessor{env.t}, append(two, env.tabB), in)
				refused("no two-way predicate", []*sim.Coprocessor{env.t}, two, Inputs{Multi: relation.Pairwise(eq), N: in.N})
			}
			if alg.Equi {
				refused("a band predicate", []*sim.Coprocessor{env.t}, two, Inputs{Pred: band, N: in.N})
			}
			refused("no predicate", []*sim.Coprocessor{env.t}, two, Inputs{N: in.N})
			refused("no devices", nil, two, in)
			if bad := []*sim.Coprocessor{env.t, env.t, env.t}; alg.Devices(3) != 3 {
				refused("three devices", bad, two, in)
			}
		})
	}
	if _, err := AlgorithmByName("alg8"); err == nil {
		t.Error("unknown algorithm name resolved")
	}
	for _, n := range []int{0, 8, -1} {
		if _, err := AlgorithmByNumber(n); err == nil {
			t.Errorf("algorithm number %d resolved", n)
		}
	}
}

// TestConsecutiveRunsReportEqualStats pins that every row resets the
// devices' counters on entry: Result.Stats is one run's cost, so running the
// same join twice on one fleet reports the same Stats twice, not a running
// total of whatever the fleet did before.
func TestConsecutiveRunsReportEqualStats(t *testing.T) {
	// S = 12 fits the device memory, so Algorithm 6 takes its deterministic
	// single-pass path.
	const nA, nB, s, mem = 10, 14, 12, 16
	relA, relB := genJoinSized(5, nA, nB, s)
	eq := keyEqui(t, relA, relB)
	in := Inputs{Pred: eq, N: int64(relation.MaxMatches(relA, relB, eq)), Epsilon: 1e-6}
	for _, alg := range Algorithms {
		for _, p := range []int{1, 2} {
			if alg.Devices(p) != p {
				continue
			}
			h := sim.NewHost(0)
			cops := newFleet(t, h, p, mem)
			tabs := loadTables(t, h, cops[0].Sealer(), relA, relB)
			first, _, err := alg.Run(cops, tabs, in)
			if err != nil {
				t.Fatal(err)
			}
			second, _, err := alg.Run(cops, tabs, in)
			if err != nil {
				t.Fatal(err)
			}
			if first.Stats != second.Stats || first.Stats.Transfers() == 0 {
				t.Errorf("%s at P=%d: first run reports %+v, second run on the same fleet %+v",
					alg.Name, p, first.Stats, second.Stats)
			}
		}
	}
}

// TestSequentialIsParallelAtP1 pins that on one device each device-group
// form is the sequential algorithm. Each direct entry point (ParallelJoin2,
// ParallelJoin3 and join4 given one device; Join5 and Join7) runs its row's
// lockfile sizes on one device and must charge the Stats and leave the trace
// digest of the table's P=1 line, which TestScheduleLockfile pins. A change
// that moves a P=1 schedule off the sequential algorithm's fails here. One
// subtest per row, so CI can repeat the cheap rows more often than
// Algorithm 4's.
func TestSequentialIsParallelAtP1(t *testing.T) {
	want, err := readLockfile(scheduleLockfile)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alg2", "alg3", "alg4", "alg5", "alg7"} {
		t.Run(name, func(t *testing.T) {
			alg, err := AlgorithmByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, sz := range lockSizes {
				line := fmt.Sprintf("%s/%dx%d/P1", name, sz[0], sz[1])
				table, ok := want[line]
				if !ok {
					t.Fatalf("%s: not in the lockfile", line)
				}
				relA, relB, in, _ := lockInputs(t, alg, sz[0], sz[1])
				env := newEnv(t, lockRows[name].mem, 1, relA, relB)
				res, err := direct[name](env.t, []sim.Table{env.tabA, env.tabB}, in)
				if (err != nil) != table.refused {
					t.Fatalf("%s via the sequential entry point: err = %v, lockfile %s", line, err, table)
				}
				if !table.refused && (res.Stats != table.stats || env.h.Trace().Digest() != table.devices[0].digest) {
					t.Errorf("%s via the sequential entry point: stats %+v digest %#x, the table's are %+v %#x",
						line, res.Stats, env.h.Trace().Digest(), table.stats, table.devices[0].digest)
				}
			}
		})
	}
}
