package core

import (
	"fmt"
	"testing"

	"ppj/internal/relation"
	"ppj/internal/sim"
)

// direct is each algorithm's sequential entry point, called by name: the
// one place a test spells out what the table's rows must dispatch to.
var direct = map[string]func(t *sim.Coprocessor, tabs []sim.Table, in Inputs) (Result, error){
	"alg1": func(t *sim.Coprocessor, tabs []sim.Table, in Inputs) (Result, error) {
		return Join1(t, tabs[0], tabs[1], in.Pred, in.N)
	},
	"alg2": func(t *sim.Coprocessor, tabs []sim.Table, in Inputs) (Result, error) {
		return Join2(t, tabs[0], tabs[1], in.Pred, in.N, in.Delta)
	},
	"alg3": func(t *sim.Coprocessor, tabs []sim.Table, in Inputs) (Result, error) {
		return Join3(t, tabs[0], tabs[1], in.Pred.(*relation.Equi), in.N, in.PreSorted)
	},
	"alg4": func(t *sim.Coprocessor, tabs []sim.Table, in Inputs) (Result, error) {
		return Join4(t, tabs, relation.Pairwise(in.Pred))
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

// TestSequentialIsParallelAtP1 pins what let Join2 and Join3 fold into
// ParallelJoin2 and ParallelJoin3: on one device the parallel schedule is
// the sequential one. The goldens are the Stats and host Trace.Digest the
// separate sequential implementations produced at |A| = |B| = size, N = 3,
// M = 2 (so Algorithm 2 runs γ = 2 passes) immediately before the fold; a
// change to the parallel forms that moves their P=1 schedule off the
// sequential algorithm's fails here.
func TestSequentialIsParallelAtP1(t *testing.T) {
	type golden struct {
		stats  sim.Stats
		digest uint64
	}
	const emptyTrace = 0xcbf29ce484222325 // FNV offset: no access recorded
	goldens := map[string]map[int]golden{
		"alg2": {
			0:  {sim.Stats{}, emptyTrace},
			1:  {sim.Stats{Gets: 2, Puts: 1, PredEvals: 1, DiskRequests: 1}, 0x39631e0119c945c1},
			63: {sim.Stats{Gets: 8001, Puts: 252, PredEvals: 7938, DiskRequests: 252}, 0xed2d04778c873304},
			64: {sim.Stats{Gets: 8256, Puts: 256, PredEvals: 8192, DiskRequests: 256}, 0x6e5f68eec54cfc65},
			65: {sim.Stats{Gets: 8515, Puts: 260, PredEvals: 8450, DiskRequests: 260}, 0xd8a4f5f4845c6ba9},
		},
		"alg3": {
			0:  {sim.Stats{}, emptyTrace},
			1:  {sim.Stats{Gets: 3, Puts: 2, PredEvals: 1, DiskRequests: 1}, 0xa4ef115486d76387},
			63: {sim.Stats{Gets: 9345, Puts: 5503, Comparisons: 672, PredEvals: 3969, DiskRequests: 189}, 0x87ec3bd156c083cb},
			64: {sim.Stats{Gets: 9600, Puts: 5632, Comparisons: 672, PredEvals: 4096, DiskRequests: 192}, 0xe54303e420f16ea5},
			65: {sim.Stats{Gets: 12099, Puts: 8067, Comparisons: 1792, PredEvals: 4225, DiskRequests: 195}, 0xa30a86f0a1f35c25},
		},
	}
	for _, name := range []string{"alg2", "alg3"} {
		alg, err := AlgorithmByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{0, 1, 63, 64, 65} {
			relA := relation.GenKeyed(relation.NewRand(7), size, 1<<20)
			relB := relation.GenKeyed(relation.NewRand(8), size, 1<<20)
			in := Inputs{Pred: keyEqui(t, relA, relB), N: int64(min(3, size))}
			want := goldens[name][size]
			runs := map[string]func(env *testEnv) (Result, error){
				"sequential entry point": func(env *testEnv) (Result, error) {
					return direct[name](env.t, []sim.Table{env.tabA, env.tabB}, in)
				},
				"table at P=1": func(env *testEnv) (Result, error) {
					res, _, err := alg.Run([]*sim.Coprocessor{env.t}, []sim.Table{env.tabA, env.tabB}, in)
					return res, err
				},
			}
			for how, run := range runs {
				env := newEnv(t, 2, 1, relA, relB)
				res, err := run(env)
				if (err != nil) != (size == 0) {
					t.Fatalf("%s size %d via %s: err = %v (empty inputs, and only they, are refused)", name, size, how, err)
				}
				if res.Stats != want.stats || env.h.Trace().Digest() != want.digest {
					t.Errorf("%s size %d via %s: stats %+v digest %#x, the sequential algorithm's are %+v %#x",
						name, size, how, res.Stats, env.h.Trace().Digest(), want.stats, want.digest)
				}
			}
		}
	}
}
