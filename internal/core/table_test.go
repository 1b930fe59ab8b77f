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

// TestSequentialIsParallelAtP1 pins what let Join2, Join3, Join5 and Join7
// fold into their device-group forms: on one device the group schedule is
// the sequential one. The goldens are the Stats and host Trace.Digest the
// separate sequential implementations (Join2, Join3, Join5, Join7, and
// Join7Cached cold and warm) produced at |A| = |B| = size immediately
// before each fold — alg2/alg3 at N = 3, M = 2 (so Algorithm 2 runs γ = 2
// passes) over unique keys, alg5/alg7 at M = 8 over 32 distinct keys (S =
// 127, 131, 134 at the three large sizes, so Algorithm 5 rescans and
// Algorithm 7 expands duplicates). A change that moves a P=1 schedule off
// the sequential algorithm's fails here.
func TestSequentialIsParallelAtP1(t *testing.T) {
	type golden struct {
		stats  sim.Stats
		digest uint64
	}
	const emptyTrace = 0xcbf29ce484222325 // FNV offset: no access recorded
	sizes := []int{0, 1, 63, 64, 65}
	rows := []struct {
		alg      string
		mem      int
		keySpace int64
		cache    string // "", "cold" or "warm": how Inputs.Cache participates
		goldens  [5]golden
	}{
		{"alg2", 2, 1 << 20, "", [5]golden{
			{sim.Stats{}, emptyTrace},
			{sim.Stats{Gets: 2, Puts: 1, PredEvals: 1, DiskRequests: 1}, 0x39631e0119c945c1},
			{sim.Stats{Gets: 8001, Puts: 252, PredEvals: 7938, DiskRequests: 252}, 0xed2d04778c873304},
			{sim.Stats{Gets: 8256, Puts: 256, PredEvals: 8192, DiskRequests: 256}, 0x6e5f68eec54cfc65},
			{sim.Stats{Gets: 8515, Puts: 260, PredEvals: 8450, DiskRequests: 260}, 0xd8a4f5f4845c6ba9},
		}},
		{"alg3", 2, 1 << 20, "", [5]golden{
			{sim.Stats{}, emptyTrace},
			{sim.Stats{Gets: 3, Puts: 2, PredEvals: 1, DiskRequests: 1}, 0xa4ef115486d76387},
			{sim.Stats{Gets: 9345, Puts: 5503, Comparisons: 672, PredEvals: 3969, DiskRequests: 189}, 0x87ec3bd156c083cb},
			{sim.Stats{Gets: 9600, Puts: 5632, Comparisons: 672, PredEvals: 4096, DiskRequests: 192}, 0xe54303e420f16ea5},
			{sim.Stats{Gets: 12099, Puts: 8067, Comparisons: 1792, PredEvals: 4225, DiskRequests: 195}, 0xa30a86f0a1f35c25},
		}},
		{"alg5", 8, 32, "", [5]golden{
			{sim.Stats{}, emptyTrace},
			{sim.Stats{Gets: 2, LogicalReads: 1, PredEvals: 1}, 0x848e87bf0e1e14ba},
			{sim.Stats{Gets: 64512, Puts: 127, LogicalReads: 63504, PredEvals: 63504, DiskRequests: 127}, 0x5f54c410a6d76aae},
			{sim.Stats{Gets: 70720, Puts: 131, LogicalReads: 69632, PredEvals: 69632, DiskRequests: 131}, 0x1b32d5638af4561e},
			{sim.Stats{Gets: 72930, Puts: 134, LogicalReads: 71825, PredEvals: 71825, DiskRequests: 134}, 0x413b24765e37c6a4},
		}},
		{"alg7", 8, 32, "", [5]golden{
			{sim.Stats{}, emptyTrace},
			{sim.Stats{Gets: 10, Puts: 10, Comparisons: 7}, 0x8509f6a8befcc9ab},
			{sim.Stats{Gets: 18928, Puts: 18812, Comparisons: 9336}, 0xe8fa312fd9eccbba},
			{sim.Stats{Gets: 28688, Puts: 28938, Comparisons: 14210}, 0xf19228d8d1a7ccb},
			{sim.Stats{Gets: 45612, Puts: 46230, Comparisons: 22668}, 0x2a8978a878038864},
		}},
		{"alg7", 8, 32, "cold", [5]golden{
			{sim.Stats{}, emptyTrace},
			{sim.Stats{Gets: 12, Puts: 10, Comparisons: 7}, 0x3d35a90a0d5f4b9a},
			{sim.Stats{Gets: 18928, Puts: 18686, Comparisons: 9273}, 0x5cc4645a2ff79ef6},
			{sim.Stats{Gets: 28690, Puts: 28812, Comparisons: 14147}, 0x41c9e282d149b745},
			{sim.Stats{Gets: 45488, Puts: 45976, Comparisons: 22541}, 0x627db85c99852a58},
		}},
		{"alg7", 8, 32, "warm", [5]golden{
			{sim.Stats{}, emptyTrace},
			{sim.Stats{Gets: 8, Puts: 10, Comparisons: 7}, 0x9961d90c83ebbc54},
			{sim.Stats{Gets: 15988, Puts: 15998, Comparisons: 7929}, 0xd1c6737fc831d2fb},
			{sim.Stats{Gets: 25746, Puts: 26124, Comparisons: 12803}, 0xf779756bcac04a05},
			{sim.Stats{Gets: 38060, Puts: 38808, Comparisons: 18957}, 0xbcf6b5ff78382f49},
		}},
	}
	for _, row := range rows {
		alg, err := AlgorithmByName(row.alg)
		if err != nil {
			t.Fatal(err)
		}
		for i, size := range sizes {
			relA := relation.GenKeyed(relation.NewRand(7), size, row.keySpace)
			relB := relation.GenKeyed(relation.NewRand(8), size, row.keySpace)
			in := Inputs{Pred: keyEqui(t, relA, relB), N: int64(min(3, size))}
			viaTable := func(in Inputs) func(env *testEnv) (Result, error) {
				return func(env *testEnv) (Result, error) {
					res, _, err := alg.Run([]*sim.Coprocessor{env.t}, []sim.Table{env.tabA, env.tabB}, in)
					return res, err
				}
			}
			runs := map[string]func(env *testEnv) (Result, error){}
			if row.cache == "" {
				runs["sequential entry point"] = func(env *testEnv) (Result, error) {
					return direct[row.alg](env.t, []sim.Table{env.tabA, env.tabB}, in)
				}
			} else {
				in.Cache, in.KeyA, in.KeyB = newMemCache(), "A", "B"
			}
			if row.cache == "warm" {
				if _, err := viaTable(in)(newEnv(t, row.mem, 1, relA, relB)); err != nil {
					t.Fatal(err)
				}
			}
			runs["table at P=1 "+row.cache] = viaTable(in)
			want := row.goldens[i]
			for how, run := range runs {
				env := newEnv(t, row.mem, 1, relA, relB)
				res, err := run(env)
				// Empty inputs are refused by every row but Algorithm 7's.
				if (err != nil) != (size == 0 && row.alg != "alg7") {
					t.Fatalf("%s size %d via %s: err = %v", row.alg, size, how, err)
				}
				if res.Stats != want.stats || env.h.Trace().Digest() != want.digest {
					t.Errorf("%s size %d via %s: stats %+v digest %#x, the sequential algorithm's are %+v %#x",
						row.alg, size, how, res.Stats, env.h.Trace().Digest(), want.stats, want.digest)
				}
			}
		}
	}
}
