package ppj

// This file holds one testing.B benchmark per table and figure of the
// paper's evaluation, plus measured-execution and substrate benchmarks.
// The paper's §4.6/§5.4 numbers are closed-form; the BenchmarkFig*/
// BenchmarkTable* functions time their regeneration and attach the headline
// values as metrics, while the BenchmarkMeasured* functions run the actual
// algorithms in the simulator and report measured transfers. `go test
// -bench=. -benchmem` therefore regenerates every artefact; cmd/ppjbench
// renders the same series as tables.

import (
	"fmt"
	"math"
	"os"
	"testing"

	"ppj/internal/core"
	"ppj/internal/costmodel"
	"ppj/internal/mlfsr"
	"ppj/internal/oblivious"
	"ppj/internal/relation"
	"ppj/internal/sim"
	"ppj/internal/smc"
)

// --- Figures ---

// BenchmarkFig4_1 regenerates the Figure 4.1 performance-relationship map.
func BenchmarkFig4_1(b *testing.B) {
	const bSize = 10_000
	var alg1Wins int
	for i := 0; i < b.N; i++ {
		alg1Wins = 0
		for _, alpha := range []float64{1.0 / bSize, 0.001, 0.01, 0.1, 1} {
			for gamma := int64(1); gamma <= 64; gamma *= 2 {
				if costmodel.Winner(bSize, alpha, gamma, false) == "Alg1" {
					alg1Wins++
				}
			}
		}
	}
	b.ReportMetric(float64(alg1Wins), "alg1-region-cells")
}

// BenchmarkSFEComparison regenerates the §4.6.5 SFE-vs-Algorithm-1 series.
func BenchmarkSFEComparison(b *testing.B) {
	p := costmodel.DefaultSFEParams()
	var ratio float64
	for i := 0; i < b.N; i++ {
		sfe := costmodel.SFECostBits(p, 10_000, 10, 64)
		alg1 := costmodel.Alg1CostBits(10_000, 10_000, 10, 64)
		ratio = sfe / alg1
	}
	b.ReportMetric(ratio, "sfe/alg1")
}

// BenchmarkFig5_1 regenerates Figure 5.1 (Algorithm 5 cost vs M).
func BenchmarkFig5_1(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		for m := int64(1); m <= 6400; m *= 2 {
			last = costmodel.Alg5Cost(640_000, 6_400, m)
		}
	}
	b.ReportMetric(last, "cost-at-M4096")
}

// BenchmarkFig5_2 regenerates Figure 5.2 (Algorithm 6 cost vs epsilon,
// setting 1). Each point solves the n* optimisation (Eqn 5.6).
func BenchmarkFig5_2(b *testing.B) {
	var at20 float64
	for i := 0; i < b.N; i++ {
		for exp := -60; exp <= -5; exp += 5 {
			c := costmodel.Alg6Cost(640_000, 6_400, 64, math.Pow(10, float64(exp))).Total
			if exp == -20 {
				at20 = c
			}
		}
	}
	b.ReportMetric(at20, "cost-at-1e-20")
}

// BenchmarkFig5_3 regenerates Figure 5.3 (Algorithm 6 cost vs M).
func BenchmarkFig5_3(b *testing.B) {
	var at64 float64
	for i := 0; i < b.N; i++ {
		for m := int64(16); m <= 6400; m *= 2 {
			c := costmodel.Alg6Cost(640_000, 6_400, m, 1e-20).Total
			if m == 64 {
				at64 = c
			}
		}
	}
	b.ReportMetric(at64, "cost-at-M64")
}

// BenchmarkFig5_4 regenerates Figure 5.4 (Algorithm 6 vs epsilon, all
// settings).
func BenchmarkFig5_4(b *testing.B) {
	var sum float64
	for i := 0; i < b.N; i++ {
		sum = 0
		for _, st := range costmodel.Settings() {
			for exp := -60; exp <= -5; exp += 10 {
				sum += costmodel.Alg6Cost(st.L, st.S, st.M, math.Pow(10, float64(exp))).Total
			}
		}
	}
	b.ReportMetric(sum, "series-sum")
}

// --- Tables ---

// BenchmarkTable5_1 regenerates Table 5.1 (privacy level vs cost formulas).
func BenchmarkTable5_1(b *testing.B) {
	st := costmodel.Settings()[0]
	var a4, a5, a6 float64
	for i := 0; i < b.N; i++ {
		a4 = costmodel.Alg4Cost(st.L, st.S)
		a5 = costmodel.Alg5Cost(st.L, st.S, st.M)
		a6 = costmodel.Alg6Cost(st.L, st.S, st.M, 1e-20).Total
	}
	b.ReportMetric(a4, "alg4")
	b.ReportMetric(a5, "alg5")
	b.ReportMetric(a6, "alg6")
}

// BenchmarkTable5_2 regenerates Table 5.2 (settings; trivially cheap, kept
// for completeness of the per-artefact index).
func BenchmarkTable5_2(b *testing.B) {
	var l int64
	for i := 0; i < b.N; i++ {
		for _, st := range costmodel.Settings() {
			l += st.L
		}
	}
	b.ReportMetric(float64(l/int64(3*b.N)), "mean-L")
}

// BenchmarkTable5_3 regenerates Table 5.3 (SMC and Algorithms 4/5/6 under
// all settings, both epsilon levels, plus the reduction row).
func BenchmarkTable5_3(b *testing.B) {
	var red float64
	for i := 0; i < b.N; i++ {
		for _, st := range costmodel.Settings() {
			_ = costmodel.SMCCost(costmodel.DefaultSMCParams(), st.L, st.S)
			_ = costmodel.Alg4Cost(st.L, st.S)
			a5 := costmodel.Alg5Cost(st.L, st.S, st.M)
			a6 := costmodel.Alg6Cost(st.L, st.S, st.M, 1e-20).Total
			_ = costmodel.Alg6Cost(st.L, st.S, st.M, 1e-10).Total
			red = 100 * (1 - a6/a5)
		}
	}
	b.ReportMetric(red, "setting3-reduction-%")
}

// --- Measured executions (simulator, reduced scale) ---

// runRow runs row n of the algorithm table on one device.
func runRow(n int, t *sim.Coprocessor, tabs []sim.Table, in core.Inputs) (core.Result, error) {
	res, _, err := core.Algorithms[n-1].Run([]*sim.Coprocessor{t}, tabs, in)
	return res, err
}

// measuredCh4 runs row n of the algorithm table, a Chapter 4 algorithm,
// over a fixed workload.
func measuredCh4(b *testing.B, n int) {
	relA, relB := relation.GenWithMatchBound(relation.NewRand(7), 32, 64, 4)
	eq, err := relation.NewEqui(relA.Schema, "key", relB.Schema, "key")
	if err != nil {
		b.Fatal(err)
	}
	var transfers uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := sim.NewHost(0)
		cop, err := sim.NewCoprocessor(h, sim.Config{Memory: 2, Sealer: sim.PlainSealer{}, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		tabA, err := sim.LoadTable(h, cop.Sealer(), "A", relA)
		if err != nil {
			b.Fatal(err)
		}
		tabB, err := sim.LoadTable(h, cop.Sealer(), "B", relB)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := runRow(n, cop, []sim.Table{tabA, tabB}, core.Inputs{Pred: eq, N: 4})
		if err != nil {
			b.Fatal(err)
		}
		transfers = res.Stats.Transfers()
	}
	b.ReportMetric(float64(transfers), "transfers")
}

// BenchmarkMeasuredAlg1 executes Algorithm 1 (|A|=32, |B|=64, N=4).
func BenchmarkMeasuredAlg1(b *testing.B) { measuredCh4(b, 1) }

// BenchmarkMeasuredAlg2 executes Algorithm 2 (same workload, M=2, γ=2).
func BenchmarkMeasuredAlg2(b *testing.B) { measuredCh4(b, 2) }

// BenchmarkMeasuredAlg3 executes Algorithm 3 (same workload).
func BenchmarkMeasuredAlg3(b *testing.B) { measuredCh4(b, 3) }

// measuredCh5 runs row n of the algorithm table, a Chapter 5 algorithm,
// over the scaled setting L=6400, S=64 (Algorithm 6 at eps=1e-10).
func measuredCh5(b *testing.B, mem, n int) {
	relA := relation.NewRelation(relation.KeyedSchema())
	relB := relation.NewRelation(relation.KeyedSchema())
	rng := relation.NewRand(9)
	for i := 0; i < 80; i++ {
		relA.MustAppend(relation.Tuple{relation.IntValue(int64(i)), relation.IntValue(rng.Int64N(1 << 20))})
	}
	for j := 0; j < 64; j++ {
		relB.MustAppend(relation.Tuple{relation.IntValue(int64(j)), relation.IntValue(rng.Int64N(1 << 20))})
	}
	for j := 64; j < 80; j++ {
		relB.MustAppend(relation.Tuple{relation.IntValue(1000 + int64(j)), relation.IntValue(0)})
	}
	eq, err := relation.NewEqui(relA.Schema, "key", relB.Schema, "key")
	if err != nil {
		b.Fatal(err)
	}
	pred := relation.Pairwise(eq)
	var transfers uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := sim.NewHost(0)
		cop, err := sim.NewCoprocessor(h, sim.Config{Memory: mem, Sealer: sim.PlainSealer{}, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		tabA, err := sim.LoadTable(h, cop.Sealer(), "X1", relA)
		if err != nil {
			b.Fatal(err)
		}
		tabB, err := sim.LoadTable(h, cop.Sealer(), "X2", relB)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := runRow(n, cop, []sim.Table{tabA, tabB}, core.Inputs{Multi: pred, Epsilon: 1e-10})
		if err != nil {
			b.Fatal(err)
		}
		transfers = res.Stats.Transfers()
	}
	b.ReportMetric(float64(transfers), "transfers")
}

// BenchmarkMeasuredAlg4 executes Algorithm 4 at L=6400, S=64.
func BenchmarkMeasuredAlg4(b *testing.B) { measuredCh5(b, 2, 4) }

// BenchmarkMeasuredAlg5 executes Algorithm 5 at L=6400, S=64, M=8.
func BenchmarkMeasuredAlg5(b *testing.B) { measuredCh5(b, 8, 5) }

// BenchmarkMeasuredAlg6 executes Algorithm 6 at L=6400, S=64, M=8,
// eps=1e-10.
func BenchmarkMeasuredAlg6(b *testing.B) { measuredCh5(b, 8, 6) }

// BenchmarkMeasuredAlg5OCB is Algorithm 5 with the real authenticated
// encryption, measuring the cryptographic cost per join.
func BenchmarkMeasuredAlg5OCB(b *testing.B) {
	relA := relation.GenKeyed(relation.NewRand(9), 80, 80)
	relB := relation.GenKeyed(relation.NewRand(10), 80, 80)
	eq, err := relation.NewEqui(relA.Schema, "key", relB.Schema, "key")
	if err != nil {
		b.Fatal(err)
	}
	pred := relation.Pairwise(eq)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := sim.NewHost(0)
		sealer, err := sim.NewRandomGCMSealer()
		if err != nil {
			b.Fatal(err)
		}
		cop, err := sim.NewCoprocessor(h, sim.Config{Memory: 16, Sealer: sealer, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		tabA, err := sim.LoadTable(h, sealer, "X1", relA)
		if err != nil {
			b.Fatal(err)
		}
		tabB, err := sim.LoadTable(h, sealer, "X2", relB)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := core.Join5(cop, []sim.Table{tabA, tabB}, pred); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasuredAlg7 executes Algorithm 7 over the same scaled setting
// as the other Chapter 5 measured benchmarks (L=6400, S=64) and reports the
// measured transfers, which must equal the alg7 table row's closed form at
// the device's M = 8 exactly (core.Join7Transfers is the M ≥ 64 form).
func BenchmarkMeasuredAlg7(b *testing.B) {
	relA := relation.NewRelation(relation.KeyedSchema())
	relB := relation.NewRelation(relation.KeyedSchema())
	rng := relation.NewRand(9)
	for i := 0; i < 80; i++ {
		relA.MustAppend(relation.Tuple{relation.IntValue(int64(i)), relation.IntValue(rng.Int64N(1 << 20))})
	}
	for j := 0; j < 64; j++ {
		relB.MustAppend(relation.Tuple{relation.IntValue(int64(j)), relation.IntValue(rng.Int64N(1 << 20))})
	}
	for j := 64; j < 80; j++ {
		relB.MustAppend(relation.Tuple{relation.IntValue(1000 + int64(j)), relation.IntValue(0)})
	}
	eq, err := relation.NewEqui(relA.Schema, "key", relB.Schema, "key")
	if err != nil {
		b.Fatal(err)
	}
	var transfers uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := sim.NewHost(0)
		cop, err := sim.NewCoprocessor(h, sim.Config{Memory: 8, Sealer: sim.PlainSealer{}, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		tabA, err := sim.LoadTable(h, cop.Sealer(), "X1", relA)
		if err != nil {
			b.Fatal(err)
		}
		tabB, err := sim.LoadTable(h, cop.Sealer(), "X2", relB)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := core.Join7(cop, tabA, tabB, eq)
		if err != nil {
			b.Fatal(err)
		}
		transfers = res.Stats.Transfers()
		if want := core.Algorithms[6].Transfers([]int64{tabA.N, tabB.N}, res.OutputLen, 8, core.Inputs{}, core.CacheUse{}); int64(transfers) != want {
			b.Fatalf("transfers = %d, want closed form %d", transfers, want)
		}
	}
	b.ReportMetric(float64(transfers), "transfers")
}

// BenchmarkJoinScaling races the scan-based joins against the sort-based
// Algorithm 7 on the matched-keys workload |A| = |B| = S = n at M = 2048 —
// the workload of query.CrossoverN57. n=256 always runs (the CI smoke
// sweep); the 1k and 4k points run when PPJ_BENCH_FULL=1, as scripts/bench.sh
// sets for BENCH_8.json, where alg7's transfers at n=4k must be under 25% of
// alg5's. Every alg7 point asserts measured == closed form == cost model.
func BenchmarkJoinScaling(b *testing.B) {
	sizes := []int{256}
	if os.Getenv("PPJ_BENCH_FULL") == "1" {
		sizes = append(sizes, 1024, 4096)
	}
	const mem = 2048
	for _, num := range []int{3, 5, 7} {
		name := core.Algorithms[num-1].Name
		b.Run(name, func(b *testing.B) {
			for _, n := range sizes {
				b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
					relA := relation.NewRelation(relation.KeyedSchema())
					relB := relation.NewRelation(relation.KeyedSchema())
					for i := 0; i < n; i++ {
						relA.MustAppend(relation.Tuple{relation.IntValue(int64(i)), relation.IntValue(int64(i) * 3)})
						relB.MustAppend(relation.Tuple{relation.IntValue(int64(i)), relation.IntValue(int64(i) * 7)})
					}
					eq, err := relation.NewEqui(relA.Schema, "key", relB.Schema, "key")
					if err != nil {
						b.Fatal(err)
					}
					var transfers uint64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						h := sim.NewHost(0)
						cop, err := sim.NewCoprocessor(h, sim.Config{Memory: mem, Sealer: sim.PlainSealer{}, Seed: 5})
						if err != nil {
							b.Fatal(err)
						}
						tabA, err := sim.LoadTable(h, cop.Sealer(), "X1", relA)
						if err != nil {
							b.Fatal(err)
						}
						tabB, err := sim.LoadTable(h, cop.Sealer(), "X2", relB)
						if err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
						res, err := runRow(num, cop, []sim.Table{tabA, tabB}, core.Inputs{Pred: eq, N: 1})
						if err != nil {
							b.Fatal(err)
						}
						if res.OutputLen != int64(n) {
							b.Fatalf("output length %d, want S=%d", res.OutputLen, n)
						}
						transfers = res.Stats.Transfers()
						if num == 7 {
							if want := core.Join7Transfers(int64(n), int64(n), int64(n)); int64(transfers) != want {
								b.Fatalf("transfers = %d, want closed form %d", transfers, want)
							}
						}
					}
					b.ReportMetric(float64(transfers), "transfers")
				})
			}
		})
	}
}

// --- Substrates ---

// BenchmarkOCBSeal measures authenticated encryption of one 64-byte tuple
// with the cell sealer (AES-GCM; the name predates the switch from OCB) on
// the append-style SealTo/OpenTo path: with reused destination buffers
// the steady state performs zero heap allocations per seal+open pair.
func BenchmarkOCBSeal(b *testing.B) {
	sealer, err := sim.NewRandomGCMSealer()
	if err != nil {
		b.Fatal(err)
	}
	pt := make([]byte, 64)
	var ct, out []byte
	// One warm-up round trip so the reused buffers have their steady-state
	// capacity even at -benchtime=1x.
	ct = sealer.SealTo(ct[:0], pt)
	if out, err = sealer.OpenTo(out[:0], ct); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct = sealer.SealTo(ct[:0], pt)
		out, err = sealer.OpenTo(out[:0], ct)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = out
}

// benchFleet builds p coprocessors sharing one cell sealer on a fresh host.
func benchFleet(b *testing.B, h *sim.Host, p, mem int) ([]*sim.Coprocessor, sim.Sealer) {
	sealer, err := sim.NewRandomGCMSealer()
	if err != nil {
		b.Fatal(err)
	}
	cops := make([]*sim.Coprocessor, p)
	for w := range cops {
		cops[w], err = sim.NewCoprocessor(h, sim.Config{Memory: mem, Sealer: sealer, Seed: uint64(w) + 5})
		if err != nil {
			b.Fatal(err)
		}
	}
	return cops, sealer
}

// maxDeviceTransfers is the measured critical path of a fleet execution:
// the busiest device's transfer count. Devices run concurrently in the
// modeled deployment, so this — not the fleet total — is the per-workload
// wall-clock cost in the paper's unit, and the column where the P-device
// speedup shows even when the benchmark host has fewer cores than devices.
func maxDeviceTransfers(cops []*sim.Coprocessor) uint64 {
	var max uint64
	for _, c := range cops {
		if t := c.Stats().Transfers(); t > max {
			max = t
		}
	}
	return max
}

// BenchmarkParallelSort measures the §4.4.4 parallel sort of 2048 host
// cells with real authenticated encryption at fleet sizes 1, 2 and 4. The
// group runs one odd-even mergesort network — each device sorts its block,
// then a binary tree of merges — whose total comparator count is the same
// at every P, so ns/op must not regress with P even on a single-core host,
// and the per-device critical path (the transfers metric) still shrinks
// roughly with 1/P.
func BenchmarkParallelSort(b *testing.B) {
	const n = 2048
	less := func(x, y []byte) bool { return string(x) < string(y) }
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			var cops []*sim.Coprocessor
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := sim.NewHost(0)
				var sealer sim.Sealer
				cops, sealer = benchFleet(b, h, p, 0)
				id := h.MustCreateRegion("s", n)
				for j := int64(0); j < n; j++ {
					h.Store(id, j, sealer.Seal([]byte(fmt.Sprintf("%08d", (j*2654435761)%100000))))
				}
				b.StartTimer()
				if err := oblivious.SortSpan(cops, id, 0, n, 1, less); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(maxDeviceTransfers(cops)), "transfers")
		})
	}
}

// BenchmarkParallelJoin2 measures the partitioned Algorithm 2 (|A|=64,
// |B|=128, N=16, M=16) with real authenticated encryption at fleet sizes 1,
// 2 and 4. The A partitions are independent, so the speedup is near-linear
// until host-lock contention bites.
func BenchmarkParallelJoin2(b *testing.B) {
	relA, relB := relation.GenWithMatchBound(relation.NewRand(7), 64, 128, 16)
	eq, err := relation.NewEqui(relA.Schema, "key", relB.Schema, "key")
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			var cops []*sim.Coprocessor
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := sim.NewHost(0)
				var sealer sim.Sealer
				cops, sealer = benchFleet(b, h, p, 16)
				tabA, err := sim.LoadTable(h, sealer, "A", relA)
				if err != nil {
					b.Fatal(err)
				}
				tabB, err := sim.LoadTable(h, sealer, "B", relB)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := core.ParallelJoin2(cops, tabA, tabB, eq, 16, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(maxDeviceTransfers(cops)), "transfers")
		})
	}
}

// BenchmarkObliviousSort measures the odd-even mergesort of 1024 host cells.
func BenchmarkObliviousSort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := sim.NewHost(0)
		cop, err := sim.NewCoprocessor(h, sim.Config{Sealer: sim.PlainSealer{}, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		id := h.MustCreateRegion("s", 1024)
		for j := int64(0); j < 1024; j++ {
			if err := cop.Put(id, j, []byte(fmt.Sprintf("%08d", (j*2654435761)%100000))); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := oblivious.Sort(cop, id, 1024, func(x, y []byte) bool { return string(x) < string(y) }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(oblivious.SortTransfers(1024, 1)), "transfers")
}

// BenchmarkObliviousFilter measures the §5.2.2 decoy filter keeping 64 of
// 4096 cells.
func BenchmarkObliviousFilter(b *testing.B) {
	const omega, mu = 4096, 64
	delta := oblivious.ChooseDelta(omega, mu)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := sim.NewHost(0)
		cop, err := sim.NewCoprocessor(h, sim.Config{Sealer: sim.PlainSealer{}, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		id := h.MustCreateRegion("src", omega)
		for j := int64(0); j < omega; j++ {
			cell := []byte{0, 0}
			if j%64 == 0 {
				cell[0] = 1
			}
			if err := cop.Put(id, j, cell); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := oblivious.Filter([]*sim.Coprocessor{cop}, id, omega, mu, delta,
			func(c []byte) bool { return len(c) > 0 && c[0] == 1 }, fmt.Sprintf("buf%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(oblivious.FilterTransfers(omega, mu, delta)), "transfers")
}

// BenchmarkOptimalSegment measures the n* solver on setting 1.
func BenchmarkOptimalSegment(b *testing.B) {
	var n int64
	for i := 0; i < b.N; i++ {
		n = costmodel.OptimalSegment(640_000, 6_400, 64, 1e-20)
	}
	b.ReportMetric(float64(n), "nstar")
}

// BenchmarkMLFSRPermutation measures a full 640k-index random traversal
// (Algorithm 6's order generator, §5.2.3).
func BenchmarkMLFSRPermutation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := mlfsr.NewPermutation(640_000, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, ok := p.Next(); !ok {
				break
			}
		}
	}
}

// BenchmarkSMCGarbledPair measures one garbled-circuit equality comparison
// (16-bit keys) including oblivious transfers — the per-pair unit cost of
// the SMC baseline that the coprocessor approach beats by orders of
// magnitude.
func BenchmarkSMCGarbledPair(b *testing.B) {
	batch, err := smc.NewOTBatch()
	if err != nil {
		b.Fatal(err)
	}
	circ, err := smc.EqualityCircuit(16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := smc.Garble(circ)
		if err != nil {
			b.Fatal(err)
		}
		inputs := make([]smc.Label, circ.NumInputs())
		for k := 0; k < 16; k++ {
			inputs[k], _ = g.InputLabel(k, i&1 == 1)
			l0, _ := g.InputLabel(16+k, false)
			l1, _ := g.InputLabel(16+k, true)
			lab, _, err := batch.Transfer(l0, l1, (i>>1)&1)
			if err != nil {
				b.Fatal(err)
			}
			inputs[16+k] = lab
		}
		if _, err := smc.Evaluate(g.GC, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

// BenchmarkAblationFilterDelta sweeps the filter swap size around the
// chosen optimum, demonstrating unimodality on real executions.
func BenchmarkAblationFilterDelta(b *testing.B) {
	const omega, mu = 2048, 32
	chosen := oblivious.ChooseDelta(omega, mu)
	for _, delta := range []int64{oblivious.NextPow2(mu+1) - mu, chosen, oblivious.NextPow2(omega) - mu} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := sim.NewHost(0)
				cop, err := sim.NewCoprocessor(h, sim.Config{Sealer: sim.PlainSealer{}, Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
				id := h.MustCreateRegion("src", omega)
				for j := int64(0); j < omega; j++ {
					cell := []byte{0, 0}
					if j%(omega/mu) == 0 {
						cell[0] = 1
					}
					if err := cop.Put(id, j, cell); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if _, err := oblivious.Filter([]*sim.Coprocessor{cop}, id, omega, mu, delta,
					func(c []byte) bool { return len(c) > 0 && c[0] == 1 }, fmt.Sprintf("b%d", i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(oblivious.FilterTransfers(omega, mu, delta)), "transfers")
		})
	}
}

// BenchmarkAggregate measures the one-pass aggregation extension at
// L=6400.
func BenchmarkAggregate(b *testing.B) {
	relA := relation.GenKeyed(relation.NewRand(9), 80, 20)
	relB := relation.GenKeyed(relation.NewRand(10), 80, 20)
	eq, err := relation.NewEqui(relA.Schema, "key", relB.Schema, "key")
	if err != nil {
		b.Fatal(err)
	}
	pred := relation.Pairwise(eq)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := sim.NewHost(0)
		cop, err := sim.NewCoprocessor(h, sim.Config{Memory: 4, Sealer: sim.PlainSealer{}, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		tabA, err := sim.LoadTable(h, cop.Sealer(), "X1", relA)
		if err != nil {
			b.Fatal(err)
		}
		tabB, err := sim.LoadTable(h, cop.Sealer(), "X2", relB)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := core.Aggregate(cop, []sim.Table{tabA, tabB}, pred, core.AggSpec{Kind: core.AggCount}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(core.AggregateTransfers([]int64{80, 80})), "transfers")
}
