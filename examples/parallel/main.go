// Parallel: several coprocessors attached to one host (§4.4.4, §5.3.5).
//
// "Consider a server which has more than one secure coprocessor attached.
// It is readily apparent that both the above algorithms are easy to
// parallelize with a linear speed-up in the number of processors." This
// example partitions the outer relation of Algorithm 2 over P devices, and
// runs Algorithm 4 through its row of the algorithm table, which partitions
// the scan on outer-table rows and sorts every round of the §5.2.2 decoy
// filter over the device group. It reports the per-device load. Algorithm
// 4 has one schedule, so its P=1 baseline is the sequential algorithm.
//
// This example drives the internal engines directly (they are not yet part
// of the stable facade).
//
//	go run ./examples/parallel
package main

import (
	"fmt"
	"log"

	"ppj/internal/core"
	"ppj/internal/relation"
	"ppj/internal/sim"
)

func main() {
	relA, relB := relation.GenWithMatchBound(relation.NewRand(5), 16, 32, 8)
	eq, err := relation.NewEqui(relA.Schema, "key", relB.Schema, "key")
	if err != nil {
		log.Fatal(err)
	}
	want := relation.ReferenceJoin(relA, relB, eq)
	fmt.Printf("inputs: |A|=%d |B|=%d, N=8, true join size %d\n\n", relA.Len(), relB.Len(), want.Len())

	fmt.Println("Algorithm 2, outer relation partitioned over P devices:")
	fmt.Printf("%4s %16s %16s\n", "P", "max transfers", "per-device share")
	base := uint64(0)
	for _, p := range []int{1, 2, 4, 8} {
		maxT := runParallel2(relA, relB, eq, p)
		if p == 1 {
			base = maxT
		}
		fmt.Printf("%4d %16d %15.2fx\n", p, maxT, float64(base)/float64(maxT))
	}

	fmt.Println("\nAlgorithm 4, scan and decoy filter over P devices:")
	fmt.Printf("%4s %16s %16s\n", "P", "max transfers", "per-device share")
	base = 0
	for _, p := range []int{1, 2, 4} {
		maxT := runParallel4(relA, relB, eq, p)
		if p == 1 {
			base = maxT
		}
		fmt.Printf("%4d %16d %15.2fx\n", p, maxT, float64(base)/float64(maxT))
	}
}

// runParallel2 returns the busiest device's transfer count.
func runParallel2(relA, relB *relation.Relation, eq *relation.Equi, p int) uint64 {
	h := sim.NewHost(0)
	cops := fleet(h, p, 8)
	tabA, err := sim.LoadTable(h, cops[0].Sealer(), "A", relA)
	if err != nil {
		log.Fatal(err)
	}
	tabB, err := sim.LoadTable(h, cops[0].Sealer(), "B", relB)
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.ParallelJoin2(cops, tabA, tabB, eq, 8, 0)
	if err != nil {
		log.Fatal(err)
	}
	check(cops[0], res, relA, relB, eq)
	return busiest(cops)
}

// runParallel4 returns the busiest device's transfer count.
func runParallel4(relA, relB *relation.Relation, eq *relation.Equi, p int) uint64 {
	h := sim.NewHost(0)
	cops := fleet(h, p, 8)
	tabA, err := sim.LoadTable(h, cops[0].Sealer(), "A", relA)
	if err != nil {
		log.Fatal(err)
	}
	tabB, err := sim.LoadTable(h, cops[0].Sealer(), "B", relB)
	if err != nil {
		log.Fatal(err)
	}
	res, _, err := core.Algorithms[3].Run(cops, []sim.Table{tabA, tabB}, core.Inputs{Pred: eq})
	if err != nil {
		log.Fatal(err)
	}
	check(cops[0], res, relA, relB, eq)
	return busiest(cops)
}

func fleet(h *sim.Host, p, mem int) []*sim.Coprocessor {
	sealer, err := sim.NewRandomGCMSealer()
	if err != nil {
		log.Fatal(err)
	}
	cops := make([]*sim.Coprocessor, p)
	for i := range cops {
		cops[i], err = sim.NewCoprocessor(h, sim.Config{Memory: mem, Sealer: sealer, Seed: uint64(i) + 1})
		if err != nil {
			log.Fatal(err)
		}
	}
	return cops
}

func check(cop *sim.Coprocessor, res core.Result, relA, relB *relation.Relation, eq *relation.Equi) {
	got, err := core.DecodeOutput(cop, res)
	if err != nil {
		log.Fatal(err)
	}
	want := relation.ReferenceJoin(relA, relB, eq)
	if !relation.SameMultiset(got, want) {
		log.Fatalf("parallel join incorrect: %d vs %d rows", got.Len(), want.Len())
	}
}

func busiest(cops []*sim.Coprocessor) uint64 {
	maxT := uint64(0)
	for _, c := range cops {
		if tr := c.Stats().Transfers(); tr > maxT {
			maxT = tr
		}
	}
	return maxT
}
