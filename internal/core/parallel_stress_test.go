package core

import (
	"encoding/binary"
	"sync"
	"testing"

	"ppj/internal/oblivious"
	"ppj/internal/relation"
	"ppj/internal/sim"
)

// TestConcurrentFleetsOneHost is the -race stress test for the sharded host:
// two independent fleets hammer one shared host at the same time — four
// devices running a group SortSpan while four others run a ParallelJoin2.
// Results must be identical to the sequential runs, and every device's
// sim.Stats must equal the closed forms, proving that batching and
// concurrency changed wall-clock only, never the per-device access pattern.
func TestConcurrentFleetsOneHost(t *testing.T) {
	const (
		sortN              = int64(64) // power of two: no padding cells
		sortP              = 4
		aN, bN, matchBound = 8, 16, int64(4)
		joinP              = 4
		mem                = 8 // gamma=1, blk=4 for N=4
	)
	h := sim.NewHost(0)
	cops := newFleet(t, h, sortP+joinP, mem)
	sortCops, joinCops := cops[:sortP], cops[sortP:]

	// Sort input: a fixed permutation of 0..sortN-1 as 8-byte cells.
	sealer := sortCops[0].Sealer()
	sortRegion := h.MustCreateRegion("stress.sort", int(sortN))
	for i := int64(0); i < sortN; i++ {
		var cell [8]byte
		binary.BigEndian.PutUint64(cell[:], uint64((i*37)%sortN))
		h.Store(sortRegion, i, sealer.SealTo(nil, cell[:]))
	}
	less := func(a, b []byte) bool {
		return binary.BigEndian.Uint64(a) < binary.BigEndian.Uint64(b)
	}

	// Join input, shared with a sequential reference run on its own host.
	relA, relB := relation.GenWithMatchBound(relation.NewRand(12345), aN, bN, int(matchBound))
	tabA, err := sim.LoadTable(h, sealer, "stress.A", relA)
	if err != nil {
		t.Fatal(err)
	}
	tabB, err := sim.LoadTable(h, sealer, "stress.B", relB)
	if err != nil {
		t.Fatal(err)
	}
	pred := keyEqui(t, relA, relB)

	var (
		wg      sync.WaitGroup
		sortErr error
		joinRes Result
		joinErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		sortErr = oblivious.SortSpan(sortCops, sortRegion, 0, sortN, 1, less)
	}()
	go func() {
		defer wg.Done()
		joinRes, joinErr = ParallelJoin2(joinCops, tabA, tabB, pred, matchBound, 0)
	}()
	wg.Wait()
	if sortErr != nil {
		t.Fatalf("parallel sort: %v", sortErr)
	}
	if joinErr != nil {
		t.Fatalf("parallel join: %v", joinErr)
	}

	// Per-device closed forms, captured before any verification reads.
	sortStats := make([]sim.Stats, sortP)
	for w, c := range sortCops {
		sortStats[w] = c.Stats()
	}
	joinStats := make([]sim.Stats, joinP)
	for w, c := range joinCops {
		joinStats[w] = c.Stats()
	}
	for w, want := range expectedParallelSortStats(sortP, sortN) {
		if sortStats[w] != want {
			t.Errorf("sort device %d stats = %+v, want %+v", w, sortStats[w], want)
		}
	}
	for w := 0; w < joinP; w++ {
		lo := int64(w) * int64(aN) / joinP
		hi := int64(w+1) * int64(aN) / joinP
		rows := uint64(hi - lo)
		// gamma=1, blk=matchBound with this memory; per A row: 1 get for a,
		// |B| gets for the scan, blk puts and disk requests for the flush.
		want := sim.Stats{
			Gets:         rows * (1 + uint64(bN)),
			Puts:         rows * uint64(matchBound),
			PredEvals:    rows * uint64(bN),
			DiskRequests: rows * uint64(matchBound),
		}
		if joinStats[w] != want {
			t.Errorf("join device %d stats = %+v, want %+v", w, joinStats[w], want)
		}
	}

	// The sorted region must hold 0..sortN-1 in order.
	for i := int64(0); i < sortN; i++ {
		pt, err := sortCops[0].Get(sortRegion, i)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.BigEndian.Uint64(pt); got != uint64(i) {
			t.Fatalf("sorted[%d] = %d", i, got)
		}
	}

	// The parallel join must decode to the reference join's rows.
	got, err := DecodeOutput(joinCops[0], joinRes)
	if err != nil {
		t.Fatal(err)
	}
	if ref := relation.ReferenceJoin(relA, relB, pred); !relation.SameMultiset(got, ref) {
		t.Fatalf("parallel join rows differ from reference: %d vs %d", got.Len(), ref.Len())
	}
}

// expectedParallelSortStats replays the group SortSpan comparator schedule for p
// devices over m (power-of-two, no padding) cells: every comparator costs 2
// gets, 2 puts and 1 comparison. The bottom of the odd-even mergesort
// recursion gives each device the sort of its own block; the top log₂p
// levels are the binary merge tree, each merge's stride sub-recursions
// splitting the device group in half and the closing comparator chain
// landing on the group's first device.
func expectedParallelSortStats(p int, m int64) []sim.Stats {
	block := m / int64(p)
	comps := make([]uint64, p)
	for w := range comps {
		comps[w] += uint64(oblivious.Comparators(block))
	}
	var seqMerge func(m2, r int64) uint64
	seqMerge = func(m2, r int64) uint64 {
		step := r * 2
		if step >= m2 {
			return 1
		}
		c := 2 * seqMerge(m2, step)
		for i := r; i+r < m2; i += step {
			c++
		}
		return c
	}
	var replay func(devs []int, m2, r int64)
	replay = func(devs []int, m2, r int64) {
		step := r * 2
		if len(devs) <= 1 || step >= m2 {
			comps[devs[0]] += seqMerge(m2, r)
			return
		}
		half := len(devs) / 2
		replay(devs[:half], m2, step)
		replay(devs[half:], m2, step)
		comps[devs[0]] += uint64(m2/step - 1)
	}
	for width := block; width < m; width <<= 1 {
		merges := m / (2 * width)
		devs := int64(p) / merges
		for w := int64(0); w < merges; w++ {
			group := make([]int, devs)
			for i := range group {
				group[i] = int(w*devs) + i
			}
			replay(group, 2*width, 1)
		}
	}
	stats := make([]sim.Stats, p)
	for w := range stats {
		stats[w] = sim.Stats{Gets: 2 * comps[w], Puts: 2 * comps[w], Comparisons: comps[w]}
	}
	return stats
}
