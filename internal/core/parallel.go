package core

import (
	"fmt"
	"sync"

	"ppj/internal/oblivious"
	"ppj/internal/relation"
	"ppj/internal/sim"
)

// This file implements the parallel variants of §4.4.4 ("both the above
// algorithms are easy to parallelize with a linear speed-up in the number
// of processors") and §5.3.5. All coprocessors must share one sealer and be
// attached to the same host.

// ParallelJoin2 runs Algorithm 2 with P coprocessors, partitioning the
// outer relation A: device p handles A rows [p·|A|/P, (p+1)·|A|/P) and
// writes its fixed-size flushes into a disjoint range of the shared output.
// Every device's access pattern depends only on its partition bounds and
// (|B|, N, M), so the per-device privacy guarantee is unchanged.
func ParallelJoin2(cops []*sim.Coprocessor, a, b sim.Table, pred relation.Predicate, n int64, delta int64) (Result, error) {
	if len(cops) == 0 {
		return Result{}, fmt.Errorf("%w: no coprocessors", errInvalid)
	}
	if err := validateCh4(a, b, n); err != nil {
		return Result{}, err
	}
	outSchema, err := outputSchema2(a, b)
	if err != nil {
		return Result{}, err
	}
	// All devices must agree on γ and blk, so they are derived from the
	// minimum memory across the fleet.
	minMem := cops[0].Memory()
	for _, c := range cops {
		if c.Memory() < minMem {
			minMem = c.Memory()
		}
	}
	usable := int64(minMem) - delta
	if usable < 1 {
		return Result{}, fmt.Errorf("%w: no memory left after δ=%d", errInvalid, delta)
	}
	gamma := (n + usable - 1) / usable
	if gamma < 1 {
		gamma = 1
	}
	blk := (n + gamma - 1) / gamma

	host := cops[0].Host()
	out := host.FreshRegion("alg2.out", int(gamma*blk*a.N))
	payloadSize := outSchema.TupleSize()

	p := int64(len(cops))
	var wg sync.WaitGroup
	errs := make([]error, p)
	for w := int64(0); w < p; w++ {
		lo := w * a.N / p
		hi := (w + 1) * a.N / p
		wg.Add(1)
		go func(w, lo, hi int64) {
			defer wg.Done()
			errs[w] = join2Range(cops[w], a, b, pred, outSchema, out, int64(payloadSize), lo, hi, gamma, blk)
		}(w, lo, hi)
	}
	wg.Wait()
	var stats sim.Stats
	for w := range errs {
		if errs[w] != nil {
			return Result{}, errs[w]
		}
		stats.Add(cops[w].Stats())
	}
	return Result{
		Output:    sim.Table{Region: out, N: gamma * blk * a.N, Schema: outSchema},
		OutputLen: gamma * blk * a.N,
		Stats:     stats,
	}, nil
}

// join2Range is Algorithm 2's inner discipline over A rows [lo, hi),
// writing flushes at the global offsets those rows own.
func join2Range(t *sim.Coprocessor, a, b sim.Table, pred relation.Predicate,
	outSchema *relation.Schema, out sim.RegionID, payloadSize int64, lo, hi, gamma, blk int64) error {
	release, err := t.Grant(int(blk))
	if err != nil {
		return fmt.Errorf("core: algorithm 2: %w", err)
	}
	defer release()
	t.ResetStats()
	for ai := lo; ai < hi; ai++ {
		aT, err := t.GetTuple(a, ai)
		if err != nil {
			return err
		}
		last := int64(-1) // position of the last matched B tuple
		for pass := int64(0); pass < gamma; pass++ {
			joined := make([][]byte, 0, blk) // lives in T's memory (Granted)
			scanErr := t.ScanRange(b.Region, 0, b.N, func(bi int64, pt []byte) error {
				bT, err := b.Schema.Decode(pt)
				if err != nil {
					return fmt.Errorf("core: decoding B[%d]: %w", bi, err)
				}
				// The predicate is evaluated for every tuple regardless of
				// whether the result can still be stored (Fixed Time).
				t.ChargePredicate()
				matched := pred.Match(aT, bT)
				if bi > last && int64(len(joined)) < blk && matched {
					payload, err := joinPayload(outSchema, aT, bT)
					if err != nil {
						return err
					}
					joined = append(joined, wrapReal(payload))
					last = bi
				}
				return nil
			})
			if scanErr != nil {
				return scanErr
			}
			// Pad to blk and flush: the output per pass has fixed size.
			for int64(len(joined)) < blk {
				joined = append(joined, wrapDecoy(int(payloadSize)))
			}
			base := ai*gamma*blk + pass*blk
			if err := t.PutRange(out, base, joined); err != nil {
				return err
			}
			if err := t.RequestDisk(out, base, blk); err != nil {
				return err
			}
		}
	}
	return nil
}

// ParallelJoin5 runs Algorithm 5 with P coprocessors (§5.3.5): a
// coordinator screens the iTuples to learn S, then device i re-scans D and
// outputs the results ranked [i·blk, (i+1)·blk) in the fixed order, blk =
// ⌈S/P⌉. All devices read the iTuples in the same order; the per-device
// flush schedule depends only on (L, S, M, P).
func ParallelJoin5(cops []*sim.Coprocessor, tables []sim.Table, pred relation.MultiPredicate) (Result, error) {
	if len(cops) == 0 {
		return Result{}, fmt.Errorf("%w: no coprocessors", errInvalid)
	}
	outSchema, err := outputSchemaN(tables)
	if err != nil {
		return Result{}, err
	}
	// Coordinator screening pass (device 0).
	coord, err := sim.NewCartesian(cops[0], tables)
	if err != nil {
		return Result{}, err
	}
	l := coord.Size()
	var s int64
	for i := int64(0); i < l; i++ {
		row, err := coord.Read(i)
		if err != nil {
			return Result{}, err
		}
		cops[0].ChargePredicate()
		if pred.Satisfy(row) {
			s++
		}
	}
	host := cops[0].Host()
	out := host.FreshRegion("palg5.out", int(s))
	if s == 0 {
		return Result{
			Output:    sim.Table{Region: out, N: 0, Schema: outSchema},
			OutputLen: 0,
			Stats:     cops[0].Stats(),
		}, nil
	}

	p := int64(len(cops))
	blk := (s + p - 1) / p
	var wg sync.WaitGroup
	errs := make([]error, p)
	for w := int64(0); w < p; w++ {
		loRank := w * blk
		hiRank := min64(loRank+blk, s)
		wg.Add(1)
		go func(w, loRank, hiRank int64) {
			defer wg.Done()
			if loRank >= hiRank {
				return
			}
			errs[w] = join5RankWindow(cops[w], tables, pred, outSchema, out, loRank, hiRank)
		}(w, loRank, hiRank)
	}
	wg.Wait()
	var stats sim.Stats
	for w := range errs {
		if errs[w] != nil {
			return Result{}, errs[w]
		}
		if w > 0 { // device 0's stats include the screening pass
			stats.Add(cops[w].Stats())
		}
	}
	stats.Add(cops[0].Stats())
	return Result{
		Output:    sim.Table{Region: out, N: s, Schema: outSchema},
		OutputLen: s,
		Stats:     stats,
	}, nil
}

// join5RankWindow scans D repeatedly, storing results whose global rank
// falls in [loRank, hiRank), up to M per scan, flushing at scan boundaries.
func join5RankWindow(t *sim.Coprocessor, tables []sim.Table, pred relation.MultiPredicate,
	outSchema *relation.Schema, out sim.RegionID, loRank, hiRank int64) error {
	cart, err := sim.NewCartesian(t, tables)
	if err != nil {
		return err
	}
	m := int64(t.Memory())
	release, err := t.Grant(t.Memory())
	if err != nil {
		return err
	}
	defer release()
	l := cart.Size()
	next := loRank // next global rank this device still needs
	for next < hiRank {
		stored := make([][]byte, 0, m)
		rank := int64(0)
		flushBase := next
		for i := int64(0); i < l; i++ {
			row, err := cart.Read(i)
			if err != nil {
				return err
			}
			t.ChargePredicate()
			if !pred.Satisfy(row) {
				continue
			}
			if rank >= next && rank < hiRank && int64(len(stored)) < m {
				payload, err := outSchema.Encode(relation.JoinTuples(row...))
				if err != nil {
					return err
				}
				stored = append(stored, wrapReal(payload))
			}
			rank++
		}
		if err := t.PutRange(out, flushBase, stored); err != nil {
			return err
		}
		if len(stored) > 0 {
			if err := t.RequestDisk(out, flushBase, int64(len(stored))); err != nil {
				return err
			}
		}
		next += int64(len(stored))
		if len(stored) == 0 {
			break // window exhausted (fewer results than hiRank)
		}
	}
	return nil
}

// ParallelJoin3 runs Algorithm 3 with P coprocessors: the oblivious sort of
// B uses the parallel bitonic network over the largest power-of-two prefix
// of the fleet, then the outer relation A is partitioned — device p handles
// A rows [p·|A|/P, (p+1)·|A|/P) against its own private scratch ring,
// writing output rows at the global offsets its partition owns. Every
// device's access pattern depends only on its partition bounds and
// (|B|, N), so the per-device privacy guarantee is unchanged.
func ParallelJoin3(cops []*sim.Coprocessor, a, b sim.Table, pred *relation.Equi, n int64, preSorted bool) (Result, error) {
	if len(cops) == 0 {
		return Result{}, fmt.Errorf("%w: no coprocessors", errInvalid)
	}
	if err := validateCh4(a, b, n); err != nil {
		return Result{}, err
	}
	outSchema, err := outputSchema2(a, b)
	if err != nil {
		return Result{}, err
	}
	for _, c := range cops {
		c.ResetStats()
	}

	if !preSorted {
		less := func(x, y []byte) bool {
			tx, err := b.Schema.Decode(x)
			if err != nil {
				return false
			}
			ty, err := b.Schema.Decode(y)
			if err != nil {
				return false
			}
			return pred.Less(tx, ty)
		}
		// ParallelSort needs a power-of-two device count; use the largest
		// power-of-two prefix of the fleet.
		if err := oblivious.ParallelSort(cops[:pow2Prefix(len(cops))], b.Region, b.N, less); err != nil {
			return Result{}, err
		}
	}

	// Regions are allocated here, in device order, so their ids — part of
	// the traced access sequence — never depend on goroutine scheduling.
	host := cops[0].Host()
	p := int64(len(cops))
	scratch := make([]sim.RegionID, p)
	for w := range scratch {
		scratch[w] = host.FreshRegion("alg3.scratch", int(n))
	}
	out := host.FreshRegion("alg3.out", int(n*a.N))
	payloadSize := outSchema.TupleSize()

	var wg sync.WaitGroup
	errs := make([]error, p)
	for w := int64(0); w < p; w++ {
		lo := w * a.N / p
		hi := (w + 1) * a.N / p
		wg.Add(1)
		go func(w, lo, hi int64) {
			defer wg.Done()
			errs[w] = join3Range(cops[w], a, b, pred, outSchema, scratch[w], out, int64(payloadSize), n, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	var stats sim.Stats
	for w := range errs {
		if errs[w] != nil {
			return Result{}, errs[w]
		}
		stats.Add(cops[w].Stats())
	}
	return Result{
		Output:    sim.Table{Region: out, N: n * a.N, Schema: outSchema},
		OutputLen: n * a.N,
		Stats:     stats,
	}, nil
}

// join3Range is Algorithm 3's inner discipline over A rows [lo, hi) with a
// device-private scratch ring of N cells.
func join3Range(t *sim.Coprocessor, a, b sim.Table, pred *relation.Equi,
	outSchema *relation.Schema, scratch, out sim.RegionID, payloadSize, n, lo, hi int64) error {
	decoy := wrapDecoy(int(payloadSize))
	decoyFill := make([][]byte, n)
	for j := range decoyFill {
		decoyFill[j] = decoy
	}
	for ai := lo; ai < hi; ai++ {
		aT, err := t.GetTuple(a, ai)
		if err != nil {
			return err
		}
		if err := t.PutRange(scratch, 0, decoyFill); err != nil {
			return err
		}
		i := int64(0)
		for bi := int64(0); bi < b.N; bi++ {
			bT, err := t.GetTuple(b, bi)
			if err != nil {
				return err
			}
			prev, err := t.Get(scratch, i%n)
			if err != nil {
				return err
			}
			t.ChargePredicate()
			if pred.Match(aT, bT) {
				payload, err := joinPayload(outSchema, aT, bT)
				if err != nil {
					return err
				}
				if err := t.Put(scratch, i%n, wrapReal(payload)); err != nil {
					return err
				}
			} else {
				// Write back the value just read; semantic security makes the
				// re-encryption indistinguishable from a fresh result.
				if err := t.Put(scratch, i%n, prev); err != nil {
					return err
				}
			}
			i++
		}
		if err := t.RequestCopyOut(out, ai*n, scratch, 0, n); err != nil {
			return err
		}
	}
	return nil
}

// ParallelJoin4 runs Algorithm 4 with P coprocessors (§5.3.5): the iTuple
// range is partitioned across devices, each emitting one oTuple per iTuple
// into its own slice of the raw output; the decoy filter then uses the
// parallel bitonic sort over all P devices ("oblivious filtering out decoys
// in parallel requires a parallel bitonic sort"). P must be a power of two.
func ParallelJoin4(cops []*sim.Coprocessor, tables []sim.Table, pred relation.MultiPredicate) (Result, error) {
	if len(cops) == 0 {
		return Result{}, fmt.Errorf("%w: no coprocessors", errInvalid)
	}
	outSchema, err := outputSchemaN(tables)
	if err != nil {
		return Result{}, err
	}
	probe, err := sim.NewCartesian(cops[0], tables)
	if err != nil {
		return Result{}, err
	}
	l := probe.Size()
	host := cops[0].Host()
	raw := host.FreshRegion("palg4.raw", int(l))
	payloadSize := outSchema.TupleSize()

	p := int64(len(cops))
	counts := make([]int64, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for w := int64(0); w < p; w++ {
		lo := w * l / p
		hi := (w + 1) * l / p
		wg.Add(1)
		go func(w, lo, hi int64) {
			defer wg.Done()
			cart, err := sim.NewCartesian(cops[w], tables)
			if err != nil {
				errs[w] = err
				return
			}
			for i := lo; i < hi; i++ {
				row, err := cart.Read(i)
				if err != nil {
					errs[w] = err
					return
				}
				cops[w].ChargePredicate()
				var cell []byte
				if pred.Satisfy(row) {
					payload, err := outSchema.Encode(relation.JoinTuples(row...))
					if err != nil {
						errs[w] = err
						return
					}
					cell = wrapReal(payload)
					counts[w]++
				} else {
					cell = wrapDecoy(payloadSize)
				}
				if err := cops[w].Put(raw, i, cell); err != nil {
					errs[w] = err
					return
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	var s int64
	for _, c := range counts {
		s += c
	}

	// Parallel oblivious sort, real results first; then the first S cells
	// are the exact output.
	if err := oblivious.ParallelSort(cops, raw, l, oTupleFirst); err != nil {
		return Result{}, err
	}
	out := host.FreshRegion("palg4.out", int(s))
	if s > 0 {
		if err := cops[0].RequestCopyOut(out, 0, raw, 0, s); err != nil {
			return Result{}, err
		}
	}
	return Result{
		Output:    sim.Table{Region: out, N: s, Schema: outSchema},
		OutputLen: s,
		Stats:     sumStats(cops),
	}, nil
}

// ParallelJoin7 runs Algorithm 7 with P coprocessors. The pipeline's cost
// is dominated by its oblivious sorts, so those are what parallelize: the
// union key sort and the final B alignment sort run on the parallel bitonic
// network over the largest power-of-two device prefix, and the two sides'
// expansions (compaction sort, distribution, fill) run concurrently on the
// two halves of that prefix. The linear scans and the stitch stay on device
// 0 — they are O(n + S) against the sorts' log² factors. Every device's
// schedule is a pure function of (|A|, |B|, S, P): the side split, the sort
// partitions, and the scan bounds derive only from public sizes, so the
// per-device invariance guarantee matches the serial algorithm's.
func ParallelJoin7(cops []*sim.Coprocessor, a, b sim.Table, pred *relation.Equi) (Result, error) {
	if len(cops) == 1 {
		return Join7(cops[0], a, b, pred)
	}
	outSchema, release, err := join7Begin(cops, a, b, pred)
	if err != nil {
		return Result{}, err
	}
	defer release()

	host := cops[0].Host()
	n := a.N + b.N
	if n == 0 {
		return join7Empty(cops, outSchema), nil
	}

	// Largest power-of-two device prefix, as in ParallelJoin3.
	ps := pow2Prefix(len(cops))
	sortAll := func(region sim.RegionID, n int64, less oblivious.LessFunc) error {
		return oblivious.ParallelSort(cops[:ps], region, n, less)
	}

	codecA := newA7Codec(pred, a.Schema, b.Schema)
	codecB := newA7Codec(pred, a.Schema, b.Schema) // sides run concurrently; codecs hold scratch

	w := host.FreshRegion("palg7.w", int(oblivious.NextPow2(n)))
	if err := cops[0].TransformRange(w, 0, a.Region, 0, a.N, func(_ int64, pt []byte) ([]byte, error) {
		return codecA.wrap(a7TagA, pt), nil
	}); err != nil {
		return Result{}, err
	}
	if err := cops[0].TransformRange(w, a.N, b.Region, 0, b.N, func(_ int64, pt []byte) ([]byte, error) {
		return codecA.wrap(a7TagB, pt), nil
	}); err != nil {
		return Result{}, err
	}
	if err := sortAll(w, n, codecA.lessKeyTag); err != nil {
		return Result{}, err
	}
	out, s, err := parallelJoin7Tail(cops, ps, codecA, codecB, w, n, outSchema)
	if err != nil {
		return Result{}, err
	}
	return Result{Output: out, OutputLen: s, Stats: sumStats(cops)}, nil
}

// pow2Prefix returns the largest power of two <= n (n >= 1).
func pow2Prefix(n int) int {
	ps := 1
	for ps*2 <= n {
		ps *= 2
	}
	return ps
}

// parallelJoin7Tail runs phases 3–5 of the parallel Algorithm 7 over a
// key-sorted union held in the first n cells of w: index scans and stitch
// on device 0, the two side expansions concurrently on the two halves of
// the ps-device prefix, the B alignment sort on the whole prefix. Shared
// by ParallelJoin7 and ParallelJoin7Cached.
func parallelJoin7Tail(cops []*sim.Coprocessor, ps int, codecA, codecB *a7Codec, w sim.RegionID, n int64, outSchema *relation.Schema) (sim.Table, int64, error) {
	host := cops[0].Host()
	sortAll := func(region sim.RegionID, n int64, less oblivious.LessFunc) error {
		return oblivious.ParallelSort(cops[:ps], region, n, less)
	}
	// Each side expands on its own half of the prefix (the halves of a
	// power of two are powers of two); with one usable device both sides
	// still run concurrently, each on a single-device sorter.
	sideA, sideB := cops[:1], cops[:1]
	if ps >= 2 {
		sideA, sideB = cops[:ps/2], cops[ps/2:ps]
	} else if len(cops) >= 2 {
		sideB = cops[1:2]
	}
	sideSort := func(group []*sim.Coprocessor) a7SortFunc {
		return func(region sim.RegionID, n int64, less oblivious.LessFunc) error {
			return oblivious.ParallelSort(group, region, n, less)
		}
	}

	s, err := codecA.indexScans(cops[0], w, n)
	if err != nil {
		return sim.Table{}, 0, err
	}
	out := host.FreshRegion("palg7.out", int(s))
	if s == 0 {
		return sim.Table{Region: out, N: 0, Schema: outSchema}, 0, nil
	}

	var (
		wg     sync.WaitGroup
		ea, eb sim.RegionID
		errA   error
		errB   error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		ea, errA = codecA.expandSide(sideA[0], sideSort(sideA), w, n, s, a7TagA)
	}()
	go func() {
		defer wg.Done()
		eb, errB = codecB.expandSide(sideB[0], sideSort(sideB), w, n, s, a7TagB)
	}()
	wg.Wait()
	if errA != nil {
		return sim.Table{}, 0, errA
	}
	if errB != nil {
		return sim.Table{}, 0, errB
	}
	if err := sortAll(eb, s, codecA.lessDest); err != nil {
		return sim.Table{}, 0, err
	}
	if err := codecA.stitch(cops[0], out, ea, eb, s, outSchema); err != nil {
		return sim.Table{}, 0, err
	}
	return sim.Table{Region: out, N: s, Schema: outSchema}, s, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
