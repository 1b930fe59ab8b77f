package core

import (
	"fmt"

	"ppj/internal/oblivious"
	"ppj/internal/relation"
	"ppj/internal/sim"
)

// join4 runs Algorithm 4 (§5.3.1), the J-way general join for secure
// coprocessors with small memory. T reads the L iTuples of
// D = X₁ × … × X_J in a fixed sequential order and writes exactly one
// oTuple per iTuple — the join result when satisfy() holds, a decoy
// otherwise. The L oTuples are then obliviously filtered (§5.2.2) so the
// output holds exactly the S real results, S being public under
// Definition 3. The communication pattern is a function of (L, S) alone.
// It needs only two tuples of device memory and does not benefit from more.
//
// Over a power-of-two device group (§5.3.5) the scan is partitioned on
// outer-table rows: device w emits the oTuples of X₁ rows
// [w·|X₁|/P, (w+1)·|X₁|/P) into their slots of the raw output, so each
// device's first Cartesian read falls where the sequential scan also reads
// every table. The decoy filter then runs over the whole group, each round's
// buffer sort one SortSpan. Summed over the group the transfers are
// Join4Transfers at every P — except that every device fetches a one-row
// table's row itself, P − 1 gets more — and on one device this is the
// sequential algorithm. Every device's schedule is a function of (L, S, P)
// and its group position.
func join4(cops []*sim.Coprocessor, tables []sim.Table, pred relation.MultiPredicate) (Result, error) {
	outSchema, cart, err := prepCh5(cops[0], tables)
	if err != nil {
		return Result{}, err
	}
	for _, c := range cops {
		c.ResetStats()
	}

	host := cops[0].Host()
	l := cart.Size()
	raw := host.FreshRegion("alg4.raw", int(l))
	payloadSize := outSchema.TupleSize()

	p, rows := int64(len(cops)), tables[0].N
	perRow := l / rows
	counts := make([]int64, p)
	if err := oblivious.ForEach(p, func(w int64) error {
		t := cops[w]
		scan, err := sim.NewCartesian(t, tables)
		if err != nil {
			return err
		}
		for i := w * rows / p * perRow; i < (w+1)*rows/p*perRow; i++ {
			row, err := scan.Read(i)
			if err != nil {
				return err
			}
			t.ChargePredicate()
			var cell []byte
			if pred.Satisfy(row) {
				payload, err := joinPayload(outSchema, row...)
				if err != nil {
					return err
				}
				cell = wrapReal(payload)
				counts[w]++
			} else {
				cell = wrapDecoy(payloadSize)
			}
			if err := t.Put(raw, i, cell); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return Result{}, err
	}
	var s int64
	for _, c := range counts {
		s += c
	}

	out, err := filterDecoys(cops, raw, l, s, "alg4.out")
	if err != nil {
		return Result{}, err
	}
	return Result{
		Output:    sim.Table{Region: out, N: s, Schema: outSchema},
		OutputLen: s,
		Stats:     sumStats(cops),
	}, nil
}

// filterDecoys obliviously reduces omega oTuple cells to the s real results
// using the §5.2.2 repeated-buffer filter with the implementation-optimal
// swap size, its buffer sorts spread over the power-of-two device group cops.
// With s = 0 it returns an empty region (the empty output is public); with
// omega == s no filtering is needed.
func filterDecoys(cops []*sim.Coprocessor, raw sim.RegionID, omega, s int64, name string) (sim.RegionID, error) {
	t := cops[0]
	host := t.Host()
	if s == 0 {
		return host.FreshRegion(name, 0), nil
	}
	if omega == s {
		out := host.FreshRegion(name, int(s))
		if err := t.RequestCopyOut(out, 0, raw, 0, s); err != nil {
			return 0, err
		}
		return out, nil
	}
	delta := oblivious.ChooseDelta(omega, s)
	buf, err := oblivious.Filter(cops, raw, omega, s, delta, IsReal, name+".buf")
	if err != nil {
		return 0, err
	}
	out := host.FreshRegion(name, int(s))
	if err := t.RequestCopyOut(out, 0, buf, 0, s); err != nil {
		return 0, err
	}
	return out, nil
}

// Join4Transfers is the exact transfer count of this implementation, summed
// over the device group at every P, the measured analogue of Eqn 5.2 (which
// counts reads of D logically; the underlying per-table gets add the
// lower-order cached-outer terms).
func Join4Transfers(sizes []int64, s int64) int64 {
	gets, l := scanGets(sizes, 1)
	total := gets + l // reads + one put per iTuple
	if s > 0 && l > s {
		// The final copy of the kept cells is host-side and transfers nothing.
		total += oblivious.FilterTransfers(l, s, oblivious.ChooseDelta(l, s))
	}
	return total
}

// prepCh5 validates a Chapter 5 input and builds the output schema and the
// cartesian view.
func prepCh5(t *sim.Coprocessor, tables []sim.Table) (*relation.Schema, *sim.Cartesian, error) {
	if len(tables) == 0 {
		return nil, nil, fmt.Errorf("%w: no input tables", errInvalid)
	}
	outSchema, err := outputSchemaN(tables)
	if err != nil {
		return nil, nil, err
	}
	cart, err := sim.NewCartesian(t, tables)
	if err != nil {
		return nil, nil, err
	}
	return outSchema, cart, nil
}
