package smc

import (
	"fmt"
)

// PrivateEqualityJoin runs the two-party private equijoin as a sequence of
// Yao protocol instances: for every pair (a ∈ A, b ∈ B), Alice garbles a
// fresh w-bit equality circuit with her key as the garbler input, Bob
// obtains his input labels through w oblivious transfers and evaluates.
// Both parties learn exactly the matching index pairs (the join result) and
// nothing else about non-matching keys.
//
// This is the executable counterpart of the paper's analytic SMC baseline:
// it makes the Θ(|A||B|) circuit and OT cost tangible at toy scale. A
// production SMC system (Fairplay [32]) amortises OTs and adds
// cut-and-choose for malicious security — both only add to the gap the
// paper reports.
type PrivateEqualityJoin struct {
	// Width is the key width in bits.
	Width int
}

// JoinStats accounts for the protocol's communication, comparable (in
// spirit) to the coprocessor algorithms' transfer counts.
type JoinStats struct {
	Pairs          int   // circuits evaluated
	OTs            int   // oblivious transfers executed
	GarbledBytes   int   // garbled tables transferred
	OTBytes        int   // OT messages transferred
	InputLabelSize int   // bytes of directly-sent garbler labels
	TotalBytes     int64 // everything
}

// Run executes the join over the two key lists, returning matching index
// pairs and the communication accounting.
func (p PrivateEqualityJoin) Run(aliceKeys, bobKeys []uint64) ([][2]int, JoinStats, error) {
	w := p.Width
	if w <= 0 || w > 64 {
		return nil, JoinStats{}, fmt.Errorf("smc: width %d out of range", w)
	}
	circ, err := EqualityCircuit(w)
	if err != nil {
		return nil, JoinStats{}, err
	}
	batch, err := NewOTBatch()
	if err != nil {
		return nil, JoinStats{}, err
	}
	var stats JoinStats
	var pairs [][2]int
	for i, ak := range aliceKeys {
		for j, bk := range bobKeys {
			match, st, err := p.runPair(circ, batch, ak, bk)
			if err != nil {
				return nil, JoinStats{}, fmt.Errorf("smc: pair (%d,%d): %w", i, j, err)
			}
			stats.Pairs++
			stats.OTs += st.OTs
			stats.GarbledBytes += st.GarbledBytes
			stats.OTBytes += st.OTBytes
			stats.InputLabelSize += st.InputLabelSize
			if match {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	stats.TotalBytes = int64(stats.GarbledBytes) + int64(stats.OTBytes) + int64(stats.InputLabelSize)
	return pairs, stats, nil
}

// runPair evaluates one garbled equality circuit.
func (p PrivateEqualityJoin) runPair(circ *Circuit, batch *OTBatch, aliceKey, bobKey uint64) (bool, JoinStats, error) {
	var st JoinStats
	g, err := Garble(circ)
	if err != nil {
		return false, st, err
	}
	st.GarbledBytes = g.GC.Size()

	inputs := make([]Label, circ.NumInputs())
	// Alice's labels: sent directly.
	for i := 0; i < p.Width; i++ {
		bit := aliceKey>>i&1 == 1
		l, err := g.InputLabel(i, bit)
		if err != nil {
			return false, st, err
		}
		inputs[i] = l
		st.InputLabelSize += labelSize
	}
	// Bob's labels: one OT per bit.
	for i := 0; i < p.Width; i++ {
		wire := p.Width + i
		l0, err := g.InputLabel(wire, false)
		if err != nil {
			return false, st, err
		}
		l1, err := g.InputLabel(wire, true)
		if err != nil {
			return false, st, err
		}
		choice := int(bobKey >> i & 1)
		got, bytes, err := batch.Transfer(l0, l1, choice)
		if err != nil {
			return false, st, err
		}
		st.OTs++
		st.OTBytes += bytes
		inputs[wire] = got
	}
	out, err := Evaluate(g.GC, inputs)
	if err != nil {
		return false, st, err
	}
	return out[0], st, nil
}

// PrivateBandJoin is PrivateEqualityJoin's analogue for the paper's band
// predicate |a − b| ≤ band: one garbled BandCircuit per pair, labels via
// amortised OT. It demonstrates that the SMC baseline, like the coprocessor
// algorithms, handles arbitrary predicates — at the same crushing cost.
func PrivateBandJoin(width int, band uint64, aliceKeys, bobKeys []uint64) ([][2]int, JoinStats, error) {
	circ, err := BandCircuit(width, band)
	if err != nil {
		return nil, JoinStats{}, err
	}
	batch, err := NewOTBatch()
	if err != nil {
		return nil, JoinStats{}, err
	}
	p := PrivateEqualityJoin{Width: width}
	var stats JoinStats
	var pairs [][2]int
	for i, ak := range aliceKeys {
		for j, bk := range bobKeys {
			match, st, err := p.runPair(circ, batch, ak, bk)
			if err != nil {
				return nil, JoinStats{}, fmt.Errorf("smc: band pair (%d,%d): %w", i, j, err)
			}
			stats.Pairs++
			stats.OTs += st.OTs
			stats.GarbledBytes += st.GarbledBytes
			stats.OTBytes += st.OTBytes
			stats.InputLabelSize += st.InputLabelSize
			if match {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	stats.TotalBytes = int64(stats.GarbledBytes) + int64(stats.OTBytes) + int64(stats.InputLabelSize)
	return pairs, stats, nil
}
