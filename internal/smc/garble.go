package smc

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// labelSize is the wire-label length in bytes (128-bit labels).
const labelSize = 16

// Label is a wire label: a random key standing for one bit value of one
// wire, carrying a point-and-permute select bit in its lowest bit of the
// last byte.
type Label [labelSize]byte

func (l Label) selectBit() int { return int(l[labelSize-1] & 1) }

// GarbledGate is the 4-row encrypted truth table of one gate, ordered by
// the select bits of the input labels (point-and-permute).
type GarbledGate [4][labelSize]byte

// GarbledCircuit is what the garbler sends the evaluator: the encrypted
// tables plus the decoding of the output wires' select bits.
type GarbledCircuit struct {
	Circuit *Circuit
	Gates   []GarbledGate
	// OutputDecode[i] is the select bit that means "false" on output wire i.
	OutputDecode []int
}

// Garbling is the garbler's private state: every wire's pair of labels.
type Garbling struct {
	Circuit *Circuit
	// Labels[w][b] is wire w's label for bit value b.
	Labels [][2]Label
	GC     *GarbledCircuit
}

// Size returns the transfer size of the garbled tables in bytes, used by
// the cost comparison.
func (gc *GarbledCircuit) Size() int {
	return len(gc.Gates) * 4 * labelSize
}

// Garble produces a fresh garbling of the circuit.
func Garble(c *Circuit) (*Garbling, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	labels := make([][2]Label, c.NumWires())
	for w := range labels {
		if _, err := rand.Read(labels[w][0][:]); err != nil {
			return nil, fmt.Errorf("smc: garbling randomness: %w", err)
		}
		if _, err := rand.Read(labels[w][1][:]); err != nil {
			return nil, fmt.Errorf("smc: garbling randomness: %w", err)
		}
		// Force complementary select bits so point-and-permute works.
		labels[w][1][labelSize-1] = labels[w][0][labelSize-1] ^ 1
	}
	gc := &GarbledCircuit{Circuit: c, Gates: make([]GarbledGate, len(c.Gates))}
	for gi, g := range c.Gates {
		tab, err := g.Op.table()
		if err != nil {
			return nil, err
		}
		for va := 0; va < 2; va++ {
			for vb := 0; vb < 2; vb++ {
				la := labels[g.In0][va]
				lb := labels[g.In1][vb]
				outBit := 0
				if tab[va<<1|vb] {
					outBit = 1
				}
				row := la.selectBit()<<1 | lb.selectBit()
				pad := gateKDF(la, lb, gi)
				var ct [labelSize]byte
				lout := labels[g.Out][outBit]
				for k := 0; k < labelSize; k++ {
					ct[k] = lout[k] ^ pad[k]
				}
				gc.Gates[gi][row] = ct
			}
		}
	}
	gc.OutputDecode = make([]int, len(c.Outputs))
	for i, o := range c.Outputs {
		gc.OutputDecode[i] = labels[o][0].selectBit()
	}
	return &Garbling{Circuit: c, Labels: labels, GC: gc}, nil
}

// InputLabel returns the label encoding bit value v on input wire w, the
// garbler's side of input delivery (its own inputs directly; the
// evaluator's via oblivious transfer).
func (g *Garbling) InputLabel(wire int, v bool) (Label, error) {
	if wire < 0 || wire >= g.Circuit.NumInputs() {
		return Label{}, fmt.Errorf("smc: wire %d is not an input", wire)
	}
	b := 0
	if v {
		b = 1
	}
	return g.Labels[wire][b], nil
}

// Evaluate runs the garbled circuit on one label per input wire and decodes
// the output bits. The evaluator learns nothing about non-output wire
// values: it sees exactly one label per wire and the tables are encrypted
// under label pairs it does not hold.
func Evaluate(gc *GarbledCircuit, inputs []Label) ([]bool, error) {
	c := gc.Circuit
	if len(inputs) != c.NumInputs() {
		return nil, fmt.Errorf("smc: got %d input labels, want %d", len(inputs), c.NumInputs())
	}
	wires := make([]Label, c.NumWires())
	copy(wires, inputs)
	for gi, g := range c.Gates {
		la, lb := wires[g.In0], wires[g.In1]
		row := la.selectBit()<<1 | lb.selectBit()
		pad := gateKDF(la, lb, gi)
		var out Label
		ct := gc.Gates[gi][row]
		for k := 0; k < labelSize; k++ {
			out[k] = ct[k] ^ pad[k]
		}
		wires[g.Out] = out
	}
	outs := make([]bool, len(c.Outputs))
	for i, o := range c.Outputs {
		outs[i] = wires[o].selectBit() != gc.OutputDecode[i]
	}
	return outs, nil
}

// gateKDF derives the row pad H(la ‖ lb ‖ gate) for garbling and evaluation.
func gateKDF(la, lb Label, gate int) [labelSize]byte {
	h := sha256.New()
	h.Write(la[:])
	h.Write(lb[:])
	var gid [8]byte
	binary.BigEndian.PutUint64(gid[:], uint64(gate))
	h.Write(gid[:])
	var out [labelSize]byte
	copy(out[:], h.Sum(nil))
	return out
}
