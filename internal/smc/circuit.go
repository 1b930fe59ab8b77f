// Package smc implements the secure multi-party computation baseline the
// paper compares against (§2.1, §4.6.5, §5.4): a working two-party Yao
// garbled-circuit evaluator with RSA-based 1-out-of-2 oblivious transfer,
// plus a private equality-join protocol built on them.
//
// The thesis evaluates SMC analytically (Eqn 5.8, reproduced in
// internal/costmodel); this package additionally makes the baseline
// executable at toy scale, so the benchmarks can demonstrate — not just
// assert — that general SMC is orders of magnitude more expensive than the
// coprocessor algorithms: an SMC join evaluates one garbled circuit per
// tuple pair and runs w oblivious transfers per pair, each costing public
// key operations and kilobytes of transfer, versus a handful of AES
// operations per pair inside the coprocessor.
package smc

import (
	"errors"
	"fmt"
)

// GateOp distinguishes the supported gate kinds. Arbitrary two-input gates
// are encoded by their truth table, which is what the garbler consumes.
type GateOp uint8

const (
	// AND outputs a ∧ b.
	AND GateOp = iota
	// XOR outputs a ⊕ b.
	XOR
	// OR outputs a ∨ b.
	OR
	// XNOR outputs ¬(a ⊕ b) — the bit-equality gate.
	XNOR
)

// table returns the gate's truth table indexed by a<<1|b.
func (op GateOp) table() ([4]bool, error) {
	switch op {
	case AND:
		return [4]bool{false, false, false, true}, nil
	case XOR:
		return [4]bool{false, true, true, false}, nil
	case OR:
		return [4]bool{false, true, true, true}, nil
	case XNOR:
		return [4]bool{true, false, false, true}, nil
	default:
		return [4]bool{}, fmt.Errorf("smc: unknown gate op %d", op)
	}
}

// Gate is a two-input boolean gate: Out = op(In0, In1). Wire indices below
// NumInputs refer to input wires; others to gate outputs.
type Gate struct {
	Op       GateOp
	In0, In1 int
	Out      int
}

// Circuit is a boolean circuit over single-bit wires. Wires
// [0, GarblerBits) belong to the garbler's input, wires
// [GarblerBits, GarblerBits+EvaluatorBits) to the evaluator's; gates are in
// topological order and outputs name the result wires.
type Circuit struct {
	GarblerBits   int
	EvaluatorBits int
	Gates         []Gate
	Outputs       []int
	numWires      int
}

// NumInputs is the total number of input wires.
func (c *Circuit) NumInputs() int { return c.GarblerBits + c.EvaluatorBits }

// NumWires is the total number of wires (inputs + gate outputs).
func (c *Circuit) NumWires() int { return c.numWires }

// Validate checks topological ordering and wire ranges, computing NumWires.
func (c *Circuit) Validate() error {
	if c.GarblerBits < 0 || c.EvaluatorBits < 0 || c.NumInputs() == 0 {
		return errors.New("smc: circuit needs input wires")
	}
	defined := c.NumInputs()
	for gi, g := range c.Gates {
		if g.In0 >= defined || g.In1 >= defined || g.In0 < 0 || g.In1 < 0 {
			return fmt.Errorf("smc: gate %d reads undefined wire", gi)
		}
		if g.Out != defined {
			return fmt.Errorf("smc: gate %d must define wire %d, defines %d", gi, defined, g.Out)
		}
		if _, err := g.Op.table(); err != nil {
			return err
		}
		defined++
	}
	for _, o := range c.Outputs {
		if o < 0 || o >= defined {
			return fmt.Errorf("smc: output wire %d undefined", o)
		}
	}
	if len(c.Outputs) == 0 {
		return errors.New("smc: circuit needs outputs")
	}
	c.numWires = defined
	return nil
}

// Eval computes the circuit in the clear (the correctness oracle for the
// garbled evaluation). garbler and evaluator are little-endian bit slices.
func (c *Circuit) Eval(garbler, evaluator []bool) ([]bool, error) {
	if len(garbler) != c.GarblerBits || len(evaluator) != c.EvaluatorBits {
		return nil, fmt.Errorf("smc: input sizes %d/%d, want %d/%d",
			len(garbler), len(evaluator), c.GarblerBits, c.EvaluatorBits)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	wires := make([]bool, c.numWires)
	copy(wires, garbler)
	copy(wires[c.GarblerBits:], evaluator)
	for _, g := range c.Gates {
		tab, _ := g.Op.table()
		idx := 0
		if wires[g.In0] {
			idx |= 2
		}
		if wires[g.In1] {
			idx |= 1
		}
		wires[g.Out] = tab[idx]
	}
	out := make([]bool, len(c.Outputs))
	for i, o := range c.Outputs {
		out[i] = wires[o]
	}
	return out, nil
}

// EqualityCircuit builds the w-bit equality comparator: XNOR each bit pair,
// AND-reduce. Gate count 2w−1, matching the Ge(w) = Θ(w) gate-count
// assumption of §4.6.5.
func EqualityCircuit(w int) (*Circuit, error) {
	if w <= 0 {
		return nil, errors.New("smc: width must be positive")
	}
	c := &Circuit{GarblerBits: w, EvaluatorBits: w}
	next := 2 * w
	var xnors []int
	for i := 0; i < w; i++ {
		c.Gates = append(c.Gates, Gate{Op: XNOR, In0: i, In1: w + i, Out: next})
		xnors = append(xnors, next)
		next++
	}
	acc := xnors[0]
	for i := 1; i < w; i++ {
		c.Gates = append(c.Gates, Gate{Op: AND, In0: acc, In1: xnors[i], Out: next})
		acc = next
		next++
	}
	c.Outputs = []int{acc}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
