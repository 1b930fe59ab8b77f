// Package mlfsr implements maximal-length linear feedback shift registers
// and the index-permutation generator built on them (paper §5.2.3):
// Algorithm 6 must visit every iTuple of the cartesian product exactly once
// in a pseudo-random order without materialising a permutation of up to
// millions of indices. An l-bit maximal LFSR cycles through every value in
// {1, …, 2^l − 1} exactly once per period; values outside the target index
// set are simply discarded.
package mlfsr

import (
	"errors"
	"fmt"
	"math/bits"
)

// taps[l] is a tap mask producing a maximal-length sequence for an l-bit
// Fibonacci LFSR (primitive polynomials over GF(2), taken from the standard
// Xilinx/Alfke table). Entry l has its bits numbered 1..l; bit k set means
// stage k feeds the XOR.
var taps = map[uint]uint64{
	2:  (1 << 1) | (1 << 0),                       // x^2 + x + 1
	3:  (1 << 2) | (1 << 1),                       // x^3 + x^2 + 1
	4:  (1 << 3) | (1 << 2),                       // x^4 + x^3 + 1
	5:  (1 << 4) | (1 << 2),                       // x^5 + x^3 + 1
	6:  (1 << 5) | (1 << 4),                       // x^6 + x^5 + 1
	7:  (1 << 6) | (1 << 5),                       // x^7 + x^6 + 1
	8:  (1 << 7) | (1 << 5) | (1 << 4) | (1 << 3), // x^8 + x^6 + x^5 + x^4 + 1
	9:  (1 << 8) | (1 << 4),
	10: (1 << 9) | (1 << 6),
	11: (1 << 10) | (1 << 8),
	12: (1 << 11) | (1 << 5) | (1 << 3) | (1 << 0),
	13: (1 << 12) | (1 << 3) | (1 << 2) | (1 << 0),
	14: (1 << 13) | (1 << 4) | (1 << 2) | (1 << 0),
	15: (1 << 14) | (1 << 13),
	16: (1 << 15) | (1 << 14) | (1 << 12) | (1 << 3),
	17: (1 << 16) | (1 << 13),
	18: (1 << 17) | (1 << 10),
	19: (1 << 18) | (1 << 5) | (1 << 1) | (1 << 0),
	20: (1 << 19) | (1 << 16),
	21: (1 << 20) | (1 << 18),
	22: (1 << 21) | (1 << 20),
	23: (1 << 22) | (1 << 17),
	24: (1 << 23) | (1 << 22) | (1 << 21) | (1 << 16),
	25: (1 << 24) | (1 << 21),
	26: (1 << 25) | (1 << 5) | (1 << 1) | (1 << 0),
	27: (1 << 26) | (1 << 4) | (1 << 1) | (1 << 0),
	28: (1 << 27) | (1 << 24),
	29: (1 << 28) | (1 << 26),
	30: (1 << 29) | (1 << 5) | (1 << 3) | (1 << 0),
	31: (1 << 30) | (1 << 27),
	32: (1 << 31) | (1 << 21) | (1 << 1) | (1 << 0),
	33: (1 << 32) | (1 << 19),
	34: (1 << 33) | (1 << 26) | (1 << 1) | (1 << 0),
	35: (1 << 34) | (1 << 32),
	36: (1 << 35) | (1 << 24),
	37: (1 << 36) | (1 << 4) | (1 << 3) | (1 << 2) | (1 << 1) | (1 << 0),
	38: (1 << 37) | (1 << 5) | (1 << 4) | (1 << 0),
	39: (1 << 38) | (1 << 34),
	40: (1 << 39) | (1 << 37) | (1 << 20) | (1 << 18),
}

// MaxBits is the largest supported register width.
const MaxBits = 40

// LFSR is a Fibonacci-configuration maximal-length linear feedback shift
// register over l bits. Its Next method emits each value of
// {1, …, 2^l − 1} exactly once per period.
type LFSR struct {
	state uint64
	mask  uint64
	tap   uint64
	bitsN uint
}

// New constructs an l-bit maximal LFSR seeded with seed. The seed is reduced
// into {1, …, 2^l − 1}; an all-zero reduction is replaced with 1 (zero is
// the lone fixed point of an LFSR and must be avoided).
func New(l uint, seed uint64) (*LFSR, error) {
	tap, ok := taps[l]
	if !ok {
		return nil, fmt.Errorf("mlfsr: unsupported register width %d (need 2..%d)", l, MaxBits)
	}
	mask := uint64(1)<<l - 1
	s := seed & mask
	if s == 0 {
		s = 1
	}
	return &LFSR{state: s, mask: mask, tap: tap, bitsN: l}, nil
}

// Bits returns the register width.
func (r *LFSR) Bits() uint { return r.bitsN }

// Period returns 2^l − 1, the number of distinct outputs per cycle.
func (r *LFSR) Period() uint64 { return r.mask }

// Next advances the register one step and returns the new state, a value in
// {1, …, 2^l − 1}. The register is a Fibonacci left-shift LFSR: the new low
// bit is the parity of the tapped stages, realising the recurrence of the
// primitive polynomial the tap mask encodes.
func (r *LFSR) Next() uint64 {
	fb := uint64(bits.OnesCount64(r.state&r.tap) & 1)
	r.state = (r.state<<1 | fb) & r.mask
	return r.state
}

// Permutation iterates a pseudo-random permutation of {0, …, n−1} using the
// smallest maximal LFSR whose period covers n; out-of-range register states
// are skipped (§5.2.3: "A generated number that is outside I is simply
// discarded"). The traversal visits every index exactly once.
type Permutation struct {
	lfsr    *LFSR
	n       uint64
	count   uint64
	first   uint64
	started bool
}

// NewPermutation builds a permutation of {0, …, n−1} deterministically from
// seed. All coprocessors seeding with the same value generate the same order
// (§5.3.5 parallelism).
func NewPermutation(n uint64, seed uint64) (*Permutation, error) {
	if n == 0 {
		return nil, errors.New("mlfsr: empty index set")
	}
	if n == 1 {
		return &Permutation{n: 1}, nil
	}
	l := uint(bits.Len64(n)) // smallest l with 2^l - 1 >= n, see below
	if uint64(1)<<l-1 < n {
		l++
	}
	if l < 2 {
		l = 2
	}
	r, err := New(l, seed)
	if err != nil {
		return nil, err
	}
	return &Permutation{lfsr: r, n: n, first: r.state}, nil
}

// Next returns the next index of the permutation and true, or 0 and false
// once all n indices have been emitted. The register states s₀ (the seed),
// s₁, s₂, … map to indices s−1; out-of-range states are skipped.
func (p *Permutation) Next() (uint64, bool) {
	if p.count >= p.n {
		return 0, false
	}
	if p.lfsr == nil { // n == 1
		p.count++
		return 0, true
	}
	for {
		var v uint64
		if !p.started {
			v = p.first
			p.started = true
		} else {
			v = p.lfsr.Next()
			if v == p.first {
				// Full period traversed: for a maximal sequence this only
				// happens after all n indices were emitted, but guard
				// against silent livelock with a non-maximal tap table bug.
				return 0, false
			}
		}
		if v-1 < p.n {
			p.count++
			return v - 1, true
		}
	}
}
