package smc

import (
	"crypto/subtle"
	"math/big"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEqualityCircuitEval(t *testing.T) {
	c, err := EqualityCircuit(8)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		out, err := c.Eval(bits(uint64(a), 8), bits(uint64(b), 8))
		if err != nil {
			return false
		}
		return out[0] == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCircuitValidation(t *testing.T) {
	bad := &Circuit{GarblerBits: 1, EvaluatorBits: 1,
		Gates:   []Gate{{Op: AND, In0: 0, In1: 5, Out: 2}},
		Outputs: []int{2}}
	if err := bad.Validate(); err == nil {
		t.Error("undefined input wire accepted")
	}
	bad2 := &Circuit{GarblerBits: 1, EvaluatorBits: 1,
		Gates:   []Gate{{Op: AND, In0: 0, In1: 1, Out: 7}},
		Outputs: []int{7}}
	if err := bad2.Validate(); err == nil {
		t.Error("non-sequential output wire accepted")
	}
	if _, err := EqualityCircuit(0); err == nil {
		t.Error("zero width accepted")
	}
	noOut := &Circuit{GarblerBits: 1, EvaluatorBits: 1}
	if err := noOut.Validate(); err == nil {
		t.Error("no outputs accepted")
	}
}

func TestGarbledEvalMatchesPlain(t *testing.T) {
	// BandCircuit adds OR and XOR gates to the equality circuit's XNOR/AND.
	band := func(w int) (*Circuit, error) { return BandCircuit(w, 1) }
	for _, w := range []int{1, 4, 8} {
		for _, build := range []func(int) (*Circuit, error){EqualityCircuit, band} {
			c, err := build(w)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 8; trial++ {
				a := uint64(trial * 37 % (1 << w))
				b := uint64(trial * 11 % (1 << w))
				g, err := Garble(c)
				if err != nil {
					t.Fatal(err)
				}
				inputs := make([]Label, c.NumInputs())
				for i := 0; i < w; i++ {
					inputs[i], _ = g.InputLabel(i, a>>i&1 == 1)
					inputs[w+i], _ = g.InputLabel(w+i, b>>i&1 == 1)
				}
				got, err := Evaluate(g.GC, inputs)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := c.Eval(bits(a, w), bits(b, w))
				if got[0] != want[0] {
					t.Fatalf("w=%d a=%d b=%d: garbled %v, plain %v", w, a, b, got[0], want[0])
				}
			}
		}
	}
}

func TestGarblingFresh(t *testing.T) {
	c, _ := EqualityCircuit(2)
	g1, _ := Garble(c)
	g2, _ := Garble(c)
	if constantTimeLabelEqual(g1.Labels[0][0], g2.Labels[0][0]) {
		t.Fatal("two garblings share labels")
	}
}

func TestInputLabelValidation(t *testing.T) {
	c, _ := EqualityCircuit(2)
	g, _ := Garble(c)
	if _, err := g.InputLabel(99, false); err == nil {
		t.Fatal("non-input wire accepted")
	}
	if _, err := Evaluate(g.GC, make([]Label, 1)); err == nil {
		t.Fatal("wrong input count accepted")
	}
}

func TestOTRoundTrip(t *testing.T) {
	s := newSender(t)
	offer := s.Offer()
	m0, m1 := big.NewInt(111111), big.NewInt(222222)
	for _, b := range []int{0, 1} {
		r, err := NewOTReceiver(offer, b)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.Respond(r.Query(), m0, m1)
		if err != nil {
			t.Fatal(err)
		}
		got := r.Recover(resp)
		want := m0
		if b == 1 {
			want = m1
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("choice %d: got %v, want %v", b, got, want)
		}
	}
}

func TestOTHidesOtherMessage(t *testing.T) {
	// The receiver's recovery of the non-chosen message must be garbage
	// (not equal to it) except with negligible probability.
	s := newSender(t)
	r, err := NewOTReceiver(s.Offer(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m0, m1 := big.NewInt(111111), big.NewInt(222222)
	resp, err := s.Respond(r.Query(), m0, m1)
	if err != nil {
		t.Fatal(err)
	}
	// Apply the receiver's unblinding to the wrong slot.
	wrong := new(big.Int).Mod(new(big.Int).Sub(resp.M1, r.k), s.Offer().N)
	if wrong.Cmp(m1) == 0 {
		t.Fatal("receiver recovered the non-chosen message")
	}
}

func TestOTValidation(t *testing.T) {
	s := newSender(t)
	if _, err := NewOTReceiver(s.Offer(), 2); err == nil {
		t.Error("bad choice bit accepted")
	}
	big0 := new(big.Int).Add(s.Offer().N, big.NewInt(1))
	if _, err := s.Respond(big.NewInt(1), big0, big.NewInt(1)); err == nil {
		t.Error("oversized message accepted")
	}
}

func TestPrivateEqualityJoin(t *testing.T) {
	alice := []uint64{3, 7, 7, 12}
	bob := []uint64{7, 9, 3}
	pairs, stats, err := PrivateEqualityJoin{Width: 8}.Run(alice, bob)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 2}, {1, 0}, {2, 0}}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("pairs = %v, want %v", pairs, want)
	}
	if stats.Pairs != 12 || stats.OTs != 12*8 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.TotalBytes <= 0 {
		t.Fatal("no communication accounted")
	}
	// The headline point: even this toy join moves hundreds of kilobytes
	// for a 4x3 input — the coprocessor moves dozens of tuples.
	if stats.TotalBytes < 10_000 {
		t.Fatalf("SMC communication suspiciously low: %d bytes", stats.TotalBytes)
	}
}

func TestPrivateEqualityJoinValidation(t *testing.T) {
	if _, _, err := (PrivateEqualityJoin{Width: 0}).Run(nil, nil); err == nil {
		t.Error("zero width accepted")
	}
	if _, _, err := (PrivateEqualityJoin{Width: 65}).Run(nil, nil); err == nil {
		t.Error("width > 64 accepted")
	}
}

// newSender starts one transfer under a fresh batch key.
func newSender(t *testing.T) *OTSender {
	t.Helper()
	b, err := NewOTBatch()
	if err != nil {
		t.Fatal(err)
	}
	s, err := b.sender()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// constantTimeLabelEqual compares labels without branching on secret data.
func constantTimeLabelEqual(a, b Label) bool {
	return subtle.ConstantTimeCompare(a[:], b[:]) == 1
}

// bits converts v to a little-endian bit slice of width w.
func bits(v uint64, w int) []bool {
	out := make([]bool, w)
	for i := range out {
		out[i] = v>>i&1 == 1
	}
	return out
}
