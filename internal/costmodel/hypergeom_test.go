package costmodel

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

// exactHyperTail computes P[x > m] with big rationals for cross-validation.
func exactHyperTail(l, s, n, m int64) float64 {
	choose := func(a, b int64) *big.Rat {
		if b < 0 || b > a {
			return new(big.Rat)
		}
		return new(big.Rat).SetInt(new(big.Int).Binomial(a, b))
	}
	total := choose(l, n)
	sum := new(big.Rat)
	hi := n
	if s < hi {
		hi = s
	}
	for k := m + 1; k <= hi; k++ {
		term := new(big.Rat).Mul(choose(s, k), choose(l-s, n-k))
		sum.Add(sum, term)
	}
	if total.Sign() == 0 {
		return 0
	}
	sum.Quo(sum, total)
	f, _ := sum.Float64()
	return f
}

// logHyperPMF returns ln P[x(n) = k] for the hypergeometric distribution
// with population L, S successes, and n draws.
func logHyperPMF(l, s, n, k int64) float64 {
	return logChoose(s, k) + logChoose(l-s, n-k) - logChoose(l, n)
}

func TestLogHyperPMFSumsToOne(t *testing.T) {
	for _, tc := range []struct{ l, s, n int64 }{
		{20, 5, 7}, {50, 10, 20}, {100, 3, 99}, {10, 10, 5},
	} {
		var sum float64
		for k := int64(0); k <= tc.n; k++ {
			sum += math.Exp(logHyperPMF(tc.l, tc.s, tc.n, k))
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("L=%d S=%d n=%d: PMF sums to %g", tc.l, tc.s, tc.n, sum)
		}
	}
}

func TestTailProbMatchesExact(t *testing.T) {
	for _, tc := range []struct{ l, s, n, m int64 }{
		{100, 20, 30, 5}, {100, 20, 30, 0}, {100, 20, 30, 19},
		{1000, 50, 100, 10}, {64, 8, 8, 2},
		// Long tails the sum cuts short past the mode (about 100 here),
		// from below the mode and from past it.
		{5000, 500, 1000, 50}, {5000, 500, 1000, 150},
	} {
		got := TailProbGreater(tc.l, tc.s, tc.n, tc.m)
		want := exactHyperTail(tc.l, tc.s, tc.n, tc.m)
		rel := math.Abs(got - want)
		if want != 0 {
			rel /= want
		}
		if rel > 1e-8 {
			t.Errorf("Tail(L=%d,S=%d,n=%d,m=%d) = %g, want %g", tc.l, tc.s, tc.n, tc.m, got, want)
		}
	}
}

func TestTailProbZeroCases(t *testing.T) {
	// x(n) <= min(n, S): tails past the support are exactly zero.
	if TailProbGreater(100, 5, 50, 5) != 0 {
		t.Error("tail beyond S not zero")
	}
	if TailProbGreater(100, 50, 5, 5) != 0 {
		t.Error("tail beyond n not zero")
	}
}

func TestTailProbMonotoneInN(t *testing.T) {
	// More draws -> stochastically more successes.
	prev := 0.0
	for n := int64(10); n <= 200; n += 10 {
		p := TailProbGreater(1000, 100, n, 5)
		if p+1e-15 < prev {
			t.Fatalf("tail decreased at n=%d: %g < %g", n, p, prev)
		}
		prev = p
	}
}

func TestBlemishBoundEdges(t *testing.T) {
	if BlemishBound(1000, 100, 10, 0) != 1 {
		t.Error("n=0 should return 1")
	}
	if got := BlemishBound(1000, 5, 10, 500); got != 0 {
		t.Errorf("S<=M should give 0, got %g", got)
	}
	if got := BlemishBound(10, 10, 1, 10); got != 1 {
		t.Errorf("certain blemish should clamp to 1, got %g", got)
	}
}

func TestOptimalSegmentProperties(t *testing.T) {
	l, s, m := int64(640000), int64(6400), int64(64)
	for _, eps := range []float64{1e-60, 1e-20, 1e-10, 1e-5} {
		n := OptimalSegment(l, s, m, eps)
		if n < m || n > l {
			t.Fatalf("eps=%g: n*=%d out of range", eps, n)
		}
		if p := BlemishBound(l, s, m, n); p > eps {
			t.Fatalf("eps=%g: P_M(n*=%d) = %g > eps", eps, n, p)
		}
		if n < l {
			if p := BlemishBound(l, s, m, n+1); p <= eps {
				t.Fatalf("eps=%g: n*=%d not maximal (n*+1 also satisfies)", eps, n)
			}
		}
	}
}

func TestOptimalSegmentMonotoneInEps(t *testing.T) {
	l, s, m := int64(640000), int64(6400), int64(64)
	prev := int64(0)
	for _, eps := range []float64{1e-60, 1e-40, 1e-20, 1e-10, 1e-5} {
		n := OptimalSegment(l, s, m, eps)
		if n < prev {
			t.Fatalf("n* not monotone in eps: %d after %d", n, prev)
		}
		prev = n
	}
}

func TestOptimalSegmentSpecialCases(t *testing.T) {
	// S <= M: no segment can blemish, n* = L.
	if n := OptimalSegment(1000, 10, 64, 0); n != 1000 {
		t.Errorf("S<=M: n* = %d, want L", n)
	}
	// eps = 0, S > M: only n <= M has provably zero blemish.
	if n := OptimalSegment(1000, 100, 8, 0); n != 8 {
		t.Errorf("eps=0: n* = %d, want M", n)
	}
	if n := OptimalSegment(0, 0, 4, 0.5); n != 0 {
		t.Errorf("L=0: n* = %d, want 0", n)
	}
}

func TestOptimalSegmentSetting1Calibration(t *testing.T) {
	// Regression pin for the Figure 5.2/5.4 regeneration: setting 1 at
	// eps=1e-20 yields n* ~ 1.4k (computed value 1414).
	n := OptimalSegment(640000, 6400, 64, 1e-20)
	if n < 1200 || n > 1700 {
		t.Fatalf("setting-1 n* = %d, outside expected band [1200,1700]", n)
	}
}

func TestBlemishBoundProperty(t *testing.T) {
	f := func(lRaw, sRaw, mRaw, nRaw uint16) bool {
		l := int64(lRaw)%500 + 2
		s := int64(sRaw) % l
		m := int64(mRaw)%20 + 1
		n := int64(nRaw)%l + 1
		p := BlemishBound(l, s, m, n)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
