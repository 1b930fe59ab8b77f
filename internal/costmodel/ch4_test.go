package costmodel

import (
	"math"
	"testing"
)

func TestGamma(t *testing.T) {
	cases := []struct{ n, m, want int64 }{
		{0, 10, 1}, {1, 10, 1}, {10, 10, 1}, {11, 10, 2}, {100, 10, 10}, {101, 10, 11},
	}
	for _, tc := range cases {
		if got := Gamma(tc.n, tc.m); got != tc.want {
			t.Errorf("Gamma(%d,%d) = %d, want %d", tc.n, tc.m, got, tc.want)
		}
	}
}

func TestAlg1CostSpotValue(t *testing.T) {
	// |A|=|B|=100, N=4: 100 + 2·4·100 + 2·100·100 + 2·100·100·(log₂8)²
	want := 100.0 + 800 + 20000 + 20000*9
	if got := Alg1Cost(100, 100, 4); math.Abs(got-want) > 1e-6 {
		t.Fatalf("Alg1Cost = %g, want %g", got, want)
	}
}

func TestAlg2CostSpotValue(t *testing.T) {
	// |A|=10, |B|=20, N=8, M=3 -> γ=3: 10 + 80 + 3·200 = 690
	if got := Alg2Cost(10, 20, 8, 3); got != 690 {
		t.Fatalf("Alg2Cost = %g, want 690", got)
	}
}

func TestAlg3CostSpotValue(t *testing.T) {
	// |A|=10, |B|=16, N=2: 10 + 20 + 16·16 + 3·160 = 766; presorted drops 256.
	if got := Alg3Cost(10, 16, 2, false); got != 766 {
		t.Fatalf("Alg3Cost = %g, want 766", got)
	}
	if got := Alg3Cost(10, 16, 2, true); got != 510 {
		t.Fatalf("Alg3Cost presorted = %g, want 510", got)
	}
}

func TestAlg1VariantDominatedForSmallAlpha(t *testing.T) {
	// §4.4.2: Algorithm 1 outperforms the variant for small α = N/|B|.
	b := int64(10000)
	n := int64(10) // α = 0.001
	if Alg1Cost(b, b, n) >= Alg1VariantCost(b, b) {
		t.Fatal("Algorithm 1 should beat its variant at small α")
	}
}

func TestGamma1Alg2Dominates(t *testing.T) {
	// §4.6.1: when γ = 1, Algorithm 2 dominates both others, even comparing
	// Algorithm 2 at α=1 against the others at α=1/|B|.
	for _, b := range []int64{1000, 10000, 100000} {
		alphaMin := 1 / float64(b)
		c1, _, c3 := Ch4Costs(b, alphaMin, 1)
		_, c2worst, _ := Ch4Costs(b, 1.0, 1)
		if c2worst >= c1 || c2worst >= c3 {
			t.Fatalf("|B|=%d: Alg2 (%.3g) should dominate Alg1 (%.3g) and Alg3 (%.3g) at γ=1",
				b, c2worst, c1, c3)
		}
	}
}

func TestGeneralJoinCrossover(t *testing.T) {
	// §4.6.2: at α = 1/|B|, Algorithm 1 outperforms Algorithm 2 exactly when
	// γ > 2 + α + 2(log₂ 2α|B|)² = 2 + 1/|B| + 2 (since log₂2 = 1).
	b := int64(10000)
	alpha := 1 / float64(b)
	threshold := 2 + alpha + 2*sq(log2(2*alpha*float64(b)))
	gLow := int64(math.Floor(threshold)) // γ = 4: below or at threshold
	gHigh := gLow + 1                    // γ = 5: above
	c1, c2low, _ := Ch4Costs(b, alpha, gLow)
	_, c2high, _ := Ch4Costs(b, alpha, gHigh)
	if c1 >= c2high {
		t.Fatalf("Alg1 (%.4g) should beat Alg2 (%.4g) at γ=%d", c1, c2high, gHigh)
	}
	if c1 <= c2low {
		t.Fatalf("Alg2 (%.4g) should beat Alg1 (%.4g) at γ=%d", c2low, c1, gLow)
	}
}

func TestEquijoinAlg3BeatsAlg1(t *testing.T) {
	// §4.6.3: Algorithm 3 outperforms Algorithm 1 for any α and |B|.
	for _, b := range []int64{100, 1000, 100000} {
		for _, alpha := range []float64{1 / float64(b), 0.01, 0.5, 1} {
			c1, _, c3 := Ch4Costs(b, alpha, 10)
			if c3 >= c1 {
				t.Errorf("|B|=%d α=%g: Alg3 (%.4g) should beat Alg1 (%.4g)", b, alpha, c3, c1)
			}
		}
	}
}

func TestEquijoinAlg2Alg3Crossover(t *testing.T) {
	// §4.6.3: γ ≤ 3 -> Alg2 wins regardless of |B|; γ ≥ 4 -> Alg3 wins for
	// |B| ≥ 1 (comparing 3|B|² + |B|(log|B|)² with γ|B|²).
	for _, b := range []int64{100, 10000, 1000000} {
		alpha := 0.001
		_, c2, c3 := Ch4Costs(b, alpha, 3)
		if c2 >= c3 {
			t.Errorf("|B|=%d γ=3: Alg2 (%.4g) should beat Alg3 (%.4g)", b, c2, c3)
		}
	}
	// γ ≥ 4 with |B| large enough that (log|B|)² < |B|.
	for _, b := range []int64{1000, 100000} {
		alpha := 0.001
		_, c2, c3 := Ch4Costs(b, alpha, 4)
		if c3 >= c2 {
			t.Errorf("|B|=%d γ=4: Alg3 (%.4g) should beat Alg2 (%.4g)", b, c3, c2)
		}
	}
}

func TestWinner(t *testing.T) {
	// Figure 4.1 qualitative regions.
	if w := Winner(10000, 0.0001, 1, false); w != "Alg2" {
		t.Errorf("γ=1 winner = %s, want Alg2", w)
	}
	if w := Winner(10000, 0.0001, 1, true); w != "Alg2" {
		t.Errorf("γ=1 equijoin winner = %s, want Alg2", w)
	}
	if w := Winner(10000, 0.0001, 50, false); w != "Alg1" {
		t.Errorf("γ=50 general winner = %s, want Alg1", w)
	}
	if w := Winner(10000, 0.0001, 50, true); w != "Alg3" {
		t.Errorf("γ=50 equijoin winner = %s, want Alg3", w)
	}
}

func TestSFEOrdersOfMagnitudeSlower(t *testing.T) {
	// §4.6.5: "For low values of α, it can be seen that SFE can be orders of
	// magnitude slower."
	p := DefaultSFEParams()
	b := int64(10000)
	w := int64(64)
	n := int64(10) // low α
	sfe := SFECostBits(p, b, n, w)
	alg1 := Alg1CostBits(b, b, n, w)
	if sfe < 100*alg1 {
		t.Fatalf("SFE (%.3g bits) should be >=100x Algorithm 1 (%.3g bits)", sfe, alg1)
	}
}

func TestSFECostSpotValue(t *testing.T) {
	p := DefaultSFEParams()
	b, n, w := int64(100), int64(5), int64(8)
	want := 8*50*64*float64(b*b)*16 + 32*50*100*float64(b*w) + 2*50*50*float64(n)*100*float64(b*w)
	if got := SFECostBits(p, b, n, w); math.Abs(got-want) > 1 {
		t.Fatalf("SFECostBits = %g, want %g", got, want)
	}
}

// TestBitonicComparators pins the thesis network's exact count at the sizes
// DESIGN.md and EXPERIMENTS.md quote, and its ¼·m·(log₂ m)² approximation
// from below.
func TestBitonicComparators(t *testing.T) {
	for m, want := range map[int64]int64{1: 0, 2: 1, 4: 6, 1024: 28160, 2048: 67584} {
		if got := BitonicComparators(m); got != want {
			t.Errorf("BitonicComparators(%d) = %d, want %d", m, got, want)
		}
	}
	for m := int64(2); m <= 1<<20; m *= 2 {
		if approx := float64(m) * sq(log2(float64(m))) / 4; float64(BitonicComparators(m)) < approx {
			t.Errorf("m=%d: exact %d below the paper's approximation %.0f", m, BitonicComparators(m), approx)
		}
	}
}
