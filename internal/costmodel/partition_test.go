package costmodel

import "testing"

func TestSelectPartitionCase1(t *testing.T) {
	// N > F: one A tuple, F split between B and joined tuples.
	p := SelectPartition(100, 10, 0)
	if p.FA != 1 {
		t.Fatalf("case 1 should hold one A tuple, got %d", p.FA)
	}
	if p.Gamma != 10 { // ceil(100/10)
		t.Fatalf("gamma = %d, want 10", p.Gamma)
	}
	if p.Blk != 10 { // ceil(100/10)
		t.Fatalf("blk = %d, want 10", p.Blk)
	}
	if p.FJ != p.Blk {
		t.Fatalf("F_j = %d, want blk", p.FJ)
	}
	if p.FA+p.FB+p.FJ > 10+1 {
		t.Fatalf("partition exceeds F: %+v", p)
	}
}

func TestSelectPartitionCase2(t *testing.T) {
	// N <= F: Q outer tuples with all their matches resident.
	p := SelectPartition(3, 20, 1)
	f := int64(20 + 1 - 1)
	q := f / 4 // Q(1+N) <= F with N=3
	if p.FA != q {
		t.Fatalf("F_a = %d, want Q = %d", p.FA, q)
	}
	if p.FJ != q*3 {
		t.Fatalf("F_j = %d, want QN = %d", p.FJ, q*3)
	}
	if p.Gamma != 1 {
		t.Fatalf("case 2 should scan B once, gamma = %d", p.Gamma)
	}
	if p.FA+p.FB+p.FJ != f {
		t.Fatalf("partition does not exhaust F: %+v", p)
	}
}

func TestSelectPartitionDegenerate(t *testing.T) {
	if p := SelectPartition(5, 0, 0); p.FA != 0 || p.Gamma != 0 {
		t.Fatalf("no-memory partition = %+v", p)
	}
}

func TestBlockingNeverHelps(t *testing.T) {
	// §4.4.3: "blocking A is computationally more expensive than the
	// non-blocking case" — exhaustively over feasible (K, N').
	cases := []struct{ a, b, n, m int64 }{
		{100, 100, 16, 4},
		{50, 200, 8, 4},
		{64, 64, 32, 8},
	}
	for _, tc := range cases {
		best, holds := BlockingNeverHelps(tc.a, tc.b, tc.n, tc.m, 0)
		if !holds {
			t.Errorf("blocking beat Algorithm 2 for %+v (best blocked %.0f, alg2 %.0f)",
				tc, best, Alg2Cost(tc.a, tc.b, tc.n, tc.m))
		}
	}
}

// TestBlockingHelpsInChapter5 is the contrast to TestBlockingNeverHelps.
// §4.4.3's argument rests on Def. 1's N result slots per A tuple: K rows of
// A cost K·(1+N) cells of M, so the passes over B grow as fast as the
// blocks shrink them. Under Def. 3 Algorithm 5's result slots are shared
// across all of D, so K rows of X₁ cost K cells (K−1 beyond the constant
// iTuple allocation): a scan reads B once per block instead of once per A
// row, ⌈|A|/K⌉·|B| gets instead of |A|·|B|, while the scans only rise from
// ⌈S/M⌉ to ⌈S/(M−K+1)⌉. On the same shapes and memories where blocking A
// never helps Algorithm 2, K = ⌊M/2⌋ cuts Algorithm 5's gets.
func TestBlockingHelpsInChapter5(t *testing.T) {
	// scanGets is Algorithm 5's gets over |A|×|B| in blocks of k rows of A
	// (k < |A|), the measured analogue of Eqn 5.3 that core pins.
	scanGets := func(a, b, s, m, k int64) int64 {
		scans := max((s+m-k)/(m-k+1), 1)
		return scans * (a + (a+k-1)/k*b)
	}
	for _, tc := range []struct{ a, b, n, m int64 }{
		{100, 100, 16, 4},
		{50, 200, 8, 4},
		{64, 64, 32, 8},
	} {
		if _, holds := BlockingNeverHelps(tc.a, tc.b, tc.n, tc.m, 0); !holds {
			t.Fatalf("%+v: blocking helps Algorithm 2", tc)
		}
		// S = N·|A|: as many results as Algorithm 2's padded output holds.
		s := tc.n * tc.a
		if one, blocked := scanGets(tc.a, tc.b, s, tc.m, 1), scanGets(tc.a, tc.b, s, tc.m, tc.m/2); blocked >= one {
			t.Errorf("%+v, S = %d: blocks of %d rows cost %d gets, one row %d", tc, s, tc.m/2, blocked, one)
		}
	}
}

func TestBlockedCostDegenerate(t *testing.T) {
	if BlockedAlg2Cost(10, 10, 4, 0, 1) != 0 || BlockedAlg2Cost(10, 10, 4, 1, 0) != 0 {
		t.Fatal("degenerate block shapes should cost 0 (rejected)")
	}
}
