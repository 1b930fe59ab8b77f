package core

// Join2Transfers is the exact transfer count of ParallelJoin2 at any P:
// |A|·(1 + γ·|B| + γ·blk), the measured analogue of the paper's
// |A| + N|A| + γ|A||B| (which writes γ·blk ≈ N). It is 0 when M ≤ δ, a run
// Algorithm 2 refuses.
func Join2Transfers(aN, bN, n, m, delta int64) int64 {
	gamma, blk := passes2(n, m, delta)
	if gamma == 0 {
		return 0
	}
	return aN * (1 + gamma*bN + gamma*blk)
}

// passes2 is Algorithm 2's schedule: γ = max(1, ⌈N/(M−δ)⌉) passes over B
// per a ∈ A, each flushing blk = ⌈N/γ⌉ oTuples. Both are 0 when δ leaves no
// result buffer (M ≤ δ).
func passes2(n, m, delta int64) (gamma, blk int64) {
	usable := m - delta
	if usable < 1 {
		return 0, 0
	}
	gamma = max(1, (n+usable-1)/usable)
	return gamma, (n + gamma - 1) / gamma
}
