package core

import "ppj/internal/oblivious"

// Join3Transfers is the exact transfer count of ParallelJoin3 at any P, the
// measured analogue of |A| + |A|N + |B|(log₂|B|)² + 3|A||B|.
func Join3Transfers(aN, bN, n int64, preSorted bool) int64 {
	total := aN * (1 + n + 3*bN)
	if !preSorted {
		total += oblivious.SortTransfers(bN, 1)
	}
	return total
}
