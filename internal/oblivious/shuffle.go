package oblivious

import (
	"encoding/binary"
	"fmt"

	"ppj/internal/sim"
)

// Shuffle obliviously permutes cells [0, n) of a region uniformly at random:
// each element is re-encrypted with a fresh 64-bit key drawn from T's
// internal randomness prepended, the list is obliviously sorted by that key,
// and the keys are stripped. The adversary observes only the sort's fixed
// schedule; the permutation is determined by randomness that never leaves T
// (the "obliviously shuffle" primitive of §4.5.1, after Iliev & Smith [24]).
func Shuffle(t *sim.Coprocessor, region sim.RegionID, n int64) error {
	if n < 0 {
		return fmt.Errorf("oblivious: negative element count %d", n)
	}
	if n <= 1 {
		return nil
	}
	// Tag phase: rewrite every cell as key || payload. The tag buffer is
	// reused across cells; TransformRange seals each result before the next
	// callback runs.
	var tagged []byte
	err := t.TransformRange(region, 0, region, 0, n, func(k int64, pt []byte) ([]byte, error) {
		tagged = binary.BigEndian.AppendUint64(tagged[:0], t.Rand().Uint64())
		tagged = append(tagged, pt...)
		return tagged, nil
	})
	if err != nil {
		return err
	}
	less := func(a, b []byte) bool {
		return binary.BigEndian.Uint64(a) < binary.BigEndian.Uint64(b)
	}
	if err := Sort(t, region, n, less); err != nil {
		return err
	}
	// Strip phase.
	return t.TransformRange(region, 0, region, 0, n, func(k int64, pt []byte) ([]byte, error) {
		if len(pt) < 8 {
			return nil, fmt.Errorf("oblivious: shuffle strip found short cell at %d", k)
		}
		return pt[8:], nil
	})
}

// ShuffleTransfers returns the exact transfer count of Shuffle on n cells.
func ShuffleTransfers(n int64) int64 {
	if n <= 1 {
		return 0
	}
	return 4*n + SortTransfers(n, 1)
}
