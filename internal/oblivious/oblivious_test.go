package oblivious

import (
	"encoding/binary"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"ppj/internal/sim"
)

func newPair(t *testing.T, seed uint64) (*sim.Host, *sim.Coprocessor) {
	t.Helper()
	h := sim.NewHost(1 << 20)
	cop, err := sim.NewCoprocessor(h, sim.Config{Sealer: sim.PlainSealer{}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return h, cop
}

func encodeInt(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func decodeInt(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

func intLess(a, b []byte) bool { return decodeInt(a) < decodeInt(b) }

// loadInts writes values into a fresh region via the coprocessor and resets
// stats so tests measure only the operation under test.
func loadInts(t *testing.T, h *sim.Host, cop *sim.Coprocessor, name string, vals []uint64) sim.RegionID {
	t.Helper()
	id := h.MustCreateRegion(name, len(vals))
	for i, v := range vals {
		if err := cop.Put(id, int64(i), encodeInt(v)); err != nil {
			t.Fatal(err)
		}
	}
	cop.ResetStats()
	return id
}

func readInts(t *testing.T, cop *sim.Coprocessor, id sim.RegionID, n int64) []uint64 {
	t.Helper()
	out := make([]uint64, n)
	for i := int64(0); i < n; i++ {
		pt, err := cop.Get(id, i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = decodeInt(pt)
	}
	return out
}

func TestNextPow2(t *testing.T) {
	cases := map[int64]int64{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestSortSortsAllSizes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 8, 13, 16, 31, 64, 100, 255} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			h, cop := newPair(t, uint64(n)+1)
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = uint64((i*7919 + 13) % 97)
			}
			id := loadInts(t, h, cop, "s", vals)
			if err := Sort(cop, id, int64(n), intLess); err != nil {
				t.Fatal(err)
			}
			got := readInts(t, cop, id, int64(n))
			want := append([]uint64(nil), vals...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("position %d: got %d want %d (full %v)", i, got[i], want[i], got)
				}
			}
		})
	}
}

func TestSortTransferCountExact(t *testing.T) {
	for _, n := range []int64{2, 3, 8, 16, 37, 128} {
		h, cop := newPair(t, 3)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(n) - uint64(i)
		}
		id := loadInts(t, h, cop, "s", vals)
		if err := Sort(cop, id, n, intLess); err != nil {
			t.Fatal(err)
		}
		st := cop.Stats()
		if got, want := int64(st.Transfers()), SortTransfers(n, 1); got != want {
			t.Errorf("n=%d: transfers %d, want %d", n, got, want)
		}
		if got, want := int64(st.Comparisons), Comparators(NextPow2(n)); got != want {
			t.Errorf("n=%d: comparisons %d, want %d", n, got, want)
		}
	}
}

func TestSortAccessPatternDataIndependent(t *testing.T) {
	// Core privacy property: traces of sorting different data of equal size
	// are identical.
	run := func(vals []uint64) (uint64, uint64) {
		h, cop := newPair(t, 5)
		id := h.MustCreateRegion("s", len(vals))
		for i, v := range vals {
			if err := cop.Put(id, int64(i), encodeInt(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := Sort(cop, id, int64(len(vals)), intLess); err != nil {
			t.Fatal(err)
		}
		return h.Trace().Digest(), h.Trace().Count()
	}
	d1, c1 := run([]uint64{5, 4, 3, 2, 1, 0, 9, 8, 7, 100})
	d2, c2 := run([]uint64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	if d1 != d2 || c1 != c2 {
		t.Fatal("sort access pattern depends on data")
	}
}

func TestSortProperty(t *testing.T) {
	f := func(raw []uint16, seed uint64) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		vals := make([]uint64, len(raw))
		for i, v := range raw {
			vals[i] = uint64(v)
		}
		h := sim.NewHost(0)
		cop, err := sim.NewCoprocessor(h, sim.Config{Sealer: sim.PlainSealer{}, Seed: seed | 1})
		if err != nil {
			return false
		}
		id := h.MustCreateRegion("s", len(vals))
		for i, v := range vals {
			if err := cop.Put(id, int64(i), encodeInt(v)); err != nil {
				return false
			}
		}
		if err := Sort(cop, id, int64(len(vals)), intLess); err != nil {
			return false
		}
		prev := uint64(0)
		for i := int64(0); i < int64(len(vals)); i++ {
			pt, err := cop.Get(id, i)
			if err != nil {
				return false
			}
			v := decodeInt(pt)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSortRejectsNegative(t *testing.T) {
	h, cop := newPair(t, 1)
	id := h.MustCreateRegion("s", 0)
	if err := Sort(cop, id, -1, intLess); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestShufflePermutes(t *testing.T) {
	const n = 64
	h, cop := newPair(t, 77)
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i)
	}
	id := loadInts(t, h, cop, "s", vals)
	if err := Shuffle(cop, id, n); err != nil {
		t.Fatal(err)
	}
	got := readInts(t, cop, id, n)
	seen := make([]bool, n)
	moved := 0
	for i, v := range got {
		if v >= n || seen[v] {
			t.Fatalf("not a permutation: %v", got)
		}
		seen[v] = true
		if uint64(i) != v {
			moved++
		}
	}
	if moved < n/4 {
		t.Fatalf("shuffle barely moved anything: %d of %d", moved, n)
	}
}

func TestShuffleTransferCountExact(t *testing.T) {
	for _, n := range []int64{2, 7, 16, 33} {
		h, cop := newPair(t, 9)
		vals := make([]uint64, n)
		id := loadInts(t, h, cop, "s", vals)
		if err := Shuffle(cop, id, n); err != nil {
			t.Fatal(err)
		}
		if got, want := int64(cop.Stats().Transfers()), ShuffleTransfers(n); got != want {
			t.Errorf("n=%d: transfers %d, want %d", n, got, want)
		}
	}
}

func TestShuffleTraceIndependentOfData(t *testing.T) {
	run := func(vals []uint64) uint64 {
		h, cop := newPair(t, 11)
		id := h.MustCreateRegion("s", len(vals))
		for i, v := range vals {
			if err := cop.Put(id, int64(i), encodeInt(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := Shuffle(cop, id, int64(len(vals))); err != nil {
			t.Fatal(err)
		}
		return h.Trace().Digest()
	}
	if run([]uint64{1, 2, 3, 4, 5}) != run([]uint64{9, 9, 9, 9, 9}) {
		t.Fatal("shuffle access pattern depends on data")
	}
}

// target cells for filter tests: 8-byte value, targets are odd values.
func isOdd(b []byte) bool { return len(b) == 8 && decodeInt(b)%2 == 1 }

func TestFilterKeepsAllTargets(t *testing.T) {
	for _, tc := range []struct {
		omega, mu, delta int64
	}{
		{100, 8, 8},   // μ+Δ = 16
		{100, 10, 6},  // μ+Δ = 16
		{100, 16, 16}, // μ+Δ = 32
		{20, 8, 24},   // buffer larger than source
		{8, 8, 8},     // ω = μ+Δ/...
	} {
		name := fmt.Sprintf("w%d_m%d_d%d", tc.omega, tc.mu, tc.delta)
		t.Run(name, func(t *testing.T) {
			// Exactly mu odd targets scattered through omega cells.
			vals := make([]uint64, tc.omega)
			for i := range vals {
				vals[i] = uint64(i) * 2 // all even = decoys
			}
			step := tc.omega / tc.mu
			for k := int64(0); k < tc.mu; k++ {
				vals[k*step] = uint64(2*k + 1) // odd = target
			}
			for _, p := range []int{1, 2, 4} {
				h := sim.NewHost(0)
				cops := spanFleet(t, h, p)
				id := loadInts(t, h, cops[0], "src", vals)
				buf, err := Filter(cops, id, tc.omega, tc.mu, tc.delta, isOdd, "buf")
				if err != nil {
					t.Fatal(err)
				}
				got := readInts(t, cops[0], buf, tc.mu)
				found := map[uint64]bool{}
				for _, v := range got {
					if v%2 != 1 {
						t.Fatalf("P=%d: non-target %d in kept region %v", p, v, got)
					}
					found[v] = true
				}
				for k := int64(0); k < tc.mu; k++ {
					if !found[uint64(2*k+1)] {
						t.Fatalf("P=%d: target %d lost (%v)", p, 2*k+1, got)
					}
				}
			}
		})
	}
}

func TestFilterTransferCountExact(t *testing.T) {
	for _, tc := range []struct{ omega, mu, delta int64 }{
		{100, 8, 8}, {50, 10, 6}, {300, 16, 48},
	} {
		h, cop := newPair(t, 23)
		vals := make([]uint64, tc.omega)
		id := loadInts(t, h, cop, "src", vals)
		if _, err := Filter(one(cop), id, tc.omega, tc.mu, tc.delta, isOdd, "buf"); err != nil {
			t.Fatal(err)
		}
		if got, want := int64(cop.Stats().Transfers()), FilterTransfers(tc.omega, tc.mu, tc.delta); got != want {
			t.Errorf("ω=%d μ=%d Δ=%d: transfers %d, want %d", tc.omega, tc.mu, tc.delta, got, want)
		}
	}
}

// TestFilterValidation pins Filter's refusals: a buffer μ+Δ that is not a
// power of two, a zero swap size, and a device group that is empty or not a
// power of two — each before any transfer is charged.
func TestFilterValidation(t *testing.T) {
	h := sim.NewHost(0)
	cops := spanFleet(t, h, 3)
	id := loadInts(t, h, cops[0], "src", []uint64{1, 2, 3, 4})
	before := h.Trace().Count()
	for _, bad := range []struct {
		what             string
		group            []*sim.Coprocessor
		omega, mu, delta int64
	}{
		{"a non-power-of-two buffer", cops[:1], 4, 3, 2},
		{"a zero delta", cops[:1], 4, 3, 0},
		{"an empty group", nil, 4, 2, 2},
		{"a group of three", cops, 4, 2, 2},
	} {
		if _, err := Filter(bad.group, id, bad.omega, bad.mu, bad.delta, isOdd, "buf"); err == nil {
			t.Errorf("%s accepted", bad.what)
		}
	}
	if after := h.Trace().Count(); after != before {
		t.Errorf("refused filters charged %d host accesses", after-before)
	}
	for _, c := range cops {
		if c.Stats().Transfers() != 0 {
			t.Errorf("a refused filter charged device transfers: %+v", c.Stats())
		}
	}
}

func TestFilterTraceIndependentOfTargetPositions(t *testing.T) {
	run := func(targetAt []int64) uint64 {
		h, cop := newPair(t, 31)
		const omega, mu, delta = 64, 4, 12
		vals := make([]uint64, omega)
		for i := range vals {
			vals[i] = uint64(i) * 2
		}
		for k, pos := range targetAt {
			vals[pos] = uint64(2*k + 1)
		}
		id := h.MustCreateRegion("src", int(omega))
		for i, v := range vals {
			if err := cop.Put(id, int64(i), encodeInt(v)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Filter(one(cop), id, omega, mu, delta, isOdd, "buf"); err != nil {
			t.Fatal(err)
		}
		return h.Trace().Digest()
	}
	if run([]int64{0, 1, 2, 3}) != run([]int64{60, 61, 62, 63}) {
		t.Fatal("filter access pattern depends on target positions")
	}
}

func TestChooseDelta(t *testing.T) {
	omega, mu := int64(10000), int64(100)
	delta := ChooseDelta(omega, mu)
	if delta <= 0 || NextPow2(mu+delta) != mu+delta {
		t.Fatalf("ChooseDelta returned incompatible Δ=%d", delta)
	}
	chosen := FilterTransfers(omega, mu, delta)
	// Must be no worse than the single-full-sort fallback and the smallest
	// buffer.
	alt1 := FilterTransfers(omega, mu, NextPow2(omega)*2-mu)
	alt2 := FilterTransfers(omega, mu, NextPow2(mu+1)-mu)
	if chosen > alt1 || chosen > alt2 {
		t.Fatalf("ChooseDelta not optimal: chose %d (%d), alternatives %d / %d",
			delta, chosen, alt1, alt2)
	}
}

func TestParallelSortMatchesSequential(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for _, n := range []int64{8, 16, 37, 128} {
			t.Run(fmt.Sprintf("p=%d_n=%d", p, n), func(t *testing.T) {
				h := sim.NewHost(0)
				sealer := sim.PlainSealer{}
				cops := make([]*sim.Coprocessor, p)
				for i := range cops {
					var err error
					cops[i], err = sim.NewCoprocessor(h, sim.Config{Sealer: sealer, Seed: uint64(i) + 1})
					if err != nil {
						t.Fatal(err)
					}
				}
				id := h.MustCreateRegion("s", int(n))
				vals := make([]uint64, n)
				for i := range vals {
					vals[i] = uint64((int64(i)*2654435761 + 17) % 1000)
				}
				for i, v := range vals {
					if err := cops[0].Put(id, int64(i), encodeInt(v)); err != nil {
						t.Fatal(err)
					}
				}
				if err := SortSpan(cops, id, 0, n, 1, intLess); err != nil {
					t.Fatal(err)
				}
				got := make([]uint64, n)
				for i := int64(0); i < n; i++ {
					pt, err := cops[0].Get(id, i)
					if err != nil {
						t.Fatal(err)
					}
					got[i] = decodeInt(pt)
				}
				want := append([]uint64(nil), vals...)
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("position %d: got %d want %d", i, got[i], want[i])
					}
				}
			})
		}
	}
}

func TestParallelSortValidation(t *testing.T) {
	h, _ := newPair(t, 1)
	id := h.MustCreateRegion("x", 4)
	if err := SortSpan(nil, id, 0, 4, 1, intLess); err == nil {
		t.Fatal("zero coprocessors accepted")
	}
	cops := make([]*sim.Coprocessor, 3)
	for i := range cops {
		cops[i], _ = sim.NewCoprocessor(h, sim.Config{Sealer: sim.PlainSealer{}, Seed: uint64(i) + 1})
	}
	if err := SortSpan(cops, id, 0, 4, 1, intLess); err == nil {
		t.Fatal("non-power-of-two coprocessor count accepted")
	}
}

func TestParallelSortPerDeviceTraceDataIndependent(t *testing.T) {
	run := func(vals []uint64) []uint64 {
		h := sim.NewHost(0)
		sealer := sim.PlainSealer{}
		cops := make([]*sim.Coprocessor, 4)
		for i := range cops {
			cops[i], _ = sim.NewCoprocessor(h, sim.Config{Sealer: sealer, Seed: uint64(i) + 1})
		}
		id := h.MustCreateRegion("s", len(vals))
		loader, _ := sim.NewCoprocessor(h, sim.Config{Sealer: sealer, Seed: 99})
		for i, v := range vals {
			if err := loader.Put(id, int64(i), encodeInt(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := SortSpan(cops, id, 0, int64(len(vals)), 1, intLess); err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, len(cops))
		for i, c := range cops {
			out[i] = c.Trace().Digest()
		}
		return out
	}
	mk := func(base uint64) []uint64 {
		v := make([]uint64, 64)
		for i := range v {
			v[i] = base * uint64(i+1) % 251
		}
		return v
	}
	a, b := run(mk(7)), run(mk(113))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("device %d access pattern depends on data", i)
		}
	}
}
