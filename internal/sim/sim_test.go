package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ppj/internal/relation"
)

func newTestPair(t *testing.T, mem int) (*Host, *Coprocessor) {
	t.Helper()
	h := NewHost(1 << 16)
	cop, err := NewCoprocessor(h, Config{Memory: mem, Sealer: PlainSealer{}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return h, cop
}

// RegionLen returns the current number of cells in a region.
func (h *Host) RegionLen(id RegionID) int {
	r := h.regionFor(id)
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cells)
}

// DiskWrites reports how many cells H has persisted at T's request.
func (h *Host) DiskWrites() uint64 {
	return h.diskWrites.Load()
}

func TestTraceDigestOrderSensitive(t *testing.T) {
	a, b := NewTrace(0), NewTrace(0)
	e1 := Event{Op: OpGet, Region: 1, Index: 2}
	e2 := Event{Op: OpPut, Region: 1, Index: 2}
	a.Append(e1)
	a.Append(e2)
	b.Append(e2)
	b.Append(e1)
	if a.Equal(b) {
		t.Fatal("order-swapped traces compare equal")
	}
	c := NewTrace(0)
	c.Append(e1)
	c.Append(e2)
	if !a.Equal(c) {
		t.Fatal("identical traces compare unequal")
	}
}

func TestTraceRecordLimit(t *testing.T) {
	tr := NewTrace(2)
	for i := 0; i < 5; i++ {
		tr.Append(Event{Op: OpGet, Region: 0, Index: int64(i)})
	}
	if len(tr.Events()) != 2 || tr.Count() != 5 || !tr.Truncated() {
		t.Fatalf("record limit broken: events=%d count=%d truncated=%v",
			len(tr.Events()), tr.Count(), tr.Truncated())
	}
}

func TestEventString(t *testing.T) {
	e := Event{Op: OpGet, Region: 3, Index: 9}
	if got := e.String(); !strings.Contains(got, "get") || !strings.Contains(got, "[9]") {
		t.Fatalf("Event.String = %q", got)
	}
	if OpPut.String() != "put" || OpDisk.String() != "disk" {
		t.Fatal("Op.String wrong")
	}
}

func TestHostRegions(t *testing.T) {
	h := NewHost(0)
	id := h.MustCreateRegion("A", 3)
	if h.RegionLen(id) != 3 || h.RegionName(id) != "A" {
		t.Fatal("region metadata wrong")
	}
	if _, err := h.CreateRegion("A", 1); err == nil {
		t.Fatal("duplicate region name accepted")
	}
	h.Store(id, 10, []byte{1}) // grows
	if h.RegionLen(id) != 11 {
		t.Fatalf("grow failed: len=%d", h.RegionLen(id))
	}
	if h.Inspect(id, 10) == nil || h.Inspect(id, 99) != nil {
		t.Fatal("Inspect wrong")
	}
}

func TestGetPutRoundTripAndTrace(t *testing.T) {
	h, cop := newTestPair(t, 10)
	id := h.MustCreateRegion("r", 2)
	if err := cop.Put(id, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := cop.Get(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("round trip got %q", got)
	}
	ev := h.Trace().Events()
	if len(ev) != 2 || ev[0].Op != OpPut || ev[1].Op != OpGet {
		t.Fatalf("trace = %v", ev)
	}
	st := cop.Stats()
	if st.Gets != 1 || st.Puts != 1 || st.Transfers() != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetErrors(t *testing.T) {
	h, cop := newTestPair(t, 10)
	id := h.MustCreateRegion("r", 2)
	if _, err := cop.Get(id, 5); err == nil {
		t.Fatal("out of range get accepted")
	}
	if _, err := cop.Get(id, 0); err == nil {
		t.Fatal("get of unwritten cell accepted")
	}
}

func TestCiphertextsIndistinguishable(t *testing.T) {
	// Two puts of the same plaintext must look different on the host
	// (semantic security; decoys rely on this).
	h := NewHost(0)
	sealer, err := NewRandomGCMSealer()
	if err != nil {
		t.Fatal(err)
	}
	cop, err := NewCoprocessor(h, Config{Sealer: sealer})
	if err != nil {
		t.Fatal(err)
	}
	id := h.MustCreateRegion("r", 2)
	pt := []byte("identical plaintext")
	if err := cop.Put(id, 0, pt); err != nil {
		t.Fatal(err)
	}
	if err := cop.Put(id, 1, pt); err != nil {
		t.Fatal(err)
	}
	if string(h.Inspect(id, 0)) == string(h.Inspect(id, 1)) {
		t.Fatal("equal plaintexts produced equal ciphertexts")
	}
}

func TestMemoryGrant(t *testing.T) {
	_, cop := newTestPair(t, 8)
	rel1, err := cop.Grant(5)
	if err != nil {
		t.Fatal(err)
	}
	if cop.MemoryFree() != 3 {
		t.Fatalf("free = %d", cop.MemoryFree())
	}
	if _, err := cop.Grant(4); err == nil {
		t.Fatal("over-grant accepted")
	}
	rel1()
	rel1() // double release must be harmless
	if cop.MemoryFree() != 8 {
		t.Fatalf("free after release = %d", cop.MemoryFree())
	}
	if _, err := cop.Grant(-1); err == nil {
		t.Fatal("negative grant accepted")
	}
}

func TestRequestDisk(t *testing.T) {
	h, cop := newTestPair(t, 4)
	id := h.MustCreateRegion("out", 3)
	for i := int64(0); i < 3; i++ {
		if err := cop.Put(id, i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cop.RequestDisk(id, 0, 3); err != nil {
		t.Fatal(err)
	}
	if h.DiskWrites() != 3 || cop.Stats().DiskRequests != 3 {
		t.Fatal("disk accounting wrong")
	}
	if err := cop.RequestDisk(id, 2, 5); err == nil {
		t.Fatal("out of range disk request accepted")
	}
}

// sameRow reports whether r is the encoding of rel's row i.
func sameRow(r relation.Row, rel *relation.Relation, i int64) bool {
	return bytes.Equal(r.Encoded(), rel.Schema.MustEncode(rel.Rows[i]))
}

func TestLoadTableAndGet(t *testing.T) {
	h, cop := newTestPair(t, 4)
	rel := relation.GenKeyed(relation.NewRand(1), 10, 5)
	tab, err := LoadTable(h, cop.Sealer(), "A", rel)
	if err != nil {
		t.Fatal(err)
	}
	if tab.N != 10 {
		t.Fatalf("table N = %d", tab.N)
	}
	// Loading must not appear in the trace: providers upload out of band.
	if h.Trace().Count() != 0 {
		t.Fatal("LoadTable polluted the trace")
	}
	for i := int64(0); i < tab.N; i++ {
		pt, err := cop.Get(tab.Region, i)
		if err != nil {
			t.Fatal(err)
		}
		row, err := tab.Schema.Row(pt)
		if err != nil {
			t.Fatal(err)
		}
		if row.Int(0) != rel.Rows[i][0].I || row.Int(1) != rel.Rows[i][1].I {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestCartesianSequentialScan(t *testing.T) {
	h, cop := newTestPair(t, 4)
	a := relation.GenKeyed(relation.NewRand(1), 4, 100)
	b := relation.GenKeyed(relation.NewRand(2), 6, 100)
	tabA, _ := LoadTable(h, cop.Sealer(), "A", a)
	tabB, _ := LoadTable(h, cop.Sealer(), "B", b)
	cart, err := NewCartesian(cop, []Table{tabA, tabB}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cart.Size() != 24 {
		t.Fatalf("Size = %d", cart.Size())
	}
	for i := int64(0); i < cart.Size(); i++ {
		row, err := cart.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRow(row[0], a, i/6) || !sameRow(row[1], b, i%6) {
			t.Fatalf("iTuple %d mismatch", i)
		}
	}
	st := cop.Stats()
	if st.LogicalReads != 24 {
		t.Fatalf("logical reads = %d, want 24", st.LogicalReads)
	}
	// Sequential scan: |A| + |A||B| underlying gets.
	if st.Gets != 4+24 {
		t.Fatalf("underlying gets = %d, want 28", st.Gets)
	}
}

// TestCartesianCoordsRoundTrip checks that a logical index of a three-way
// product decomposes into mixed-radix coordinates, the last table fastest.
func TestCartesianCoordsRoundTrip(t *testing.T) {
	h, cop := newTestPair(t, 4)
	var rels []*relation.Relation
	var tabs []Table
	for j, n := range []int{3, 4, 5} {
		rel := relation.GenKeyed(relation.NewRand(uint64(n)), n, 1000)
		tab, err := LoadTable(h, cop.Sealer(), fmt.Sprint("X", j), rel)
		if err != nil {
			t.Fatal(err)
		}
		rels, tabs = append(rels, rel), append(tabs, tab)
	}
	cart, err := NewCartesian(cop, tabs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < cart.Size(); i++ {
		row, err := cart.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		for j, c := range []int64{i / 20, i / 5 % 4, i % 5} {
			if !sameRow(row[j], rels[j], c) {
				t.Fatalf("iTuple %d, table %d: %x, want row %d %v", i, j, row[j].Encoded(), c, rels[j].Rows[c])
			}
		}
	}
}

// TestCartesianScan checks the blocked visitor on its own: for every
// block size, two Scans visit every iTuple once each in the documented
// order (per block of X₁, the rows of X₂ × … × X_J row-major, then the
// block's X₁ rows) and cost the closed form's gets — X₁ once per scan, or
// once when one block spans it, and the rest once per block per scan with
// a one-row table fetched once. At K = 1 the Scans are Read(0), …, Read(L−1)
// twice, each Read followed by one predicate evaluation: the same Stats and
// trace digest.
func TestCartesianScan(t *testing.T) {
	for _, sizes := range [][]int{{7, 4}, {5, 1, 3}, {1, 3}, {3, 1}} {
		var rels []*relation.Relation
		for j, n := range sizes {
			rels = append(rels, relation.GenKeyed(relation.NewRand(uint64(10*j+n)), n, 1000))
		}
		load := func() (*Coprocessor, []Table) {
			h, cop := newTestPair(t, 4)
			var tabs []Table
			for j, rel := range rels {
				tab, err := LoadTable(h, cop.Sealer(), fmt.Sprint("X", j), rel)
				if err != nil {
					t.Fatal(err)
				}
				tabs = append(tabs, tab)
			}
			return cop, tabs
		}
		tail := 1
		for _, n := range sizes[1:] {
			tail *= n
		}
		const scans = 2
		for k := 1; k <= sizes[0]; k++ {
			cop, tabs := load()
			cart, err := NewCartesian(cop, tabs, int64(k))
			if err != nil {
				t.Fatal(err)
			}
			var visits int
			for range scans {
				visit := 0
				var visitErr error
				all := relation.MultiPredicateFunc{Fn: func([]relation.Row) bool { return true }, Desc: "true"}
				if err := cart.Scan(all, func(row []relation.Row) {
					if visitErr != nil {
						return
					}
					// The visit's block, tail row and row within the block.
					lo := visit / (tail * k) * k
					rest := visit - lo*tail
					kb := min(k, sizes[0]-lo)
					want := make([]int, len(sizes))
					want[0] = lo + rest%kb
					for j, tr := len(sizes)-1, rest/kb; j >= 1; j-- {
						want[j], tr = tr%sizes[j], tr/sizes[j]
					}
					for j, c := range want {
						if !sameRow(row[j], rels[j], int64(c)) {
							visitErr = fmt.Errorf("visit %d, table %d: %x, want row %d %v", visit, j, row[j].Encoded(), c, rels[j].Rows[c])
						}
					}
					visit++
				}); err != nil || visitErr != nil {
					t.Fatalf("%v, K = %d: %v, %v", sizes, k, err, visitErr)
				}
				if visit != int(cart.Size()) {
					t.Fatalf("%v, K = %d: %d visits, want %d", sizes, k, visit, cart.Size())
				}
				visits += visit
			}
			blocks := (sizes[0] + k - 1) / k
			gets := sizes[0]
			if blocks > 1 {
				gets *= scans
			}
			prefix := 1
			for _, n := range sizes[1:] {
				prefix *= n
				if n == 1 {
					gets++
				} else {
					gets += scans * blocks * prefix
				}
			}
			st := cop.Stats()
			if st.Gets != uint64(gets) || st.LogicalReads != uint64(visits) {
				t.Errorf("%v, K = %d: %d gets and %d logical reads, want %d and %d", sizes, k, st.Gets, st.LogicalReads, gets, visits)
			}
			if k > 1 {
				continue
			}
			ref, refTabs := load()
			refCart, err := NewCartesian(ref, refTabs, 1)
			if err != nil {
				t.Fatal(err)
			}
			for range scans {
				for i := int64(0); i < refCart.Size(); i++ {
					if _, err := refCart.Read(i); err != nil {
						t.Fatal(err)
					}
					ref.ChargePredicate()
				}
			}
			if ref.Stats() != st || ref.Trace().Digest() != cop.Trace().Digest() {
				t.Errorf("%v: Scan at K = 1 charged %+v, trace %#x; the Read loop %+v, %#x", sizes, st, cop.Trace().Digest(), ref.Stats(), ref.Trace().Digest())
			}
		}
	}
}

// TestCartesianScanAllocations pins Scan's steady state: rows are views of
// the view's arena and X₂ streams through T's reused staging buffers, so a
// Scan allocates a fixed number of times however many iTuples it visits —
// the same at 128 and at 512 rows of X₂, 0 per iTuple.
func TestCartesianScanAllocations(t *testing.T) {
	const k = 32
	allocs := func(n2 int) float64 {
		h := NewHost(0)
		cop, err := NewCoprocessor(h, Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		a, err := LoadTable(h, cop.Sealer(), "A", relation.GenKeyed(relation.NewRand(1), 2*k, 100))
		if err != nil {
			t.Fatal(err)
		}
		b, err := LoadTable(h, cop.Sealer(), "B", relation.GenKeyed(relation.NewRand(2), n2, 100))
		if err != nil {
			t.Fatal(err)
		}
		cart, err := NewCartesian(cop, []Table{a, b}, k)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		near := relation.MultiPredicateFunc{Fn: func(rows []relation.Row) bool {
			return rows[0].Int(0)-rows[1].Int(0) < 3
		}, Desc: "near"}
		visit := func(rows []relation.Row) { sum += rows[0].Int(0) - rows[1].Int(0) }
		if err := cart.Scan(near, visit); err != nil { // warm T's staging buffers
			t.Fatal(err)
		}
		var scanErr error
		got := testing.AllocsPerRun(5, func() {
			if err := cart.Scan(near, visit); err != nil && scanErr == nil {
				scanErr = err
			}
		})
		if scanErr != nil {
			t.Fatal(scanErr)
		}
		return got
	}
	small, large := allocs(128), allocs(512)
	if small != large {
		t.Errorf("a Scan allocates %.1f times at 128 rows of X2 and %.1f at 512: allocations grow with the iTuples", small, large)
	}
	t.Logf("%.1f allocations per Scan", small)
}

func TestCartesianValidation(t *testing.T) {
	h, cop := newTestPair(t, 4)
	if _, err := NewCartesian(cop, nil, 1); err == nil {
		t.Fatal("empty table list accepted")
	}
	empty := Table{Region: h.MustCreateRegion("e", 0), N: 0, Schema: relation.KeyedSchema()}
	if _, err := NewCartesian(cop, []Table{empty}, 1); err == nil {
		t.Fatal("empty table accepted")
	}
	rel := relation.GenKeyed(relation.NewRand(1), 2, 10)
	tab, _ := LoadTable(h, cop.Sealer(), "X", rel)
	for _, k := range []int64{0, 3} {
		if _, err := NewCartesian(cop, []Table{tab}, k); err == nil {
			t.Fatalf("block of %d rows of a 2-row table accepted", k)
		}
	}
	cart, _ := NewCartesian(cop, []Table{tab}, 1)
	if _, err := cart.Read(5); err == nil {
		t.Fatal("out of range logical read accepted")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Gets: 1, Puts: 2, LogicalReads: 3, Comparisons: 4, PredEvals: 5, DiskRequests: 6}
	b := a
	a.Add(b)
	if a.Gets != 2 || a.Puts != 4 || a.LogicalReads != 6 || a.Comparisons != 8 ||
		a.PredEvals != 10 || a.DiskRequests != 12 {
		t.Fatalf("Add = %+v", a)
	}
}

func TestCoprocessorSeedDeterminism(t *testing.T) {
	mk := func(seed uint64) uint64 {
		h := NewHost(0)
		cop, err := NewCoprocessor(h, Config{Sealer: PlainSealer{}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return cop.Rand().Uint64()
	}
	if mk(5) != mk(5) {
		t.Fatal("same seed, different randomness")
	}
	if mk(5) == mk(6) {
		t.Fatal("different seeds, same randomness")
	}
}

func TestFreshRegionUniqueNames(t *testing.T) {
	h := NewHost(0)
	a := h.FreshRegion("scratch", 2)
	b := h.FreshRegion("scratch", 2)
	c := h.FreshRegion("scratch", 2)
	if a == b || b == c {
		t.Fatal("FreshRegion returned duplicate ids")
	}
	names := map[string]bool{}
	for _, id := range []RegionID{a, b, c} {
		name := h.RegionName(id)
		if names[name] {
			t.Fatalf("duplicate region name %q", name)
		}
		names[name] = true
	}
}

func TestRequestCopyOut(t *testing.T) {
	h, cop := newTestPair(t, 8)
	src := h.MustCreateRegion("src", 4)
	dst := h.MustCreateRegion("dst", 0)
	for i := int64(0); i < 4; i++ {
		if err := cop.Put(src, i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := cop.Stats().Transfers()
	if err := cop.RequestCopyOut(dst, 0, src, 1, 3); err != nil {
		t.Fatal(err)
	}
	// Host-side: no transfers charged, but traced as disk writes.
	if cop.Stats().Transfers() != before {
		t.Fatal("copy out charged transfers")
	}
	if cop.Stats().DiskRequests != 3 {
		t.Fatalf("disk requests = %d", cop.Stats().DiskRequests)
	}
	for i := int64(0); i < 3; i++ {
		pt, err := cop.Get(dst, i)
		if err != nil {
			t.Fatal(err)
		}
		if pt[0] != byte(i+1) {
			t.Fatalf("dst[%d] = %d", i, pt[0])
		}
	}
	if err := cop.RequestCopyOut(dst, 0, src, 2, 5); err == nil {
		t.Fatal("out-of-range copy accepted")
	}
}

func TestCartesianRandomAccessCounting(t *testing.T) {
	// Random-order reads re-fetch each table whose coordinate changed; a
	// fully alternating pattern costs 2 gets per logical read after the
	// first.
	h, cop := newTestPair(t, 4)
	a := relation.GenKeyed(relation.NewRand(1), 3, 10)
	b := relation.GenKeyed(relation.NewRand(2), 3, 10)
	tabA, _ := LoadTable(h, cop.Sealer(), "A", a)
	tabB, _ := LoadTable(h, cop.Sealer(), "B", b)
	cart, err := NewCartesian(cop, []Table{tabA, tabB}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cop.ResetStats()
	for _, idx := range []int64{0, 4, 8, 0, 4} { // diagonal hops change both coords
		if _, err := cart.Read(idx); err != nil {
			t.Fatal(err)
		}
	}
	st := cop.Stats()
	if st.LogicalReads != 5 {
		t.Fatalf("logical reads = %d", st.LogicalReads)
	}
	if st.Gets != 10 { // 2 per hop
		t.Fatalf("gets = %d, want 10", st.Gets)
	}
}
