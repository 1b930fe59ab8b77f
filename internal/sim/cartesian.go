package sim

import (
	"fmt"

	"ppj/internal/relation"
)

// Cartesian is T's streaming view of D = X₁ × … × X_J (§5.2.1). The thesis
// assumes D is conceptually materialised in H's memory and indexed by a
// single logical index; "in real implementation, a logical index can be
// easily converted into the individual index of each of the J tuples and D
// need not be materialized". Cartesian performs exactly that conversion in
// row-major order (the last table varies fastest) and caches the encoded
// row of each table inside T, so a sequential scan of D costs
// |X₁| + |X₁||X₂| + … underlying gets while counting one logical read per
// iTuple — the unit the Chapter 5 cost formulas are stated in.
//
// The J cached rows live in T's constant per-algorithm allocation
// (§5.2.1: "We assume a constant memory space allocated for iTuples,
// program code, and other necessary data structure and variables"), so they
// are not charged against the M oTuple slots. A view built with block size
// K > 1 also holds K rows of X₁ for Scan; the caller charges the K−1 beyond
// the cached row against M. Every held row is an encoding in one arena
// allocated with the view; a fetch copies the opened plaintext into its
// slot, and the predicates read it there as a relation.Row. Nothing is
// decoded.
type Cartesian struct {
	t      *Coprocessor
	tables []Table
	// strides[j] is the product of sizes of tables j+1..J-1.
	strides []int64
	size    int64
	// rows is the current iTuple: rows[j] views table j's arena slot, slot[j],
	// except that Scan points rows[0] at the block row it visits. cachedI[j]
	// is the row rows[j] holds (−1: none).
	rows    []relation.Row
	slot    []relation.Row
	cachedI []int64
	// k is Scan's block size. When k > 1, block views X₁'s rows from
	// blockLo on (blockLo −1: none yet).
	k       int64
	block   []relation.Row
	blockLo int64
}

// NewCartesian builds the view with Scan's block size k, 1 ≤ k ≤ |X₁|.
// The product of table sizes must be nonzero and fit in int64.
func NewCartesian(t *Coprocessor, tables []Table, k int64) (*Cartesian, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("sim: cartesian product of zero tables")
	}
	size := int64(1)
	for _, tab := range tables {
		if tab.N <= 0 {
			return nil, fmt.Errorf("sim: cartesian product with empty table %d", tab.Region)
		}
		if size > (1<<62)/tab.N {
			return nil, fmt.Errorf("sim: cartesian product overflows int64")
		}
		size *= tab.N
	}
	if k < 1 || k > tables[0].N {
		return nil, fmt.Errorf("sim: cartesian block of %d rows outside [1,%d]", k, tables[0].N)
	}
	c := &Cartesian{
		t:       t,
		tables:  tables,
		strides: make([]int64, len(tables)),
		size:    size,
		rows:    make([]relation.Row, len(tables)),
		slot:    make([]relation.Row, len(tables)),
		cachedI: make([]int64, len(tables)),
		k:       k,
		blockLo: -1,
	}
	s, total := int64(1), 0
	for j := len(tables) - 1; j >= 0; j-- {
		c.strides[j] = s
		s *= tables[j].N
		total += tables[j].Schema.TupleSize()
	}
	if k > 1 {
		c.block = make([]relation.Row, k)
		total += int(k) * tables[0].Schema.TupleSize()
	}
	arena := make([]byte, total)
	view := func(s *relation.Schema) relation.Row {
		r, _ := s.Row(arena[:s.TupleSize():s.TupleSize()]) // sized to fit
		arena = arena[s.TupleSize():]
		return r
	}
	for j, tab := range tables {
		c.slot[j], c.cachedI[j] = view(tab.Schema), -1
	}
	copy(c.rows, c.slot)
	for i := range c.block {
		c.block[i] = view(tables[0].Schema)
	}
	return c, nil
}

// Size returns L = |D|.
func (c *Cartesian) Size() int64 { return c.size }

// Block returns Scan's block size K.
func (c *Cartesian) Block() int64 { return c.k }

// Read materialises the iTuple at a logical index inside T, fetching only
// the per-table rows whose coordinate changed since the previous Read.
// The returned rows are valid until the next Read or Scan.
func (c *Cartesian) Read(logical int64) ([]relation.Row, error) {
	if logical < 0 || logical >= c.size {
		return nil, fmt.Errorf("sim: logical index %d out of range [0,%d)", logical, c.size)
	}
	c.t.CountLogicalRead()
	for j := range c.tables {
		if err := c.fetch(j, (logical/c.strides[j])%c.tables[j].N); err != nil {
			return nil, err
		}
	}
	return c.rows, nil
}

// Scan visits every iTuple of D once, in blocks of K rows of X₁ (the last
// block may be short): for each block it walks the rows of X₂ × … × X_J in
// row-major order and, for each of those, the block's X₁ rows in order. T
// evaluates pred on every iTuple it visits, counting one logical read and
// one fixed-time predicate evaluation each, and passes the iTuples that
// satisfy it to fn. A block is read into T with one ScanRange and, when it
// spans X₁, kept across Scans; X₂ … X_{J−1} go through Read's per-table
// cache, and X_J's rows stream through one ScanRange per combination of
// the tables before it, from its first row not already cached. A ScanRange
// is its sequential gets, so these are the gets Read's cache makes. At
// K = 1 the order is row-major and the X₁ row is Read's cached one too, so
// a Scan is Read(0), …, Read(L−1): the same gets, trace and cache. The gets
// of a Scan are therefore a function of the table sizes and K alone. rows
// are valid until fn returns; fn must not transfer.
func (c *Cartesian) Scan(pred relation.MultiPredicate, fn func(rows []relation.Row)) error {
	n1, last := c.tables[0].N, len(c.tables)-1
	coord := make([]int64, last) // position in X₂ × … × X_{J−1}
	var block []relation.Row
	var lo int64
	visit := func() {
		rows := c.rows
		for _, r := range block {
			rows[0] = r
			if pred.Satisfy(rows) {
				fn(rows)
			}
		}
		n := uint64(len(block))
		c.t.stats.LogicalReads += n
		c.t.stats.PredEvals += n
		c.cachedI[0] = lo + int64(len(block)) - 1
	}
	for ; lo < n1; lo += c.k {
		var err error
		if block, err = c.loadBlock(lo, min(c.k, n1-lo)); err != nil {
			return err
		}
		if last == 0 {
			visit()
			continue
		}
		clear(coord)
		for {
			for j := 1; j < last; j++ {
				if err := c.fetch(j, coord[j]); err != nil {
					return err
				}
			}
			if err := c.stream(last, visit); err != nil {
				return err
			}
			j := last - 1
			for ; j > 0; j-- {
				if coord[j]++; coord[j] < c.tables[j].N {
					break
				}
				coord[j] = 0
			}
			if j == 0 {
				break
			}
		}
	}
	return nil
}

// stream makes each row of table j in turn its current row, calling visit
// after each: a cached first row is visited in place, the rest arrive by
// one ScanRange.
func (c *Cartesian) stream(j int, visit func()) error {
	from := int64(0)
	if c.cachedI[j] == 0 {
		visit()
		from = 1
	}
	return c.load(j, from, c.tables[j].N-from, visit)
}

// loadBlock brings X₁'s rows [lo, lo+n) into T: at K = 1 through Read's
// cache, otherwise with one ScanRange unless the block is already held.
func (c *Cartesian) loadBlock(lo, n int64) ([]relation.Row, error) {
	if c.k == 1 {
		return c.rows[:1], c.fetch(0, lo)
	}
	block := c.block[:n]
	if c.blockLo == lo {
		return block, nil
	}
	c.blockLo, c.cachedI[0] = -1, -1
	x1 := c.tables[0]
	err := c.t.ScanRange(x1.Region, lo, n, func(k int64, pt []byte) error {
		return c.hold(block[k], x1, lo+k, pt)
	})
	if err != nil {
		return nil, err
	}
	c.blockLo = lo
	return block, nil
}

// fetch makes table j's current row its row, getting it unless it is
// already cached.
func (c *Cartesian) fetch(j int, row int64) error {
	if c.cachedI[j] == row {
		return nil
	}
	return c.load(j, row, 1, func() {})
}

// load gets rows [from, from+n) of table j into its arena slot with one
// ScanRange, making each in turn the current row and calling each after it.
func (c *Cartesian) load(j int, from, n int64, each func()) error {
	return c.t.ScanRange(c.tables[j].Region, from, n, func(k int64, pt []byte) error {
		if err := c.hold(c.slot[j], c.tables[j], from+k, pt); err != nil {
			return err
		}
		c.rows[j], c.cachedI[j] = c.slot[j], from+k
		each()
		return nil
	})
}

// hold copies the plaintext of tab's row i into the arena slot dst views,
// refusing one that is not a row of tab's schema.
func (c *Cartesian) hold(dst relation.Row, tab Table, i int64, pt []byte) error {
	if _, err := tab.Schema.Row(pt); err != nil {
		return fmt.Errorf("sim: %s[%d]: %w", c.t.host.RegionName(tab.Region), i, err)
	}
	copy(dst.Encoded(), pt)
	return nil
}
