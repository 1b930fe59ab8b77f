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
// row-major order (the last table varies fastest) and caches the decoded
// tuple of each table inside T, so a sequential scan of D costs
// |X₁| + |X₁||X₂| + … underlying gets while counting one logical read per
// iTuple — the unit the Chapter 5 cost formulas are stated in.
//
// The J cached tuples live in T's constant per-algorithm allocation
// (§5.2.1: "We assume a constant memory space allocated for iTuples,
// program code, and other necessary data structure and variables"), so they
// are not charged against the M oTuple slots. A view built with block size
// K > 1 also holds K rows of X₁ for Scan; the caller charges the K−1 beyond
// the cached row against M.
type Cartesian struct {
	t      *Coprocessor
	tables []Table
	// strides[j] is the product of sizes of tables j+1..J-1.
	strides []int64
	size    int64
	cached  []relation.Tuple
	cachedI []int64
	// k is Scan's block size. When k > 1, block holds X₁'s rows from
	// blockLo on (blockLo −1: none yet).
	k       int64
	block   []relation.Tuple
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
	strides := make([]int64, len(tables))
	s := int64(1)
	for j := len(tables) - 1; j >= 0; j-- {
		strides[j] = s
		s *= tables[j].N
	}
	cachedI := make([]int64, len(tables))
	for i := range cachedI {
		cachedI[i] = -1
	}
	c := &Cartesian{
		t:       t,
		tables:  tables,
		strides: strides,
		size:    size,
		cached:  make([]relation.Tuple, len(tables)),
		cachedI: cachedI,
		k:       k,
		blockLo: -1,
	}
	if k > 1 {
		c.block = make([]relation.Tuple, k)
	}
	return c, nil
}

// Size returns L = |D|.
func (c *Cartesian) Size() int64 { return c.size }

// Block returns Scan's block size K.
func (c *Cartesian) Block() int64 { return c.k }

// Read materialises the iTuple at a logical index inside T, fetching only
// the per-table tuples whose coordinate changed since the previous Read.
// The returned slice is valid until the next Read.
func (c *Cartesian) Read(logical int64) ([]relation.Tuple, error) {
	if logical < 0 || logical >= c.size {
		return nil, fmt.Errorf("sim: logical index %d out of range [0,%d)", logical, c.size)
	}
	c.t.CountLogicalRead()
	for j := range c.tables {
		if err := c.fetch(j, (logical/c.strides[j])%c.tables[j].N); err != nil {
			return nil, err
		}
	}
	return c.cached, nil
}

// Scan visits every iTuple of D once, counting one logical read each, in
// blocks of K rows of X₁ (the last block may be short): for each block it
// walks the rows of X₂ × … × X_J in row-major order and, for each of those,
// the block's X₁ rows in order. A block is read into T with one ScanRange
// and, when it spans X₁, kept across Scans; X₂ … X_J go through Read's
// per-table cache. At K = 1 the order is row-major and the X₁ row is
// Read's cached one too, so a Scan is Read(0), …, Read(L−1): the same gets,
// trace and cache. The gets of a Scan are therefore a function of the
// table sizes and K alone. row is valid until fn returns.
func (c *Cartesian) Scan(fn func(row []relation.Tuple) error) error {
	n1 := c.tables[0].N
	coord := make([]int64, len(c.tables)) // position in X₂ × … × X_J
	for lo := int64(0); lo < n1; lo += c.k {
		block, err := c.loadBlock(lo, min(c.k, n1-lo))
		if err != nil {
			return err
		}
		clear(coord)
		for {
			for j := 1; j < len(c.tables); j++ {
				if err := c.fetch(j, coord[j]); err != nil {
					return err
				}
			}
			for i, tup := range block {
				c.cached[0], c.cachedI[0] = tup, lo+int64(i)
				c.t.CountLogicalRead()
				if err := fn(c.cached); err != nil {
					return err
				}
			}
			j := len(coord) - 1
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

// loadBlock brings X₁'s rows [lo, lo+n) into T: at K = 1 through Read's
// cache, otherwise with one ScanRange unless the block is already held.
func (c *Cartesian) loadBlock(lo, n int64) ([]relation.Tuple, error) {
	if c.k == 1 {
		return c.cached[:1], c.fetch(0, lo)
	}
	block := c.block[:n]
	if c.blockLo == lo {
		return block, nil
	}
	c.blockLo = -1
	x1 := c.tables[0]
	err := c.t.ScanRange(x1.Region, lo, n, func(k int64, pt []byte) error {
		tup, err := x1.Schema.Decode(pt)
		if err != nil {
			return fmt.Errorf("sim: decoding %s[%d]: %w", c.t.host.RegionName(x1.Region), lo+k, err)
		}
		block[k] = tup
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.blockLo = lo
	return block, nil
}

// fetch makes table j's cached tuple its row, getting it unless it is
// already cached.
func (c *Cartesian) fetch(j int, row int64) error {
	if c.cachedI[j] == row {
		return nil
	}
	tup, err := c.t.GetTuple(c.tables[j], row)
	if err != nil {
		return err
	}
	c.cached[j], c.cachedI[j] = tup, row
	return nil
}
