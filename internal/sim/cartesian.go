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
// are not charged against the M oTuple slots.
type Cartesian struct {
	t      *Coprocessor
	tables []Table
	// strides[j] is the product of sizes of tables j+1..J-1.
	strides []int64
	size    int64
	cached  []relation.Tuple
	cachedI []int64
}

// NewCartesian builds the view. The product of table sizes must be nonzero
// and fit in int64.
func NewCartesian(t *Coprocessor, tables []Table) (*Cartesian, error) {
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
	return &Cartesian{
		t:       t,
		tables:  tables,
		strides: strides,
		size:    size,
		cached:  make([]relation.Tuple, len(tables)),
		cachedI: cachedI,
	}, nil
}

// Size returns L = |D|.
func (c *Cartesian) Size() int64 { return c.size }

// Coords decomposes a logical index into per-table row indices.
func (c *Cartesian) Coords(logical int64) []int64 {
	out := make([]int64, len(c.tables))
	for j := range c.tables {
		out[j] = (logical / c.strides[j]) % c.tables[j].N
	}
	return out
}

// Logical recomposes per-table coordinates into the logical index.
func (c *Cartesian) Logical(coords []int64) int64 {
	var idx int64
	for j := range c.tables {
		idx += coords[j] * c.strides[j]
	}
	return idx
}

// Read materialises the iTuple at a logical index inside T, fetching only
// the per-table tuples whose coordinate changed since the previous Read.
// The returned slice is valid until the next Read.
func (c *Cartesian) Read(logical int64) ([]relation.Tuple, error) {
	if logical < 0 || logical >= c.size {
		return nil, fmt.Errorf("sim: logical index %d out of range [0,%d)", logical, c.size)
	}
	c.t.CountLogicalRead()
	for j := range c.tables {
		rowIdx := (logical / c.strides[j]) % c.tables[j].N
		if c.cachedI[j] == rowIdx {
			continue
		}
		tup, err := c.t.GetTuple(c.tables[j], rowIdx)
		if err != nil {
			return nil, err
		}
		c.cached[j] = tup
		c.cachedI[j] = rowIdx
	}
	return c.cached, nil
}
