package core

import (
	"fmt"

	"ppj/internal/relation"
	"ppj/internal/sim"
)

// Fleet is an algorithm's device rule: how many of the coprocessors a
// caller offers it can exploit.
type Fleet int

const (
	// OneDevice algorithms have no parallel schedule.
	OneDevice Fleet = iota
	// AnyDevices algorithms partition the outer relation (or the rank
	// space) across any device count.
	AnyDevices
	// Pow2Devices algorithms parallelise through the odd-even mergesort
	// network, which needs a power-of-two fleet.
	Pow2Devices
)

// Inputs are a join's arguments beyond its tables. Each algorithm reads the
// fields its row of the table names and ignores the rest.
type Inputs struct {
	// Pred is the two-way predicate (required by TwoWay algorithms).
	Pred relation.Predicate
	// Multi is the J-way predicate of Algorithms 4-6; nil lifts Pred
	// pairwise over two tables.
	Multi relation.MultiPredicate
	// N is the Chapter 4 match bound of Algorithms 1-3.
	N int64
	// Delta is Algorithm 2's bookkeeping allowance δ.
	Delta int64
	// PreSorted tells Algorithm 3 that B arrived sorted on the join key.
	PreSorted bool
	// Epsilon is Algorithm 6's privacy trade-off.
	Epsilon float64
	// Cache, when set, selects Algorithm 7's cached schedule (split sort
	// plus odd-even merge) with KeyA and KeyB as the sides' cache keys.
	Cache      SortedCache
	KeyA, KeyB string
}

// Algorithm is one row of the algorithm table. The paper defines every
// algorithm by the same contract — an admissibility rule, a host-visible
// access sequence that is a function of public sizes only, and an exact
// transfer count — and a row states exactly that, so the planner, the
// service, the facade, the CLIs and the tests range over Algorithms instead
// of naming alg1..alg7 themselves.
type Algorithm struct {
	// Name is the contract vocabulary ("alg1".."alg7") and Number the
	// chapter numbering the planner and the facade use.
	Name   string
	Number int
	// TwoWay algorithms take exactly two tables and Inputs.Pred; the others
	// take one or more tables and Inputs.Multi.
	TwoWay bool
	// Equi algorithms need an equality predicate (*relation.Equi);
	// Orderable ones additionally a total order on the join attribute.
	Equi, Orderable bool
	// Padded output is N·|A| oTuples, decoys included (Definition 1);
	// otherwise it is exactly the S real results (Definition 3).
	Padded bool
	// Fleet is the device rule.
	Fleet Fleet
	// UsesCache reports that the algorithm consults Inputs.Cache.
	UsesCache bool

	transfers func(sizes []int64, s, m int64, in Inputs, use CacheUse) int64
	run       func(cops []*sim.Coprocessor, t []sim.Table, in Inputs) (Result, CacheUse, error)
}

// Algorithms is the table, indexed by Number-1. Algorithms 2, 3, 4, 5 and 7
// have one schedule each: the sequential algorithm is the device-group form
// at P=1, trace for trace. Algorithm 7 has two front halves (monolithic
// union sort without a cache, split halves plus odd-even merge with one)
// in front of one tail.
var Algorithms = []*Algorithm{
	{Name: "alg1", Number: 1, TwoWay: true, Padded: true, Fleet: OneDevice,
		transfers: func(z []int64, _, _ int64, in Inputs, _ CacheUse) int64 {
			return Join1Transfers(z[0], z[1], in.N)
		},
		run: func(c []*sim.Coprocessor, t []sim.Table, in Inputs) (Result, CacheUse, error) {
			return uncached(Join1(c[0], t[0], t[1], in.Pred, in.N))
		}},
	{Name: "alg2", Number: 2, TwoWay: true, Padded: true, Fleet: AnyDevices,
		transfers: func(z []int64, _, m int64, in Inputs, _ CacheUse) int64 {
			return Join2Transfers(z[0], z[1], in.N, m, in.Delta)
		},
		run: func(c []*sim.Coprocessor, t []sim.Table, in Inputs) (Result, CacheUse, error) {
			return uncached(ParallelJoin2(c, t[0], t[1], in.Pred, in.N, in.Delta))
		}},
	{Name: "alg3", Number: 3, TwoWay: true, Equi: true, Padded: true, Fleet: AnyDevices,
		transfers: func(z []int64, _, _ int64, in Inputs, _ CacheUse) int64 {
			return Join3Transfers(z[0], z[1], in.N, in.PreSorted)
		},
		run: func(c []*sim.Coprocessor, t []sim.Table, in Inputs) (Result, CacheUse, error) {
			return uncached(ParallelJoin3(c, t[0], t[1], in.Pred.(*relation.Equi), in.N, in.PreSorted))
		}},
	{Name: "alg4", Number: 4, Fleet: Pow2Devices,
		transfers: func(z []int64, s, _ int64, _ Inputs, _ CacheUse) int64 { return Join4Transfers(z, s) },
		run: func(c []*sim.Coprocessor, t []sim.Table, in Inputs) (Result, CacheUse, error) {
			return uncached(join4(c, t, in.Multi))
		}},
	{Name: "alg5", Number: 5, Fleet: AnyDevices,
		transfers: func(z []int64, s, m int64, _ Inputs, _ CacheUse) int64 { return Join5Transfers(z, s, m) },
		run: func(c []*sim.Coprocessor, t []sim.Table, in Inputs) (Result, CacheUse, error) {
			return uncached(ParallelJoin5(c, t, in.Multi))
		}},
	{Name: "alg6", Number: 6, Fleet: OneDevice,
		transfers: func(z []int64, s, m int64, in Inputs, _ CacheUse) int64 {
			return Join6Transfers(z, s, m, in.Epsilon)
		},
		run: func(c []*sim.Coprocessor, t []sim.Table, in Inputs) (Result, CacheUse, error) {
			rep, err := Join6(c[0], t, in.Multi, in.Epsilon)
			return rep.Result, CacheUse{}, err
		}},
	{Name: "alg7", Number: 7, TwoWay: true, Equi: true, Orderable: true, Fleet: Pow2Devices, UsesCache: true,
		transfers: func(z []int64, s, m int64, in Inputs, use CacheUse) int64 {
			if in.Cache != nil {
				return join7CachedTransfers(z[0], z[1], s, use.HitA, use.HitB, a7Block(m))
			}
			return join7Transfers(z[0], z[1], s, a7Block(m))
		},
		run: func(c []*sim.Coprocessor, t []sim.Table, in Inputs) (Result, CacheUse, error) {
			return join7(c, t[0], t[1], in.Pred.(*relation.Equi), in.Cache, in.KeyA, in.KeyB)
		}},
}

func uncached(res Result, err error) (Result, CacheUse, error) { return res, CacheUse{}, err }

// AlgorithmByName resolves a contract algorithm name.
func AlgorithmByName(name string) (*Algorithm, error) {
	for _, a := range Algorithms {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("%w: unknown algorithm %q", errInvalid, name)
}

// AlgorithmByNumber resolves a chapter number 1..len(Algorithms).
func AlgorithmByNumber(n int) (*Algorithm, error) {
	if n < 1 || n > len(Algorithms) {
		return nil, fmt.Errorf("%w: unknown algorithm %d", errInvalid, n)
	}
	return Algorithms[n-1], nil
}

// Devices returns how many of the requested coprocessors the algorithm can
// exploit under its device rule.
func (a *Algorithm) Devices(requested int) int {
	switch {
	case requested < 1 || a.Fleet == OneDevice:
		return 1
	case a.Fleet == Pow2Devices:
		return pow2Prefix(requested)
	}
	return requested
}

// Admits reports whether the algorithm accepts a join over the given number
// of tables with in: the arity and the predicate class its row names. Run
// refuses what it does not admit, and the planner ranges over what it does.
func (a *Algorithm) Admits(tables int, in Inputs) error {
	eq, isEqui := in.Pred.(*relation.Equi)
	switch {
	case a.TwoWay && tables != 2:
		return fmt.Errorf("%w: %s needs exactly 2 tables, got %d", errInvalid, a.Name, tables)
	case a.TwoWay && in.Pred == nil:
		return fmt.Errorf("%w: %s needs a two-way predicate", errInvalid, a.Name)
	case a.Equi && !isEqui:
		return fmt.Errorf("%w: %s needs an equality predicate, got %s", errInvalid, a.Name, in.Pred)
	case a.Orderable && !eq.Orderable():
		return fmt.Errorf("%w: %s needs an orderable join attribute", errInvalid, a.Name)
	case !a.TwoWay && in.Multi == nil && (in.Pred == nil || tables != 2):
		return fmt.Errorf("%w: %s needs a predicate over its %d tables", errInvalid, a.Name, tables)
	}
	return nil
}

// Run executes the algorithm on cops over tables: one schedule spread over
// the fleet, which on one device is the sequential algorithm, and for
// algorithms that use it the cached front half when in carries a cache.
// Inadmissible calls — a device count the Fleet rule does not yield, or
// what Admits refuses — are refused before any transfer is charged.
func (a *Algorithm) Run(cops []*sim.Coprocessor, tables []sim.Table, in Inputs) (Result, CacheUse, error) {
	if len(cops) < 1 || a.Devices(len(cops)) != len(cops) {
		return Result{}, CacheUse{}, fmt.Errorf("%w: %s cannot use %d devices", errInvalid, a.Name, len(cops))
	}
	if err := a.Admits(len(tables), in); err != nil {
		return Result{}, CacheUse{}, err
	}
	if !a.TwoWay && in.Multi == nil {
		in.Multi = relation.Pairwise(in.Pred)
	}
	return a.run(cops, tables, in)
}

// Transfers is the closed-form transfer count of the algorithm as a function
// of public quantities only: the input sizes, the join size s, the device
// memory m, the public fields of in (N, δ, ε, pre-sortedness, whether a
// cache participates) and, with a cache, the hit bits. It is what Run
// charges, summed over the fleet, exactly at every admissible P — a fleet
// sorts with the same network one device runs — except for Algorithm 5 at
// P > 1, whose fleet runs Σᵢ ⌈blkᵢ/M⌉ scans instead of ⌈S/M⌉, and a
// one-row table at P > 1, whose row every device fetches. Algorithm 6's
// form is a worst-case bound once s exceeds m (its random-order reads reuse
// coordinates).
func (a *Algorithm) Transfers(sizes []int64, s, m int64, in Inputs, use CacheUse) int64 {
	return a.transfers(sizes, s, m, in, use)
}
