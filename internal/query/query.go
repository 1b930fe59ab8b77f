// Package query provides a small declarative layer over the join
// algorithms: a Query names the relations, the join predicate, an optional
// aggregate and an optional privacy budget; the Planner operationalises the
// paper's §4.6/§5.3.4 performance analysis to pick the cheapest algorithm
// whose guarantees satisfy the query; and Execute runs the plan on a
// coprocessor engine.
//
// This is the decision procedure behind Figure 4.1 and Table 5.1 turned
// into code: equijoins unlock Algorithm 3, γ = ⌈N/M⌉ arbitrates between
// Algorithms 1 and 2, exact-output requirements route to Chapter 5, memory
// and ε pick among Algorithms 4, 5 and 6, and aggregates skip
// materialisation entirely. Orderable two-way equijoins under the exact
// contract additionally admit Algorithm 7, the sort-based O(n log n)
// oblivious equijoin, which overtakes the scan-based plans past the
// cost-model crossover.
package query

import (
	"fmt"

	"ppj/internal/core"
	"ppj/internal/costmodel"
	"ppj/internal/relation"
	"ppj/internal/sim"
)

// OutputMode selects the privacy contract for the output size.
type OutputMode int

const (
	// PaddedN allows the Chapter 4 output shape: N·|A| oTuples, revealing
	// the public match bound N (Definition 1).
	PaddedN OutputMode = iota
	// Exact requires Chapter 5 semantics: exactly S result tuples, with S
	// the only size revealed (Definition 3).
	Exact
)

// String implements fmt.Stringer.
func (m OutputMode) String() string {
	if m == Exact {
		return "exact"
	}
	return "paddedN"
}

// Query describes a privacy preserving join request.
type Query struct {
	// Predicate is the 2-way join predicate (required unless Multi is set).
	Predicate relation.Predicate
	// Multi is the J-way predicate for more than two relations; forces
	// Chapter 5 algorithms.
	Multi relation.MultiPredicate
	// Mode selects padded (Chapter 4) or exact (Chapter 5) output.
	Mode OutputMode
	// Epsilon permits Algorithm 6 at privacy level 1−ε when positive.
	Epsilon float64
	// Aggregate, when non-nil, requests a statistic instead of rows.
	Aggregate *core.AggSpec
}

// Plan is the planner's decision.
type Plan struct {
	// Algorithm is 1..7, or 0 for the aggregation pass.
	Algorithm int
	// PredictedCost is the closed-form transfer estimate used to decide.
	PredictedCost float64
	// N is the Chapter 4 match bound (0 for Chapter 5 plans).
	N int64
	// Reason explains the choice in the analysis's terms.
	Reason string
}

// AlgorithmName renders the chosen algorithm in the contract vocabulary
// (the core.Algorithms table's name, or "aggregate" for the aggregation
// pass), so schedulers that plan per-contract (an "auto" algorithm in
// internal/server) can feed the decision back into the service execution
// path.
func (p Plan) AlgorithmName() string {
	if alg, err := core.AlgorithmByNumber(p.Algorithm); err == nil {
		return alg.Name
	}
	return "aggregate"
}

// Devices returns how many of the requested coprocessors the chosen
// algorithm can exploit: its row's device rule in core.Algorithms, and one
// for the aggregation pass.
func (p Plan) Devices(requested int) int {
	if alg, err := core.AlgorithmByNumber(p.Algorithm); err == nil {
		return alg.Devices(requested)
	}
	return 1
}

// String renders the plan.
func (p Plan) String() string {
	if p.Algorithm == 0 {
		return fmt.Sprintf("aggregate pass (cost %.3g): %s", p.PredictedCost, p.Reason)
	}
	return fmt.Sprintf("Algorithm %d (cost %.3g): %s", p.Algorithm, p.PredictedCost, p.Reason)
}

// Planner resolves queries against concrete relations.
type Planner struct {
	// Memory is the target coprocessor's free memory M in tuples.
	Memory int64
}

// Plan picks the cheapest admissible algorithm for the query over the given
// relations. It inspects the plaintext relations to derive N and S — the
// same preprocessing the paper allows the coprocessor (§4.3 "Setting N";
// Algorithm 6's screening pass).
func (pl Planner) Plan(q Query, rels []*relation.Relation) (Plan, error) {
	if pl.Memory <= 0 {
		return Plan{}, fmt.Errorf("query: planner needs positive memory")
	}
	if len(rels) < 2 {
		return Plan{}, fmt.Errorf("query: need at least two relations")
	}
	if q.Aggregate != nil {
		mp, err := q.multiPred(rels)
		if err != nil {
			return Plan{}, err
		}
		_ = mp
		l := cartSize(rels)
		return Plan{
			Algorithm:     0,
			PredictedCost: float64(l) + 1,
			Reason:        "aggregates never materialise the join: one pass, accumulator inside T",
		}, nil
	}
	if len(rels) > 2 || q.Multi != nil && q.Predicate == nil {
		return pl.planCh5(q, rels)
	}
	if q.Mode == Exact {
		return pl.planCh5(q, rels)
	}
	return pl.planCh4(q, rels)
}

// planCh4 runs the §4.6 comparison of Algorithms 1, 2 and 3.
func (pl Planner) planCh4(q Query, rels []*relation.Relation) (Plan, error) {
	if q.Predicate == nil {
		return Plan{}, fmt.Errorf("query: Chapter 4 plans need a 2-way predicate")
	}
	a, b := rels[0], rels[1]
	n := matchBound(q.Predicate, a, b)
	if n == 0 {
		n = 1
	}
	c1 := costmodel.Alg1Cost(int64(a.Len()), int64(b.Len()), n)
	c2 := costmodel.Alg2Cost(int64(a.Len()), int64(b.Len()), n, pl.Memory)
	best := Plan{Algorithm: 1, PredictedCost: c1, N: n,
		Reason: "small-memory general join (scratch rounds + oblivious sorts)"}
	if c2 < best.PredictedCost {
		gamma := costmodel.Gamma(n, pl.Memory)
		best = Plan{Algorithm: 2, PredictedCost: c2, N: n,
			Reason: fmt.Sprintf("γ = ⌈N/M⌉ = %d passes beat the sort-based costs", gamma)}
	}
	if _, isEqui := q.Predicate.(*relation.Equi); isEqui {
		c3 := costmodel.Alg3Cost(int64(a.Len()), int64(b.Len()), n, false)
		if c3 < best.PredictedCost {
			best = Plan{Algorithm: 3, PredictedCost: c3, N: n,
				Reason: "equality predicate unlocks the sort-based equijoin"}
		}
	}
	return best, nil
}

// planCh5 runs the §5.3.4 comparison of Algorithms 4, 5 and 6.
func (pl Planner) planCh5(q Query, rels []*relation.Relation) (Plan, error) {
	mp, err := q.multiPred(rels)
	if err != nil {
		return Plan{}, err
	}
	l := cartSize(rels)
	s := joinSize(q, rels, mp)

	c4 := costmodel.Alg4Cost(l, s)
	c5 := costmodel.Alg5Cost(l, s, pl.Memory)
	best := Plan{Algorithm: 4, PredictedCost: c4,
		Reason: "two-tuple memory footprint with oblivious decoy filtering"}
	if c5 < best.PredictedCost {
		best = Plan{Algorithm: 5, PredictedCost: c5,
			Reason: fmt.Sprintf("⌈S/M⌉ = %d scans, no oblivious sort", core.Join5Scans(s, pl.Memory))}
	}
	if q.Epsilon > 0 {
		c6 := costmodel.Alg6Cost(l, s, pl.Memory, q.Epsilon)
		if c6.Total < best.PredictedCost {
			best = Plan{Algorithm: 6, PredictedCost: c6.Total,
				Reason: fmt.Sprintf("privacy budget ε = %g permits n* = %d segments of random order", q.Epsilon, c6.NStar)}
		}
	}
	// Algorithm 7 is admissible for two-way equijoins over an orderable
	// attribute: the sort-based pipeline needs a total order on keys. It
	// meets the same exact-output contract (S revealed, nothing else).
	if len(rels) == 2 && q.Predicate != nil {
		if eq, ok := q.Predicate.(*relation.Equi); ok && eq.Orderable() {
			// Algorithm 7 is built from fixed networks, so its model is the
			// implementation's exact closed form at this device memory, not
			// an approximation like Eqns 5.2-5.7.
			c7 := alg7Cost(int64(rels[0].Len()), int64(rels[1].Len()), s, pl.Memory)
			if c7 < best.PredictedCost {
				best = Plan{Algorithm: 7, PredictedCost: c7,
					Reason: "orderable equijoin past the crossover: sort-based O(n log n) pipeline beats the scans"}
			}
		}
	}
	return best, nil
}

// CrossoverN57 returns the smallest n = |A| = |B| (doubling from 2) at
// which Algorithm 7 becomes cheaper than Algorithm 5 with device memory m
// on the matched-keys workload S = n (each row joins exactly once), or 0 if
// it never does up to n = 2²⁰. Past this point planCh5 flips to the
// sort-based join; below it the scan-based joins win on constants.
func CrossoverN57(m int64) int64 {
	for n := int64(2); n <= 1<<20; n <<= 1 {
		if alg7Cost(n, n, n, m) < costmodel.Alg5Cost(n*n, n, m) {
			return n
		}
	}
	return 0
}

// alg7Cost is Algorithm 7's exact uncached transfer count at device memory
// m, through the algorithm table's row: M sets its networks' block size.
func alg7Cost(aN, bN, s, m int64) float64 {
	return float64(core.Algorithms[6].Transfers([]int64{aN, bN}, s, m, core.Inputs{}, core.CacheUse{}))
}

// multiPred resolves the query's J-way predicate.
func (q Query) multiPred(rels []*relation.Relation) (relation.MultiPredicate, error) {
	if q.Multi != nil {
		return q.Multi, nil
	}
	if q.Predicate != nil && len(rels) == 2 {
		return relation.Pairwise(q.Predicate), nil
	}
	return nil, fmt.Errorf("query: no predicate covering %d relations", len(rels))
}

// matchBound computes the Chapter 4 N, using the O(|A|+|B|) histogram
// shortcut for Int64 equijoins and the paper's nested-loop preprocessing
// otherwise.
func matchBound(pred relation.Predicate, a, b *relation.Relation) int64 {
	if eq, ok := pred.(*relation.Equi); ok {
		if n, err := relation.EquijoinMatchBound(a, eq.AttrA, b, eq.AttrB); err == nil {
			return n
		}
	}
	return int64(relation.MaxMatches(a, b, pred))
}

// joinSize computes the Chapter 5 S, with the same histogram shortcut for
// two-way Int64 equijoins.
func joinSize(q Query, rels []*relation.Relation, mp relation.MultiPredicate) int64 {
	if len(rels) == 2 && q.Predicate != nil {
		if eq, ok := q.Predicate.(*relation.Equi); ok {
			if s, err := relation.EquijoinSize(rels[0], eq.AttrA, rels[1], eq.AttrB); err == nil {
				return s
			}
		}
	}
	return relation.CountMultiMatches(rels, mp)
}

func cartSize(rels []*relation.Relation) int64 {
	l := int64(1)
	for _, r := range rels {
		l *= int64(r.Len())
	}
	return l
}

// Execute plans the query and runs the chosen algorithm on a fresh engine
// (host + coprocessor with the planner's memory), returning the decoded
// result rows (or the aggregate via ExecuteAggregate).
func (pl Planner) Execute(q Query, rels []*relation.Relation, seed uint64) (*relation.Relation, Plan, error) {
	plan, err := pl.Plan(q, rels)
	if err != nil {
		return nil, Plan{}, err
	}
	if q.Aggregate != nil {
		return nil, plan, fmt.Errorf("query: use ExecuteAggregate for aggregate queries")
	}
	host := sim.NewHost(0)
	cop, err := sim.NewCoprocessor(host, sim.Config{Memory: int(pl.Memory), Seed: seed})
	if err != nil {
		return nil, Plan{}, err
	}
	tabs := make([]sim.Table, len(rels))
	for i, r := range rels {
		tabs[i], err = sim.LoadTable(host, cop.Sealer(), fmt.Sprintf("X%d", i+1), r)
		if err != nil {
			return nil, Plan{}, err
		}
	}

	alg, err := core.AlgorithmByNumber(plan.Algorithm)
	if err != nil {
		return nil, Plan{}, err
	}
	res, _, err := alg.Run([]*sim.Coprocessor{cop}, tabs, core.Inputs{
		Pred: q.Predicate, Multi: q.Multi, N: plan.N, Epsilon: q.Epsilon,
	})
	if err != nil {
		return nil, Plan{}, err
	}
	rows, err := core.DecodeOutput(cop, res)
	if err != nil {
		return nil, Plan{}, err
	}
	return rows, plan, nil
}

// ExecuteAggregate plans and runs an aggregate query.
func (pl Planner) ExecuteAggregate(q Query, rels []*relation.Relation, seed uint64) (core.AggResult, Plan, error) {
	if q.Aggregate == nil {
		return core.AggResult{}, Plan{}, fmt.Errorf("query: no aggregate in query")
	}
	plan, err := pl.Plan(q, rels)
	if err != nil {
		return core.AggResult{}, Plan{}, err
	}
	mp, err := q.multiPred(rels)
	if err != nil {
		return core.AggResult{}, Plan{}, err
	}
	host := sim.NewHost(0)
	cop, err := sim.NewCoprocessor(host, sim.Config{Memory: int(pl.Memory), Seed: seed})
	if err != nil {
		return core.AggResult{}, Plan{}, err
	}
	tabs := make([]sim.Table, len(rels))
	for i, r := range rels {
		tabs[i], err = sim.LoadTable(host, cop.Sealer(), fmt.Sprintf("X%d", i+1), r)
		if err != nil {
			return core.AggResult{}, Plan{}, err
		}
	}
	res, err := core.Aggregate(cop, tabs, mp, *q.Aggregate)
	if err != nil {
		return core.AggResult{}, Plan{}, err
	}
	return res, plan, nil
}
