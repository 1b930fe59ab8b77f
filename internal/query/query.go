// Package query provides a small declarative layer over the join
// algorithms: a Query names the relations, the join predicate, an optional
// aggregate and an optional privacy budget; the Planner picks the cheapest
// algorithm whose guarantees satisfy the query; and Execute runs the plan
// on a coprocessor engine.
//
// This is the decision procedure of the paper's §4.6/§5.3.4 analysis
// (Figure 4.1, Table 5.1) as an argmin over the core.Algorithms table: each
// row's Admits says whether it accepts the query (arity, predicate class —
// an equijoin unlocks Algorithm 3, an orderable two-way equijoin Algorithm
// 7), the output mode chooses the padded Chapter 4 rows or the exact
// Chapter 5 ones, ε > 0 admits Algorithm 6, and each admissible row is
// priced by its exact closed-form transfer count at the planner's memory.
// Aggregates skip materialisation entirely.
package query

import (
	"fmt"
	"slices"
	"strings"

	"ppj/internal/core"
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
	// PredictedCost is the chosen row's closed-form transfer count at the
	// planner's memory: exact, except for Algorithm 6 once S > M, where it
	// is a bound.
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
// relations: the row of core.Algorithms with the fewest exact transfers at
// the planner's memory among the rows that admit the query — padded rows
// when the mode allows padding and one of them admits it, exact rows
// otherwise, and Algorithm 6 only under a privacy budget. Ties go to the
// lower number. It inspects the plaintext relations to derive N and S — the
// same preprocessing the paper allows the coprocessor (§4.3 "Setting N";
// Algorithm 6's screening pass).
func (pl Planner) Plan(q Query, rels []*relation.Relation) (Plan, error) {
	if pl.Memory <= 0 {
		return Plan{}, fmt.Errorf("query: planner needs positive memory")
	}
	if len(rels) < 2 {
		return Plan{}, fmt.Errorf("query: need at least two relations")
	}
	sizes := make([]int64, len(rels))
	for i, r := range rels {
		sizes[i] = int64(r.Len())
	}
	if q.Aggregate != nil {
		if _, err := q.multiPred(rels); err != nil {
			return Plan{}, err
		}
		return Plan{
			Algorithm:     0,
			PredictedCost: float64(core.AggregateTransfers(sizes)),
			Reason:        "aggregates never materialise the join: one pass, accumulator inside T",
		}, nil
	}
	in := core.Inputs{Pred: q.Predicate, Multi: q.Multi, Epsilon: q.Epsilon}
	padded := q.Mode == PaddedN && slices.ContainsFunc(core.Algorithms, func(a *core.Algorithm) bool {
		return a.Padded && a.Admits(len(rels), in) == nil
	})
	var s int64
	if padded {
		in.N = MatchBound(q.Predicate, rels[0], rels[1])
	} else {
		mp, err := q.multiPred(rels)
		if err != nil {
			return Plan{}, err
		}
		s = joinSize(q, rels, mp)
	}
	best := Plan{N: in.N}
	var priced []string
	for _, a := range core.Algorithms {
		if a.Padded != padded || a.Number == 6 && q.Epsilon <= 0 || a.Admits(len(rels), in) != nil {
			continue
		}
		cost := float64(a.Transfers(sizes, s, pl.Memory, in, core.CacheUse{}))
		priced = append(priced, fmt.Sprintf("%s %.0f", a.Name, cost))
		if best.Algorithm == 0 || cost < best.PredictedCost {
			best.Algorithm, best.PredictedCost = a.Number, cost
		}
	}
	if best.Algorithm == 0 {
		return Plan{}, fmt.Errorf("query: no algorithm admits the query over %d relations", len(rels))
	}
	best.Reason = "fewest transfers of the admissible rows: " + strings.Join(priced, ", ")
	return best, nil
}

// CrossoverN57 returns the smallest n = |A| = |B| (doubling from 2) at
// which Algorithm 7 becomes cheaper than Algorithm 5 with device memory m
// on the matched-keys workload S = n (each row joins exactly once), or 0 if
// it never does up to n = 2²⁰. Past this point the planner flips to the
// sort-based join; below it the scan-based joins win on constants.
func CrossoverN57(m int64) int64 {
	for n := int64(2); n <= 1<<20; n <<= 1 {
		if alg7Cost(n, n, n, m) < float64(core.Join5Transfers([]int64{n, n}, n, m)) {
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
		return q.Multi, relation.CheckArity(q.Multi, len(rels))
	}
	if q.Predicate != nil && len(rels) == 2 {
		return relation.Pairwise(q.Predicate), nil
	}
	return nil, fmt.Errorf("query: no predicate covering %d relations", len(rels))
}

// MatchBound computes the Chapter 4 N a padded row runs with, using the
// O(|A|+|B|) histogram shortcut for Int64 equijoins and the paper's
// nested-loop preprocessing otherwise. It is floored at 1: the padded rows
// refuse N = 0, and a join with no matches still pads one oTuple per A row.
func MatchBound(pred relation.Predicate, a, b *relation.Relation) int64 {
	if eq, ok := pred.(*relation.Equi); ok {
		if n, err := relation.EquijoinMatchBound(a, eq.AttrA, b, eq.AttrB); err == nil {
			return max(1, n)
		}
	}
	return max(1, int64(relation.MaxMatches(a, b, pred)))
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
	alg, err := core.AlgorithmByNumber(plan.Algorithm)
	if err != nil {
		return nil, Plan{}, err
	}
	cop, tabs, err := pl.load(rels, seed)
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
	cop, tabs, err := pl.load(rels, seed)
	if err != nil {
		return core.AggResult{}, Plan{}, err
	}
	res, err := core.Aggregate(cop, tabs, mp, *q.Aggregate)
	if err != nil {
		return core.AggResult{}, Plan{}, err
	}
	return res, plan, nil
}

// load builds a fresh engine — a host and a coprocessor with the planner's
// memory — and seals the relations into it as tables X1, X2, ….
func (pl Planner) load(rels []*relation.Relation, seed uint64) (*sim.Coprocessor, []sim.Table, error) {
	host := sim.NewHost(0)
	cop, err := sim.NewCoprocessor(host, sim.Config{Memory: int(pl.Memory), Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	tabs := make([]sim.Table, len(rels))
	for i, r := range rels {
		if tabs[i], err = sim.LoadTable(host, cop.Sealer(), fmt.Sprintf("X%d", i+1), r); err != nil {
			return nil, nil, err
		}
	}
	return cop, tabs, nil
}
