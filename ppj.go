// Package ppj is a Go reproduction of "Privacy Preserving Joins" (Li &
// Chen, ICDE 2008; extended as UCB/EECS-2008-158): privacy preserving join
// algorithms for a trusted-third-party service whose only trusted component
// is a secure coprocessor.
//
// The package exposes the system through an Engine: a simulated untrusted
// host with an attached simulated coprocessor. Relations are loaded
// encrypted onto the host; the join algorithms — the paper's six plus the
// sort-based equijoin alg7, the seven rows of the internal/core algorithm
// table — run inside the coprocessor and leave encrypted results on the
// host; every host
// access is traced, and the safe algorithms' traces depend only on public
// sizes — the paper's privacy definition, enforced by this repository's
// tests.
//
//	eng, _ := ppj.NewEngine(ppj.EngineConfig{Memory: 64})
//	ta, _ := eng.Load("A", relA)
//	tb, _ := eng.Load("B", relB)
//	pred, _ := ppj.Equijoin(relA.Schema, "key", relB.Schema, "key")
//	res, _ := eng.Join(ppj.Alg5, []ppj.TableRef{ta, tb}, ppj.Pairwise(pred), ppj.JoinOptions{})
//	rows, _ := eng.Decode(res)
//
// Subsystems: internal/relation (schemas, tuples, predicates), internal/sim
// (host/coprocessor simulator and its AES-GCM sealer), internal/oblivious
// (odd-even mergesort, shuffle, decoy filter), internal/mlfsr (random
// traversal), internal/costmodel (the paper's closed forms), internal/core
// (the algorithms), internal/adversary (leak demonstrations), internal/smc
// (garbled-circuit baseline), internal/secop (device trust model) and
// internal/service (the network service).
package ppj

import (
	"fmt"

	"ppj/internal/core"
	"ppj/internal/relation"
	"ppj/internal/sim"
)

// Re-exported relational types.
type (
	// Schema describes a relation's attributes.
	Schema = relation.Schema
	// Attr is one attribute of a schema.
	Attr = relation.Attr
	// AttrType enumerates attribute types.
	AttrType = relation.AttrType
	// Tuple is a decoded row.
	Tuple = relation.Tuple
	// Row is an encoded row viewed through its schema, what predicates
	// read.
	Row = relation.Row
	// Value is a dynamically typed attribute value.
	Value = relation.Value
	// Relation is an in-memory plaintext table.
	Relation = relation.Relation
	// Predicate is an arbitrary 2-way join predicate.
	Predicate = relation.Predicate
	// MultiPredicate is a J-way join predicate.
	MultiPredicate = relation.MultiPredicate
	// TableRef references an encrypted relation on the host.
	TableRef = sim.Table
	// Result is a join outcome: encrypted output region plus statistics.
	Result = core.Result
	// Join6Report extends Result with Algorithm 6's derived parameters.
	Join6Report = core.Join6Report
	// Stats are the coprocessor's cost counters.
	Stats = sim.Stats
	// Trace is the host-observable access sequence.
	Trace = sim.Trace
)

// Attribute type constants.
const (
	Int64   = relation.Int64
	Float64 = relation.Float64
	String  = relation.String
	Bytes   = relation.Bytes
	Set     = relation.Set
)

// NewSchema validates an attribute list. See relation.NewSchema.
func NewSchema(attrs ...Attr) (*Schema, error) { return relation.NewSchema(attrs...) }

// NewRelation constructs an empty relation over a schema.
func NewRelation(s *Schema) *Relation { return relation.NewRelation(s) }

// Predicate constructors.
var (
	// Equijoin builds A.attrA = B.attrB.
	Equijoin = relation.NewEqui
	// BandJoin builds |A.attrA − B.attrB| <= width.
	BandJoin = relation.NewBand
	// LessThanJoin builds A.attrA < B.attrB.
	LessThanJoin = relation.NewLessThan
	// JaccardJoin builds jaccard(A.attrA, B.attrB) > threshold.
	JaccardJoin = relation.NewJaccard
	// Pairwise lifts a 2-way predicate to a MultiPredicate.
	Pairwise = relation.Pairwise
)

// ReferenceJoin computes the plaintext nested-loop join (the correctness
// oracle; it has no privacy properties).
func ReferenceJoin(a, b *Relation, pred Predicate) *Relation {
	return relation.ReferenceJoin(a, b, pred)
}

// MaxMatches computes N, the largest number of B rows joining one A row.
func MaxMatches(a, b *Relation, pred Predicate) int {
	return relation.MaxMatches(a, b, pred)
}

// Algorithm selects one of the paper's join algorithms.
type Algorithm int

const (
	// Alg1 is the Chapter 4 general join for small memories (§4.4.1).
	Alg1 Algorithm = iota + 1
	// Alg2 is the Chapter 4 general join for larger memories (§4.4.3).
	Alg2
	// Alg3 is the Chapter 4 sort-based equijoin (§4.5.2).
	Alg3
	// Alg4 is the Chapter 5 small-memory exact join (§5.3.1).
	Alg4
	// Alg5 is the Chapter 5 multi-scan exact join (§5.3.2).
	Alg5
	// Alg6 is the Chapter 5 privacy/efficiency trade-off join (§5.3.3).
	Alg6
	// Alg7 is the sort-based O(n log n) oblivious equijoin (after
	// Krastnikov et al.), exact output like Chapter 5.
	Alg7
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	if _, err := core.AlgorithmByNumber(int(a)); err == nil {
		return fmt.Sprintf("Algorithm %d", int(a))
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// EngineConfig parameterises an Engine.
type EngineConfig struct {
	// Memory is the coprocessor's free memory M in tuples (0 = unbounded).
	Memory int
	// Seed fixes the coprocessor's internal randomness (0 = random).
	Seed uint64
	// Plain disables real encryption in favour of the accounting-only
	// sealer, for full-scale cost measurement runs.
	Plain bool
	// TraceRecordLimit bounds raw-event retention (digest and count are
	// always kept).
	TraceRecordLimit int
}

// Engine bundles a simulated host and coprocessor.
type Engine struct {
	host *sim.Host
	cop  *sim.Coprocessor
}

// NewEngine builds a host with one attached coprocessor.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	h := sim.NewHost(cfg.TraceRecordLimit)
	var sealer sim.Sealer
	if cfg.Plain {
		sealer = sim.PlainSealer{}
	}
	cop, err := sim.NewCoprocessor(h, sim.Config{Memory: cfg.Memory, Sealer: sealer, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return &Engine{host: h, cop: cop}, nil
}

// Host exposes the untrusted host (for trace inspection).
func (e *Engine) Host() *sim.Host { return e.host }

// Coprocessor exposes the trusted device (for statistics).
func (e *Engine) Coprocessor() *sim.Coprocessor { return e.cop }

// Load encrypts a relation and stores it on the host under name.
func (e *Engine) Load(name string, rel *Relation) (TableRef, error) {
	return sim.LoadTable(e.host, e.cop.Sealer(), name, rel)
}

// JoinOptions carry per-algorithm parameters.
type JoinOptions struct {
	// N is the Chapter 4 match bound (0 = caller must precompute; the
	// service layer computes it with the paper's preprocessing pass).
	N int64
	// Pred2 is the 2-way predicate for Alg1-Alg3 (required there).
	Pred2 Predicate
	// Epsilon is Algorithm 6's privacy trade-off (default 1e-10).
	Epsilon float64
	// Delta is Algorithm 2's bookkeeping memory allowance δ.
	Delta int64
	// PreSorted tells Algorithm 3 that B arrived sorted on the join key.
	PreSorted bool
}

// Join runs the selected algorithm's row of the core.Algorithms table.
// Two-way algorithms (Alg1-3, Alg7) need exactly two tables and opts.Pred2
// (plus opts.N for the Chapter 4 ones); the others take any number of
// tables and the MultiPredicate argument.
func (e *Engine) Join(alg Algorithm, tables []TableRef, pred MultiPredicate, opts JoinOptions) (Result, error) {
	desc, err := core.AlgorithmByNumber(int(alg))
	if err != nil {
		return Result{}, fmt.Errorf("ppj: %w", err)
	}
	eps := opts.Epsilon
	if eps == 0 {
		eps = 1e-10
	}
	res, _, err := desc.Run([]*sim.Coprocessor{e.cop}, tables, core.Inputs{
		Pred: opts.Pred2, Multi: pred, N: opts.N, Delta: opts.Delta,
		PreSorted: opts.PreSorted, Epsilon: eps,
	})
	return res, err
}

// Join6Full runs Algorithm 6 and returns its full report (n*, segments,
// blemish flag).
func (e *Engine) Join6Full(tables []TableRef, pred MultiPredicate, eps float64) (Join6Report, error) {
	return core.Join6(e.cop, tables, pred, eps)
}

// Decode opens a join result and returns the real rows, dropping decoys —
// the recipient-side view.
func (e *Engine) Decode(res Result) (*Relation, error) {
	return core.DecodeOutput(e.cop, res)
}

// AggKind, AggSpec and AggResult expose the aggregation extension (a
// future-work item of the thesis answered affirmatively here: statistics
// over a join need only one pass and never materialise the result).
type (
	AggKind   = core.AggKind
	AggSpec   = core.AggSpec
	AggResult = core.AggResult
)

// Aggregate kinds.
const (
	AggCount = core.AggCount
	AggSum   = core.AggSum
	AggMin   = core.AggMin
	AggMax   = core.AggMax
	AggAvg   = core.AggAvg
)

// Aggregate computes COUNT/SUM/MIN/MAX/AVG over the join of the tables in
// a single fixed-order pass, with the accumulator inside the coprocessor.
// The access pattern depends only on L — not even on the join size.
func (e *Engine) Aggregate(tables []TableRef, pred MultiPredicate, spec AggSpec) (AggResult, error) {
	return core.Aggregate(e.cop, tables, pred, spec)
}

// Join6OnePass runs the one-pass variant of Algorithm 6 for callers that
// know the join size S a priori (public by contract or a previous run),
// saving Algorithm 6's screening pass — the affirmative answer to the
// thesis's "does a one pass algorithm exist?" question, for the known-S
// case. It fails closed if the declared S is wrong.
func (e *Engine) Join6OnePass(tables []TableRef, pred MultiPredicate, eps float64, knownS int64) (Join6Report, error) {
	return core.Join6OnePass(e.cop, tables, pred, eps, knownS)
}
