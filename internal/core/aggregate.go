package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"ppj/internal/relation"
	"ppj/internal/sim"
)

// This file implements the aggregation extension the thesis poses as future
// work (Chapter 6): "Aggregation queries output statistics over the join of
// two tables. It is not necessary to materialize the join result, but only
// to give statistics over the join table. In this case, we only need to
// worry about leaking information when accessing the input tables, but not
// the output tables. Do efficient algorithms exist for this simplified
// task?"
//
// The answer in the coprocessor model is yes, and trivially so: the
// accumulator lives entirely inside T, so a single fixed-order scan of D
// suffices — cost L+1, one pass, with an access pattern that is a function
// of L alone (it does not even depend on S). This beats every
// materialising algorithm of Chapter 5 and realises the one-pass behaviour
// the thesis wonders about, for the aggregate special case.

// AggKind enumerates the supported aggregates.
type AggKind uint8

const (
	// AggCount counts joining iTuples.
	AggCount AggKind = iota
	// AggSum sums a numeric attribute over joining iTuples.
	AggSum
	// AggMin takes the minimum of a numeric attribute.
	AggMin
	// AggMax takes the maximum of a numeric attribute.
	AggMax
	// AggAvg averages a numeric attribute.
	AggAvg
)

// String implements fmt.Stringer.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "COUNT(*)"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return fmt.Sprintf("AggKind(%d)", uint8(k))
	}
}

// AggSpec selects an aggregate over the join of the input tables. For
// everything but AggCount, Table/Attr locate the aggregated numeric
// attribute (Int64 or Float64) in one of the input tables.
type AggSpec struct {
	Kind  AggKind
	Table int
	Attr  string
}

// AggResult is the single statistic an aggregation query outputs.
type AggResult struct {
	Kind  AggKind
	Count int64
	// Value holds the sum, min, max or average as a float; for AggCount it
	// mirrors Count.
	Value float64
	// Valid is false for MIN/MAX/AVG over an empty join.
	Valid bool
	Stats sim.Stats
}

// Aggregate computes a privacy preserving aggregation over the join of the
// tables: a single fixed-order scan of D with the accumulator inside T,
// followed by one encrypted output cell. The host sees L logical reads and
// one put — a pattern independent of every input value and even of the
// join size.
func Aggregate(t *sim.Coprocessor, tables []sim.Table, pred relation.MultiPredicate, spec AggSpec) (AggResult, error) {
	_, cart, err := prepCh5(t, tables)
	if err != nil {
		return AggResult{}, err
	}
	attrIdx := -1
	var attrType relation.AttrType
	if spec.Kind != AggCount {
		if spec.Table < 0 || spec.Table >= len(tables) {
			return AggResult{}, fmt.Errorf("%w: aggregate table %d out of range", errInvalid, spec.Table)
		}
		schema := tables[spec.Table].Schema
		attrIdx = schema.Index(spec.Attr)
		if attrIdx < 0 {
			return AggResult{}, fmt.Errorf("%w: no attribute %q in table %d", errInvalid, spec.Attr, spec.Table)
		}
		attrType = schema.Attr(attrIdx).Type
		if attrType != relation.Int64 && attrType != relation.Float64 {
			return AggResult{}, fmt.Errorf("%w: aggregate over non-numeric attribute %q", errInvalid, spec.Attr)
		}
	}
	t.ResetStats()

	res := AggResult{Kind: spec.Kind}
	var sum float64
	minV, maxV := math.Inf(1), math.Inf(-1)
	l := cart.Size()
	for i := int64(0); i < l; i++ {
		row, err := cart.Read(i)
		if err != nil {
			return AggResult{}, err
		}
		t.ChargePredicate()
		if !pred.Satisfy(row) {
			continue
		}
		res.Count++
		if attrIdx >= 0 {
			var v float64
			if attrType == relation.Int64 {
				v = float64(row[spec.Table][attrIdx].I)
			} else {
				v = row[spec.Table][attrIdx].F
			}
			sum += v
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
	}
	switch spec.Kind {
	case AggCount:
		res.Value = float64(res.Count)
		res.Valid = true
	case AggSum:
		res.Value = sum
		res.Valid = true
	case AggMin:
		res.Value, res.Valid = minV, res.Count > 0
	case AggMax:
		res.Value, res.Valid = maxV, res.Count > 0
	case AggAvg:
		if res.Count > 0 {
			res.Value, res.Valid = sum/float64(res.Count), true
		}
	default:
		return AggResult{}, fmt.Errorf("%w: unknown aggregate %d", errInvalid, spec.Kind)
	}

	// The single output cell: fixed size regardless of the statistic.
	out := t.Host().FreshRegion("agg.out", 1)
	cell := make([]byte, 17)
	binary.BigEndian.PutUint64(cell[0:], uint64(res.Count))
	binary.BigEndian.PutUint64(cell[8:], math.Float64bits(res.Value))
	if res.Valid {
		cell[16] = 1
	}
	if err := t.Put(out, 0, cell); err != nil {
		return AggResult{}, err
	}
	if err := t.RequestDisk(out, 0, 1); err != nil {
		return AggResult{}, err
	}
	res.Stats = t.Stats()
	return res, nil
}

// AggregateTransfers is the exact transfer count: the sequential-scan gets
// of D plus the single output put.
func AggregateTransfers(sizes []int64) int64 {
	gets, _ := scanGets(sizes, 1)
	return gets + 1
}
