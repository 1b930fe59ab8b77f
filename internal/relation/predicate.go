package relation

import (
	"bytes"
	"fmt"
	"math"
)

// Predicate is an arbitrary 2-way join predicate over decoded tuples, the
// match() function of the paper's general join algorithms (§4.4). Inside the
// simulated coprocessor every evaluation is charged a fixed cycle cost
// regardless of outcome (Fixed Time principle, §3.4.3).
type Predicate interface {
	// Match reports whether tuples a (from the outer relation) and b (from
	// the inner relation) join.
	Match(a, b Tuple) bool
	// String describes the predicate for contracts and logs.
	String() string
}

// MultiPredicate is a J-way join predicate over one tuple per participating
// database, the satisfy() function of Chapter 5's algorithms.
type MultiPredicate interface {
	Satisfy(tuples []Tuple) bool
	String() string
}

// PredicateFunc adapts a function to Predicate.
type PredicateFunc struct {
	Fn   func(a, b Tuple) bool
	Desc string
}

func (p PredicateFunc) Match(a, b Tuple) bool { return p.Fn(a, b) }
func (p PredicateFunc) String() string        { return p.Desc }

// MultiPredicateFunc adapts a function to MultiPredicate.
type MultiPredicateFunc struct {
	Fn   func(tuples []Tuple) bool
	Desc string
}

func (p MultiPredicateFunc) Satisfy(tuples []Tuple) bool { return p.Fn(tuples) }
func (p MultiPredicateFunc) String() string              { return p.Desc }

// Pairwise lifts a 2-way predicate to a MultiPredicate over exactly two
// tables.
func Pairwise(p Predicate) MultiPredicate {
	return MultiPredicateFunc{
		Fn: func(tuples []Tuple) bool {
			if len(tuples) != 2 {
				return false
			}
			return p.Match(tuples[0], tuples[1])
		},
		Desc: p.String(),
	}
}

// valueEqual compares two values of the same declared type.
func valueEqual(t AttrType, a, b Value) bool {
	switch t {
	case Int64:
		return a.I == b.I
	case Float64:
		return a.F == b.F
	case String:
		return a.S == b.S
	case Bytes:
		return bytes.Equal(a.B, b.B)
	case Set:
		x, y := normalizeSet(a.SetElems), normalizeSet(b.SetElems)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Equi is the equality predicate A.attrA = B.attrB.
type Equi struct {
	SchemaA, SchemaB *Schema
	AttrA, AttrB     string
	ia, ib           int
	typ              AttrType
}

// NewEqui resolves attribute positions and checks type compatibility.
func NewEqui(sa *Schema, attrA string, sb *Schema, attrB string) (*Equi, error) {
	ia, ib := sa.Index(attrA), sb.Index(attrB)
	if ia < 0 {
		return nil, fmt.Errorf("relation: no attribute %q in %s", attrA, sa)
	}
	if ib < 0 {
		return nil, fmt.Errorf("relation: no attribute %q in %s", attrB, sb)
	}
	if sa.Attr(ia).Type != sb.Attr(ib).Type {
		return nil, fmt.Errorf("relation: equijoin attribute types differ: %s vs %s",
			sa.Attr(ia).Type, sb.Attr(ib).Type)
	}
	return &Equi{SchemaA: sa, SchemaB: sb, AttrA: attrA, AttrB: attrB,
		ia: ia, ib: ib, typ: sa.Attr(ia).Type}, nil
}

func (e *Equi) Match(a, b Tuple) bool {
	return valueEqual(e.typ, a[e.ia], b[e.ib])
}

func (e *Equi) String() string { return fmt.Sprintf("%s = %s", e.AttrA, e.AttrB) }

// KeyIndexA and KeyIndexB expose the resolved join-attribute positions; the
// sort-based equijoin (Algorithm 3) sorts B on KeyIndexB.
func (e *Equi) KeyIndexA() int { return e.ia }
func (e *Equi) KeyIndexB() int { return e.ib }

// Less orders inner-relation tuples by the join attribute; only defined for
// orderable types (Int64, Float64, String, Bytes).
func (e *Equi) Less(x, y Tuple) bool {
	a, b := x[e.ib], y[e.ib]
	switch e.typ {
	case Int64:
		return a.I < b.I
	case Float64:
		return a.F < b.F
	case String:
		return a.S < b.S
	case Bytes:
		return bytes.Compare(a.B, b.B) < 0
	default:
		return false
	}
}

// Orderable reports whether the join-attribute type admits a total order
// (everything but Set), the precondition of the sort-based equijoins
// (Algorithms 3 and 7).
func (e *Equi) Orderable() bool {
	switch e.typ {
	case Int64, Float64, String, Bytes:
		return true
	default:
		return false
	}
}

// CompareKeys three-way-compares two join-attribute values of the
// predicate's key type. Only defined for orderable types; Set values
// compare equal.
func (e *Equi) CompareKeys(a, b Value) int {
	switch e.typ {
	case Int64:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
	case Float64:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
	case String:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		}
	case Bytes:
		return bytes.Compare(a.B, b.B)
	}
	return 0
}

// Band is the band-join predicate |A.attrA − B.attrB| ≤ Width over numeric
// attributes, an example of a non-equality predicate the general algorithms
// support.
type Band struct {
	AttrA, AttrB string
	Width        float64
	ia, ib       int
	typ          AttrType
}

// NewBand resolves attribute positions for a band join.
func NewBand(sa *Schema, attrA string, sb *Schema, attrB string, width float64) (*Band, error) {
	ia, ib := sa.Index(attrA), sb.Index(attrB)
	if ia < 0 || ib < 0 {
		return nil, fmt.Errorf("relation: band attributes %q/%q not found", attrA, attrB)
	}
	ta, tb := sa.Attr(ia).Type, sb.Attr(ib).Type
	if ta != tb || (ta != Int64 && ta != Float64) {
		return nil, fmt.Errorf("relation: band join needs matching numeric attributes, got %s/%s", ta, tb)
	}
	return &Band{AttrA: attrA, AttrB: attrB, Width: width, ia: ia, ib: ib, typ: ta}, nil
}

func (p *Band) Match(a, b Tuple) bool {
	var d float64
	if p.typ == Int64 {
		d = float64(a[p.ia].I) - float64(b[p.ib].I)
	} else {
		d = a[p.ia].F - b[p.ib].F
	}
	return math.Abs(d) <= p.Width
}

func (p *Band) String() string {
	return fmt.Sprintf("|%s - %s| <= %g", p.AttrA, p.AttrB, p.Width)
}

// LessThan is the inequality predicate A.attrA < B.attrB.
type LessThan struct {
	AttrA, AttrB string
	ia, ib       int
	typ          AttrType
}

// NewLessThan resolves attribute positions for an inequality join.
func NewLessThan(sa *Schema, attrA string, sb *Schema, attrB string) (*LessThan, error) {
	ia, ib := sa.Index(attrA), sb.Index(attrB)
	if ia < 0 || ib < 0 {
		return nil, fmt.Errorf("relation: attributes %q/%q not found", attrA, attrB)
	}
	ta, tb := sa.Attr(ia).Type, sb.Attr(ib).Type
	if ta != tb || (ta != Int64 && ta != Float64) {
		return nil, fmt.Errorf("relation: < join needs matching numeric attributes, got %s/%s", ta, tb)
	}
	return &LessThan{AttrA: attrA, AttrB: attrB, ia: ia, ib: ib, typ: ta}, nil
}

func (p *LessThan) Match(a, b Tuple) bool {
	if p.typ == Int64 {
		return a[p.ia].I < b[p.ib].I
	}
	return a[p.ia].F < b[p.ib].F
}

func (p *LessThan) String() string { return fmt.Sprintf("%s < %s", p.AttrA, p.AttrB) }

// Jaccard is the set-similarity predicate |a∩b|/|a∪b| > Threshold, the
// paper's example of a similarity join (Chapter 1): "for set-valued
// attributes, the goal of Jaccard coefficient > f is to find all set pairs
// where the ratio of the intersection size to union size is greater than a
// fraction f".
type Jaccard struct {
	AttrA, AttrB string
	Threshold    float64
	ia, ib       int
}

// NewJaccard resolves attribute positions for a Jaccard similarity join.
func NewJaccard(sa *Schema, attrA string, sb *Schema, attrB string, threshold float64) (*Jaccard, error) {
	ia, ib := sa.Index(attrA), sb.Index(attrB)
	if ia < 0 || ib < 0 {
		return nil, fmt.Errorf("relation: attributes %q/%q not found", attrA, attrB)
	}
	if sa.Attr(ia).Type != Set || sb.Attr(ib).Type != Set {
		return nil, fmt.Errorf("relation: Jaccard join needs Set attributes")
	}
	return &Jaccard{AttrA: attrA, AttrB: attrB, Threshold: threshold, ia: ia, ib: ib}, nil
}

func (p *Jaccard) Match(a, b Tuple) bool {
	return JaccardCoefficient(a[p.ia].SetElems, b[p.ib].SetElems) > p.Threshold
}

func (p *Jaccard) String() string {
	return fmt.Sprintf("jaccard(%s, %s) > %g", p.AttrA, p.AttrB, p.Threshold)
}

// JaccardCoefficient computes |x∩y|/|x∪y|; the coefficient of two empty sets
// is defined as 0.
func JaccardCoefficient(x, y []uint32) float64 {
	xs, ys := normalizeSet(x), normalizeSet(y)
	if len(xs) == 0 && len(ys) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(xs) && j < len(ys) {
		switch {
		case xs[i] == ys[j]:
			inter++
			i++
			j++
		case xs[i] < ys[j]:
			i++
		default:
			j++
		}
	}
	union := len(xs) + len(ys) - inter
	return float64(inter) / float64(union)
}
