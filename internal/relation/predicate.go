package relation

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
)

// Predicate is an arbitrary 2-way join predicate over encoded rows, the
// match() function of the paper's general join algorithms (§4.4). Inside the
// simulated coprocessor every evaluation is charged a fixed cycle cost
// regardless of outcome (Fixed Time principle, §3.4.3).
type Predicate interface {
	// Match reports whether rows a (from the outer relation) and b (from
	// the inner relation) join.
	Match(a, b Row) bool
	// String describes the predicate for contracts and logs.
	String() string
}

// MultiPredicate is a J-way join predicate over one row per participating
// database, the satisfy() function of Chapter 5's algorithms.
type MultiPredicate interface {
	Satisfy(rows []Row) bool
	String() string
}

// PredicateFunc adapts a function to Predicate.
type PredicateFunc struct {
	Fn   func(a, b Row) bool
	Desc string
}

func (p PredicateFunc) Match(a, b Row) bool { return p.Fn(a, b) }
func (p PredicateFunc) String() string      { return p.Desc }

// MultiPredicateFunc adapts a function to MultiPredicate.
type MultiPredicateFunc struct {
	Fn   func(rows []Row) bool
	Desc string
}

func (p MultiPredicateFunc) Satisfy(rows []Row) bool { return p.Fn(rows) }
func (p MultiPredicateFunc) String() string          { return p.Desc }

// Pairwise lifts a 2-way predicate to a MultiPredicate over exactly two
// tables; CheckArity refuses it over any other number.
func Pairwise(p Predicate) MultiPredicate { return pairwise{p} }

type pairwise struct{ p Predicate }

func (w pairwise) Satisfy(rows []Row) bool { return w.p.Match(rows[0], rows[1]) }
func (w pairwise) String() string          { return w.p.String() }
func (pairwise) Arity() int                { return 2 }

// CheckArity refuses a join of j tables under a predicate defined over a
// different number of them, such as a Pairwise one over three.
func CheckArity(p MultiPredicate, j int) error {
	if a, ok := p.(interface{ Arity() int }); ok && a.Arity() != j {
		return fmt.Errorf("relation: predicate %q is over %d tables, the join has %d", p, a.Arity(), j)
	}
	return nil
}

// Equi is the equality predicate A.attrA = B.attrB.
type Equi struct {
	AttrA, AttrB string
	ia, ib       int
	typ          AttrType
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
	return &Equi{AttrA: attrA, AttrB: attrB, ia: ia, ib: ib, typ: sa.Attr(ia).Type}, nil
}

// Match compares the join attributes in place, with the equality of the
// decoded values: floats by value, strings without their padding, sets by
// their elements.
func (e *Equi) Match(a, b Row) bool {
	x, y := a.field(e.ia), b.field(e.ib)
	switch e.typ {
	case Float64:
		return a.Float(e.ia) == b.Float(e.ib)
	case String:
		return bytes.Equal(trimPadding(x), trimPadding(y))
	case Set: // the cardinality and the elements, sorted by Encode
		n := 2 + 4*a.SetLen(e.ia)
		return n == 2+4*b.SetLen(e.ib) && bytes.Equal(x[:n], y[:n])
	default:
		return bytes.Equal(x, y)
	}
}

func (e *Equi) String() string { return fmt.Sprintf("%s = %s", e.AttrA, e.AttrB) }

// KeyIndexA and KeyIndexB expose the resolved join-attribute positions; the
// sort-based equijoin (Algorithm 3) sorts B on KeyIndexB.
func (e *Equi) KeyIndexA() int { return e.ia }
func (e *Equi) KeyIndexB() int { return e.ib }

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

// CompareKeys three-way-compares two encoded join attributes of the
// predicate's key type in place, in the order of their decoded values:
// int64 and float64 by value, strings on their bytes up to the zero padding
// Decode trims, bytes on the full padded width. Only defined for orderable
// types; Set values compare equal.
func (e *Equi) CompareKeys(x, y []byte) int {
	switch e.typ {
	case Int64:
		return cmp.Compare(int64(binary.BigEndian.Uint64(x)), int64(binary.BigEndian.Uint64(y)))
	case Float64:
		fx, fy := math.Float64frombits(binary.BigEndian.Uint64(x)), math.Float64frombits(binary.BigEndian.Uint64(y))
		switch {
		case fx < fy:
			return -1
		case fx > fy:
			return 1
		}
	case String:
		return bytes.Compare(trimPadding(x), trimPadding(y))
	case Bytes:
		return bytes.Compare(x, y)
	}
	return 0
}

// Band is the band-join predicate |A.attrA − B.attrB| ≤ Width over numeric
// attributes, an example of a non-equality predicate the general algorithms
// support.
type Band struct {
	AttrA, AttrB string
	Width        float64
	oa, ob       int // the attributes' byte offsets
	typ          AttrType
}

// NewBand resolves attribute positions for a band join.
func NewBand(sa *Schema, attrA string, sb *Schema, attrB string, width float64) (*Band, error) {
	oa, ob, typ, err := numericPair("band", sa, attrA, sb, attrB)
	if err != nil {
		return nil, err
	}
	return &Band{AttrA: attrA, AttrB: attrB, Width: width, oa: oa, ob: ob, typ: typ}, nil
}

// numericPair resolves the byte offsets of two numeric attributes of one
// type, the operands of the kind of join named.
func numericPair(kind string, sa *Schema, attrA string, sb *Schema, attrB string) (oa, ob int, typ AttrType, err error) {
	ia, ib := sa.Index(attrA), sb.Index(attrB)
	if ia < 0 || ib < 0 {
		return 0, 0, 0, fmt.Errorf("relation: %s attributes %q/%q not found", kind, attrA, attrB)
	}
	ta, tb := sa.Attr(ia).Type, sb.Attr(ib).Type
	if ta != tb || (ta != Int64 && ta != Float64) {
		return 0, 0, 0, fmt.Errorf("relation: %s join needs matching numeric attributes, got %s/%s", kind, ta, tb)
	}
	return sa.offs[ia], sb.offs[ib], ta, nil
}

func (p *Band) Match(a, b Row) bool {
	x, y := a.word(p.oa), b.word(p.ob)
	var d float64
	if p.typ == Int64 {
		d = float64(int64(x)) - float64(int64(y))
	} else {
		d = math.Float64frombits(x) - math.Float64frombits(y)
	}
	return math.Abs(d) <= p.Width
}

func (p *Band) String() string {
	return fmt.Sprintf("|%s - %s| <= %g", p.AttrA, p.AttrB, p.Width)
}

// LessThan is the inequality predicate A.attrA < B.attrB.
type LessThan struct {
	AttrA, AttrB string
	oa, ob       int // the attributes' byte offsets
	typ          AttrType
}

// NewLessThan resolves attribute positions for an inequality join.
func NewLessThan(sa *Schema, attrA string, sb *Schema, attrB string) (*LessThan, error) {
	oa, ob, typ, err := numericPair("<", sa, attrA, sb, attrB)
	if err != nil {
		return nil, err
	}
	return &LessThan{AttrA: attrA, AttrB: attrB, oa: oa, ob: ob, typ: typ}, nil
}

func (p *LessThan) Match(a, b Row) bool {
	x, y := a.word(p.oa), b.word(p.ob)
	if p.typ == Int64 {
		return int64(x) < int64(y)
	}
	return math.Float64frombits(x) < math.Float64frombits(y)
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

// Match computes the coefficient over the encoded sets in place; the
// coefficient of two empty sets is 0. Encode stores a set's elements sorted
// and distinct, so one merge counts the intersection.
func (p *Jaccard) Match(a, b Row) bool {
	nx, ny := a.SetLen(p.ia), b.SetLen(p.ib)
	if nx == 0 && ny == 0 {
		return 0 > p.Threshold
	}
	inter := 0
	for i, j := 0, 0; i < nx && j < ny; {
		switch ex, ey := a.SetElem(p.ia, i), b.SetElem(p.ib, j); {
		case ex == ey:
			inter++
			i++
			j++
		case ex < ey:
			i++
		default:
			j++
		}
	}
	return float64(inter)/float64(nx+ny-inter) > p.Threshold
}

func (p *Jaccard) String() string {
	return fmt.Sprintf("jaccard(%s, %s) > %g", p.AttrA, p.AttrB, p.Threshold)
}
