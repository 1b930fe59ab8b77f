package relation

import "fmt"

// ReferenceJoin computes the plaintext nested-loop join of A and B under
// pred, composing matching rows with JoinTuples. It is the correctness
// oracle against which every privacy preserving algorithm is tested; it has
// no privacy properties of its own.
func ReferenceJoin(a, b *Relation, pred Predicate) *Relation {
	return ReferenceMultiJoin([]*Relation{a, b}, Pairwise(pred))
}

// encodedRows encodes every row of r, which Append has validated, as the
// Row a predicate reads.
func (r *Relation) encodedRows() []Row {
	rows := make([]Row, len(r.Rows))
	for i, t := range r.Rows {
		rows[i] = Row{s: r.Schema, b: r.Schema.MustEncode(t)}
	}
	return rows
}

// ReferenceMultiJoin computes the plaintext J-way join over the cartesian
// product of tables, in row-major iTuple order (the fixed order of §5.2.1).
func ReferenceMultiJoin(tables []*Relation, pred MultiPredicate) *Relation {
	schemas := make([]*Schema, len(tables))
	enc := make([][]Row, len(tables))
	for i, t := range tables {
		schemas[i], enc[i] = t.Schema, t.encodedRows()
	}
	outSchema, err := Concat(schemas...)
	if err == nil {
		err = CheckArity(pred, len(tables))
	}
	if err != nil {
		panic(fmt.Sprintf("relation: reference multi join: %v", err))
	}
	out := NewRelation(outSchema)
	idx, rows, joined := make([]int, len(tables)), make([]Row, len(tables)), make([]Tuple, len(tables))
	for j := range tables {
		if len(enc[j]) == 0 {
			return out
		}
		rows[j] = enc[j][0]
	}
	for {
		if pred.Satisfy(rows) {
			for d, i := range idx {
				joined[d] = tables[d].Rows[i]
			}
			out.MustAppend(JoinTuples(joined...))
		}
		// Step to the next iTuple, the last table fastest.
		j := len(tables) - 1
		for ; j >= 0; j-- {
			if idx[j]++; idx[j] == len(enc[j]) {
				idx[j] = 0
			}
			rows[j] = enc[j][idx[j]]
			if idx[j] > 0 {
				break
			}
		}
		if j < 0 {
			return out
		}
	}
}

// MaxMatches computes N, the maximum number of B tuples matching any single
// A tuple (§4.1). The paper notes a safe way to compute N is a nested loop
// that outputs nothing; this is that computation, run by T as preprocessing.
func MaxMatches(a, b *Relation, pred Predicate) int {
	maxN := 0
	rb := b.encodedRows()
	for _, ta := range a.encodedRows() {
		n := 0
		for _, tb := range rb {
			if pred.Match(ta, tb) {
				n++
			}
		}
		if n > maxN {
			maxN = n
		}
	}
	return maxN
}

// CountMultiMatches computes S = |f(X₁,…,X_J)|, the exact join size over the
// cartesian product, as Algorithm 6's screening pass does.
func CountMultiMatches(tables []*Relation, pred MultiPredicate) int64 {
	return int64(ReferenceMultiJoin(tables, pred).Len())
}

// Multiset summarises a relation's rows as canonical-encoding strings with
// multiplicities, so joins can be compared order-insensitively.
func Multiset(r *Relation) map[string]int {
	m := make(map[string]int, r.Len())
	for _, t := range r.Rows {
		m[string(r.Schema.MustEncode(t))]++
	}
	return m
}

// SameMultiset reports whether two relations contain the same rows with the
// same multiplicities (schema equality required).
func SameMultiset(a, b *Relation) bool {
	if !a.Schema.Equal(b.Schema) || a.Len() != b.Len() {
		return false
	}
	ma, mb := Multiset(a), Multiset(b)
	if len(ma) != len(mb) {
		return false
	}
	for k, v := range ma {
		if mb[k] != v {
			return false
		}
	}
	return true
}
