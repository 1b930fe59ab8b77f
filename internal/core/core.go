// Package core implements the paper's contribution: the privacy preserving
// join algorithms. Chapter 4's Algorithms 1-3 operate on two relations with
// a public match bound N (the maximum number of B tuples joining any single
// A tuple); Chapter 5's Algorithms 4-6 operate on the cartesian product of
// any number of relations and reveal only the public sizes (L, S, M).
//
// Every algorithm takes a sim.Coprocessor and leaves its encrypted output in
// a host region of fixed-size oTuple cells; an oTuple is either a real join
// result or a decoy — "a string of a fixed pattern with the same length as a
// real join result" (§5.2.1) — indistinguishable once encrypted. The package
// also contains the unsafe designs the paper dissects (naive nested loop,
// blocked flush, sort-merge, grace hash, commutative encryption), which the
// adversary package demonstrates leaks against.
package core

import (
	"errors"
	"fmt"

	"ppj/internal/relation"
	"ppj/internal/sim"
)

// oTuple envelope: one flag byte followed by the fixed-size encoded join
// tuple (zeroes for decoys). All oTuples of a join have identical length
// (Fixed Size principle, §3.4.3).
const (
	flagDecoy byte = 0x00
	flagReal  byte = 0x01
)

// realCell builds a real oTuple around the join of rows: the concatenation
// of their encodings is the encoding of the joined row under the Concat
// schema, so nothing is decoded or re-encoded.
func realCell(rows ...relation.Row) []byte {
	n := 1
	for _, r := range rows {
		n += len(r.Encoded())
	}
	out := append(make([]byte, 0, n), flagReal)
	for _, r := range rows {
		out = append(out, r.Encoded()...)
	}
	return out
}

// getRow gets row i of tab into T, as a row of its schema.
func getRow(t *sim.Coprocessor, tab sim.Table, i int64) (relation.Row, error) {
	pt, err := t.Get(tab.Region, i)
	if err != nil {
		return relation.Row{}, err
	}
	return rowOf(tab, i, pt)
}

// rowOf views pt, the plaintext of tab's row i, as a row of tab's schema.
func rowOf(tab sim.Table, i int64, pt []byte) (relation.Row, error) {
	r, err := tab.Schema.Row(pt)
	if err != nil {
		return r, fmt.Errorf("core: row %d: %w", i, err)
	}
	return r, nil
}

// wrapDecoy builds a decoy oTuple of the same size as a real one.
func wrapDecoy(payloadSize int) []byte {
	return make([]byte, 1+payloadSize) // flagDecoy is the zero byte
}

// IsReal reports whether a decrypted oTuple cell carries a real result.
func IsReal(cell []byte) bool { return len(cell) > 0 && cell[0] == flagReal }

// Payload returns the encoded join row of a real oTuple.
func Payload(cell []byte) []byte { return cell[1:] }

// oTupleFirst orders real oTuples before decoys, the priority used by every
// oblivious decoy sort ("giving lower priority to decoy tuples").
func oTupleFirst(a, b []byte) bool { return IsReal(a) && !IsReal(b) }

// Result is the outcome of a privacy preserving join.
type Result struct {
	// Output is the host region of sealed oTuple cells and the schema of
	// the join rows inside them.
	Output sim.Table
	// OutputLen is the number of oTuple cells produced. For the Chapter 4
	// algorithms this is N·|A| (a superset of the real result, §5.1.1); for
	// Algorithms 4-6 it equals the exact join size S.
	OutputLen int64
	// Stats are the coprocessor counters accumulated by this run.
	Stats sim.Stats
	// Blemished reports that Algorithm 6 hit a segment with more than M
	// results and performed the salvage pass (probability <= epsilon).
	Blemished bool
}

// DecodeOutput opens the output cells with the coprocessor's sealer and
// returns the real rows, dropping decoys — the recipient-side
// post-processing ("Decoys are decrypted and filtered out by the
// recipient", §4.3). The service layer performs the same job on behalf of
// the designated recipient P_C.
func DecodeOutput(t *sim.Coprocessor, res Result) (*relation.Relation, error) {
	out := relation.NewRelation(res.Output.Schema)
	for i := int64(0); i < res.OutputLen; i++ {
		ct := t.Host().Inspect(res.Output.Region, i)
		if ct == nil {
			return nil, fmt.Errorf("core: output cell %d missing", i)
		}
		cell, err := t.Sealer().OpenTo(nil, ct)
		if err != nil {
			return nil, fmt.Errorf("core: output cell %d: %w", i, err)
		}
		if !IsReal(cell) {
			continue
		}
		if err := out.AppendEncoded(Payload(cell)); err != nil {
			return nil, fmt.Errorf("core: output cell %d: %w", i, err)
		}
	}
	return out, nil
}

// errInvalid tags argument validation failures.
var errInvalid = errors.New("core: invalid argument")

// outputSchema2 builds the Concat schema for a 2-way join.
func outputSchema2(a, b sim.Table) (*relation.Schema, error) {
	return relation.Concat(a.Schema, b.Schema)
}

// outputSchemaN builds the Concat schema for a J-way join.
func outputSchemaN(tables []sim.Table) (*relation.Schema, error) {
	schemas := make([]*relation.Schema, len(tables))
	for i, tab := range tables {
		schemas[i] = tab.Schema
	}
	return relation.Concat(schemas...)
}
