package core

import (
	"testing"

	"ppj/internal/relation"
	"ppj/internal/sim"
)

// testEnv bundles a host/coprocessor pair with two loaded relations.
type testEnv struct {
	h    *sim.Host
	t    *sim.Coprocessor
	relA *relation.Relation
	relB *relation.Relation
	tabA sim.Table
	tabB sim.Table
}

func newEnv(t *testing.T, mem int, seed uint64, relA, relB *relation.Relation) *testEnv {
	t.Helper()
	h := sim.NewHost(1 << 18)
	cop, err := sim.NewCoprocessor(h, sim.Config{Memory: mem, Sealer: sim.PlainSealer{}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	env := &testEnv{h: h, t: cop, relA: relA, relB: relB}
	if relA != nil {
		env.tabA, err = sim.LoadTable(h, cop.Sealer(), "A", relA)
		if err != nil {
			t.Fatal(err)
		}
	}
	if relB != nil {
		env.tabB, err = sim.LoadTable(h, cop.Sealer(), "B", relB)
		if err != nil {
			t.Fatal(err)
		}
	}
	return env
}

// keyEqui builds the standard equijoin predicate over the keyed schema.
func keyEqui(t *testing.T, a, b *relation.Relation) *relation.Equi {
	t.Helper()
	eq, err := relation.NewEqui(a.Schema, "key", b.Schema, "key")
	if err != nil {
		t.Fatal(err)
	}
	return eq
}

// checkJoin asserts that res decodes to exactly the reference join of the
// env's relations under pred.
func checkJoin(t *testing.T, env *testEnv, res Result, pred relation.Predicate) {
	t.Helper()
	got, err := DecodeOutput(env.t, res)
	if err != nil {
		t.Fatalf("decode output: %v", err)
	}
	want := relation.ReferenceJoin(env.relA, env.relB, pred)
	if !relation.SameMultiset(got, want) {
		t.Fatalf("join result mismatch: got %d rows, want %d rows", got.Len(), want.Len())
	}
}

// genJoinSized builds a pair of keyed relations with an exact join size s:
// A has nA distinct keys 0..nA-1; the first s B rows hit keys i mod nA with
// each key used at most once per... each B row matches exactly one A row, so
// the join size is exactly s. The remaining B rows use non-matching keys.
// Payloads and the positions of matching rows vary with seed.
func genJoinSized(seed uint64, nA, nB, s int) (*relation.Relation, *relation.Relation) {
	if s > nB || s > nA*nB {
		panic("bad join size")
	}
	rng := relation.NewRand(seed)
	a := relation.NewRelation(relation.KeyedSchema())
	for i := 0; i < nA; i++ {
		a.MustAppend(relation.Tuple{relation.IntValue(int64(i)), relation.IntValue(rng.Int64N(1 << 30))})
	}
	b := relation.NewRelation(relation.KeyedSchema())
	rows := make([]relation.Tuple, 0, nB)
	for j := 0; j < s; j++ {
		rows = append(rows, relation.Tuple{
			relation.IntValue(int64(j % nA)),
			relation.IntValue(rng.Int64N(1 << 30)),
		})
	}
	for j := s; j < nB; j++ {
		rows = append(rows, relation.Tuple{
			relation.IntValue(int64(nA) + rng.Int64N(1<<20)),
			relation.IntValue(rng.Int64N(1 << 30)),
		})
	}
	// Shuffle row positions so the pair of inputs differs structurally.
	for i := len(rows) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		rows[i], rows[j] = rows[j], rows[i]
	}
	for _, r := range rows {
		b.MustAppend(r)
	}
	return a, b
}

// encodedRow encodes tup under s as the Row a predicate reads.
func encodedRow(s *relation.Schema, tup relation.Tuple) relation.Row {
	r, err := s.Row(s.MustEncode(tup))
	if err != nil {
		panic(err)
	}
	return r
}

func TestOTupleEnvelope(t *testing.T) {
	s := relation.MustSchema(relation.Attr{Name: "b", Type: relation.Bytes, Width: 2}, relation.Attr{Name: "c", Type: relation.Bytes, Width: 1})
	real := realCell(encodedRow(s, relation.Tuple{relation.BytesValue([]byte{1, 2}), relation.BytesValue([]byte{3})}))
	decoy := wrapDecoy(3)
	if len(real) != len(decoy) {
		t.Fatal("real and decoy oTuples differ in size")
	}
	if !IsReal(real) || IsReal(decoy) {
		t.Fatal("flags wrong")
	}
	if string(Payload(real)) != "\x01\x02\x03" {
		t.Fatalf("payload = %v", Payload(real))
	}
	if IsReal(nil) {
		t.Fatal("empty cell is real")
	}
}

func TestDecodeOutputDropsDecoys(t *testing.T) {
	env := newEnv(t, 8, 1, nil, nil)
	schema := relation.KeyedSchema()
	region := env.h.MustCreateRegion("mix", 3)
	row := encodedRow(schema, relation.Tuple{relation.IntValue(5), relation.IntValue(6)})
	if err := env.t.Put(region, 0, realCell(row)); err != nil {
		t.Fatal(err)
	}
	if err := env.t.Put(region, 1, wrapDecoy(schema.TupleSize())); err != nil {
		t.Fatal(err)
	}
	if err := env.t.Put(region, 2, realCell(row)); err != nil {
		t.Fatal(err)
	}
	res := Result{Output: sim.Table{Region: region, N: 3, Schema: schema}, OutputLen: 3}
	got, err := DecodeOutput(env.t, res)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Rows[0][0].I != 5 {
		t.Fatalf("decoded %d rows", got.Len())
	}
}
