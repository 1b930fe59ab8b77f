package ppj

import (
	"testing"

	"ppj/internal/relation"
)

func testRelations(t *testing.T, seed uint64) (*Relation, *Relation) {
	t.Helper()
	a := relation.GenKeyed(relation.NewRand(seed), 8, 5)
	b := relation.GenKeyed(relation.NewRand(seed+1), 10, 5)
	return a, b
}

func TestEngineAllAlgorithms(t *testing.T) {
	relA, relB := testRelations(t, 1)
	pred, err := Equijoin(relA.Schema, "key", relB.Schema, "key")
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceJoin(relA, relB, pred)
	n := int64(MaxMatches(relA, relB, pred))
	if n == 0 {
		n = 1
	}
	for _, alg := range []Algorithm{Alg1, Alg2, Alg3, Alg4, Alg5, Alg6, Alg7} {
		t.Run(alg.String(), func(t *testing.T) {
			// Memory 0 is documented as effectively unbounded.
			for _, mem := range []int{8, 0} {
				eng, err := NewEngine(EngineConfig{Memory: mem, Seed: 3, Plain: true})
				if err != nil {
					t.Fatal(err)
				}
				ta, err := eng.Load("A", relA)
				if err != nil {
					t.Fatal(err)
				}
				tb, err := eng.Load("B", relB)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Join(alg, []TableRef{ta, tb}, Pairwise(pred), JoinOptions{
					N: n, Pred2: pred, Epsilon: 1e-9,
				})
				if err != nil {
					t.Fatalf("M=%d: %v", mem, err)
				}
				got, err := eng.Decode(res)
				if err != nil {
					t.Fatal(err)
				}
				if !relation.SameMultiset(got, want) {
					t.Fatalf("%s at M=%d: join mismatch (%d vs %d rows)", alg, mem, got.Len(), want.Len())
				}
			}
		})
	}
}

func TestEngineValidation(t *testing.T) {
	relA, relB := testRelations(t, 2)
	pred, _ := Equijoin(relA.Schema, "key", relB.Schema, "key")
	eng, err := NewEngine(EngineConfig{Memory: 8, Plain: true})
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := eng.Load("A", relA)
	tb, _ := eng.Load("B", relB)
	tabs := []TableRef{ta, tb}
	if _, err := eng.Join(Alg1, tabs[:1], Pairwise(pred), JoinOptions{N: 1, Pred2: pred}); err == nil {
		t.Error("one table accepted by Alg1")
	}
	if _, err := eng.Join(Alg1, tabs, Pairwise(pred), JoinOptions{N: 1}); err == nil {
		t.Error("missing Pred2 accepted")
	}
	if _, err := eng.Join(Alg2, tabs, Pairwise(pred), JoinOptions{Pred2: pred}); err == nil {
		t.Error("missing N accepted")
	}
	if _, err := eng.Join(Algorithm(99), tabs, Pairwise(pred), JoinOptions{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	band, _ := BandJoin(relA.Schema, "key", relB.Schema, "key", 1)
	if _, err := eng.Join(Alg3, tabs, Pairwise(band), JoinOptions{N: 1, Pred2: band}); err == nil {
		t.Error("non-equi predicate accepted by Alg3")
	}
}

func TestEngineJoin6Full(t *testing.T) {
	relA, relB := testRelations(t, 3)
	pred, _ := Equijoin(relA.Schema, "key", relB.Schema, "key")
	eng, err := NewEngine(EngineConfig{Memory: 2, Seed: 5, Plain: true})
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := eng.Load("A", relA)
	tb, _ := eng.Load("B", relB)
	rep, err := eng.Join6Full([]TableRef{ta, tb}, Pairwise(pred), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.S != int64(ReferenceJoin(relA, relB, pred).Len()) {
		t.Fatalf("Join6Full S = %d", rep.S)
	}
}

func TestCostFacade(t *testing.T) {
	if len(PaperSettings()) != 3 {
		t.Fatal("PaperSettings wrong")
	}
	if CostAlg5(640000, 6400, 64) != 6400+100*640000 {
		t.Fatal("CostAlg5 wrong")
	}
	if CostSMC(640000, 6400) < 1e10 {
		t.Fatal("CostSMC wrong magnitude")
	}
	br := CostAlg6(640000, 6400, 64, 1e-20)
	if br.NStar <= 0 || br.Total <= 0 {
		t.Fatal("CostAlg6 breakdown empty")
	}
	if OptimalSegment(1000, 10, 64, 0) != 1000 {
		t.Fatal("OptimalSegment S<=M wrong")
	}
	if BlemishBound(1000, 100, 10, 0) != 1 {
		t.Fatal("BlemishBound edge wrong")
	}
	if Ch4Winner(10000, 0.0001, 1, false) != "Alg2" {
		t.Fatal("Ch4Winner wrong")
	}
	if CostAlg1(100, 100, 4) <= 0 || CostAlg2(100, 100, 4, 8) <= 0 || CostAlg3(100, 100, 4, false) <= 0 || CostAlg4(100, 10) <= 0 {
		t.Fatal("cost functions returned nonsense")
	}
}

func TestEngineTraceExposed(t *testing.T) {
	relA, relB := testRelations(t, 4)
	pred, _ := Equijoin(relA.Schema, "key", relB.Schema, "key")
	eng, err := NewEngine(EngineConfig{Memory: 8, Plain: true, TraceRecordLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := eng.Load("A", relA)
	tb, _ := eng.Load("B", relB)
	if _, err := eng.Join(Alg5, []TableRef{ta, tb}, Pairwise(pred), JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if eng.Host().Trace().Count() == 0 {
		t.Fatal("no trace recorded")
	}
	if eng.Coprocessor().Stats().Transfers() == 0 {
		t.Fatal("no transfers counted")
	}
}

func TestEngineAggregate(t *testing.T) {
	relA, relB := testRelations(t, 9)
	pred, _ := Equijoin(relA.Schema, "key", relB.Schema, "key")
	eng, err := NewEngine(EngineConfig{Memory: 4, Plain: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := eng.Load("A", relA)
	tb, _ := eng.Load("B", relB)
	got, err := eng.Aggregate([]TableRef{ta, tb}, Pairwise(pred), AggSpec{Kind: AggCount})
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceJoin(relA, relB, pred).Len()
	if got.Count != int64(want) || !got.Valid {
		t.Fatalf("COUNT = %d/%v, want %d", got.Count, got.Valid, want)
	}
	sum, err := eng.Aggregate([]TableRef{ta, tb}, Pairwise(pred), AggSpec{Kind: AggSum, Table: 1, Attr: "payload"})
	if err != nil {
		t.Fatal(err)
	}
	var wantSum float64
	for _, row := range ReferenceJoin(relA, relB, pred).Rows {
		wantSum += float64(row[3].I)
	}
	if sum.Value != wantSum {
		t.Fatalf("SUM = %g, want %g", sum.Value, wantSum)
	}
}

func TestEngineJoin6OnePass(t *testing.T) {
	relA, relB := testRelations(t, 12)
	pred, _ := Equijoin(relA.Schema, "key", relB.Schema, "key")
	s := int64(ReferenceJoin(relA, relB, pred).Len())
	eng, err := NewEngine(EngineConfig{Memory: 3, Plain: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := eng.Load("A", relA)
	tb, _ := eng.Load("B", relB)
	rep, err := eng.Join6OnePass([]TableRef{ta, tb}, Pairwise(pred), 1e-9, s)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := eng.Decode(rep.Result)
	if err != nil {
		t.Fatal(err)
	}
	if int64(rows.Len()) != s {
		t.Fatalf("one-pass rows = %d, want %d", rows.Len(), s)
	}
}

// TestEnginePairwiseArity refuses a 2-way predicate lifted by Pairwise over
// three tables, whose keys do join, before the first transfer: every
// Chapter 5 entry point errors and the host trace stays empty.
func TestEnginePairwiseArity(t *testing.T) {
	relA, relB := testRelations(t, 4)
	relC := relation.GenKeyed(relation.NewRand(6), 6, 5)
	pred, err := Equijoin(relA.Schema, "key", relB.Schema, "key")
	if err != nil {
		t.Fatal(err)
	}
	if ReferenceJoin(relA, relB, pred).Len() == 0 {
		t.Fatal("degenerate inputs: A and B do not join")
	}
	mp := Pairwise(pred)
	for name, run := range map[string]func(*Engine, []TableRef) error{
		"alg4": func(e *Engine, tabs []TableRef) error { _, err := e.Join(Alg4, tabs, mp, JoinOptions{}); return err },
		"alg5": func(e *Engine, tabs []TableRef) error { _, err := e.Join(Alg5, tabs, mp, JoinOptions{}); return err },
		"alg6": func(e *Engine, tabs []TableRef) error {
			_, err := e.Join(Alg6, tabs, mp, JoinOptions{Epsilon: 1e-9})
			return err
		},
		"Join6OnePass": func(e *Engine, tabs []TableRef) error { _, err := e.Join6OnePass(tabs, mp, 1e-9, 1); return err },
		"Aggregate": func(e *Engine, tabs []TableRef) error {
			_, err := e.Aggregate(tabs, mp, AggSpec{Kind: AggCount})
			return err
		},
	} {
		eng, err := NewEngine(EngineConfig{Memory: 8, Plain: true, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var tabs []TableRef
		for i, rel := range []*Relation{relA, relB, relC} {
			tab, err := eng.Load(string(rune('A'+i)), rel)
			if err != nil {
				t.Fatal(err)
			}
			tabs = append(tabs, tab)
		}
		if err := run(eng, tabs); err == nil {
			t.Errorf("%s: a pairwise predicate over three tables ran", name)
		}
		if n := eng.Host().Trace().Count(); n != 0 {
			t.Errorf("%s: refused after %d host accesses, want none", name, n)
		}
	}
}
