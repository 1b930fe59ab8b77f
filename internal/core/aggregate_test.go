package core

import (
	"errors"
	"math"
	"testing"

	"ppj/internal/relation"
	"ppj/internal/sim"
)

// refAggregate computes the oracle statistic over the reference join.
func refAggregate(rels []*relation.Relation, pred relation.MultiPredicate, spec AggSpec) (int64, float64, bool) {
	join := relation.ReferenceMultiJoin(rels, pred)
	count := int64(join.Len())
	if spec.Kind == AggCount {
		return count, float64(count), true
	}
	// Locate the attribute inside the concatenated schema.
	off := 0
	for i := 0; i < spec.Table; i++ {
		off += rels[i].Schema.NumAttrs()
	}
	idx := off + rels[spec.Table].Schema.Index(spec.Attr)
	typ := rels[spec.Table].Schema.Attr(rels[spec.Table].Schema.Index(spec.Attr)).Type
	var sum float64
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, row := range join.Rows {
		var v float64
		if typ == relation.Int64 {
			v = float64(row[idx].I)
		} else {
			v = row[idx].F
		}
		sum += v
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	switch spec.Kind {
	case AggSum:
		return count, sum, true
	case AggMin:
		return count, minV, count > 0
	case AggMax:
		return count, maxV, count > 0
	default: // AggAvg
		if count == 0 {
			return 0, 0, false
		}
		return count, sum / float64(count), true
	}
}

func aggEnv(t *testing.T, seed uint64, s int) (*sim.Coprocessor, []sim.Table, []*relation.Relation, relation.MultiPredicate) {
	t.Helper()
	relA, relB := genJoinSized(seed, 7, 11, s)
	h := sim.NewHost(0)
	cop := newCop(t, h, 4, 13)
	tabs := loadTables(t, h, cop.Sealer(), relA, relB)
	pred := relation.Pairwise(keyEqui(t, relA, relB))
	return cop, tabs, []*relation.Relation{relA, relB}, pred
}

func TestAggregateAllKinds(t *testing.T) {
	specs := []AggSpec{
		{Kind: AggCount},
		{Kind: AggSum, Table: 1, Attr: "payload"},
		{Kind: AggMin, Table: 1, Attr: "payload"},
		{Kind: AggMax, Table: 0, Attr: "payload"},
		{Kind: AggAvg, Table: 1, Attr: "payload"},
	}
	for _, spec := range specs {
		t.Run(spec.Kind.String(), func(t *testing.T) {
			cop, tabs, rels, pred := aggEnv(t, 31, 6)
			got, err := Aggregate(cop, tabs, pred, spec)
			if err != nil {
				t.Fatal(err)
			}
			wantCount, wantVal, wantValid := refAggregate(rels, pred, spec)
			if got.Count != wantCount || got.Valid != wantValid {
				t.Fatalf("count/valid = %d/%v, want %d/%v", got.Count, got.Valid, wantCount, wantValid)
			}
			if wantValid && math.Abs(got.Value-wantVal) > 1e-9 {
				t.Fatalf("value = %g, want %g", got.Value, wantVal)
			}
			// The output region holds the statistic as one AggSchema row.
			out, err := DecodeOutput(cop, got.Result)
			if err != nil {
				t.Fatal(err)
			}
			if row := out.Rows; len(row) != 1 || row[0][0].I != got.Count || row[0][1].F != got.Value || (row[0][2].I == 1) != got.Valid {
				t.Fatalf("output rows %+v, want the statistic %+v", row, got)
			}
		})
	}
}

func TestAggregateEmptyJoin(t *testing.T) {
	cop, tabs, _, pred := aggEnv(t, 37, 0)
	got, err := Aggregate(cop, tabs, pred, AggSpec{Kind: AggMin, Table: 0, Attr: "payload"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != 0 || got.Valid {
		t.Fatalf("empty join: %+v", got)
	}
	gotAvg, err := Aggregate(cop, tabs, pred, AggSpec{Kind: AggAvg, Table: 0, Attr: "payload"})
	if err != nil {
		t.Fatal(err)
	}
	if gotAvg.Valid {
		t.Fatal("AVG over empty join should be invalid")
	}
}

func TestAggregateTransfersExact(t *testing.T) {
	cop, tabs, _, pred := aggEnv(t, 41, 5)
	got, err := Aggregate(cop, tabs, pred, AggSpec{Kind: AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if want := AggregateTransfers([]int64{7, 11}); int64(got.Stats.Transfers()) != want {
		t.Fatalf("transfers %d, want %d", got.Stats.Transfers(), want)
	}
}

func TestAggregatePatternIndependentOfJoinSize(t *testing.T) {
	// Stronger than the materialising algorithms: the trace does not even
	// depend on S, only on L.
	digest := func(s int) (uint64, uint64) {
		relA, relB := genJoinSized(uint64(100+s), 7, 11, s)
		h := sim.NewHost(0)
		cop := newCop(t, h, 4, 13)
		tabs := loadTables(t, h, cop.Sealer(), relA, relB)
		pred := relation.Pairwise(keyEqui(t, relA, relB))
		if _, err := Aggregate(cop, tabs, pred, AggSpec{Kind: AggCount}); err != nil {
			t.Fatal(err)
		}
		return h.Trace().Digest(), h.Trace().Count()
	}
	d0, c0 := digest(0)
	d9, c9 := digest(9)
	if d0 != d9 || c0 != c9 {
		t.Fatal("aggregate access pattern depends on the join size")
	}
}

func TestAggregateValidation(t *testing.T) {
	cop, tabs, _, pred := aggEnv(t, 43, 3)
	if _, err := Aggregate(cop, tabs, pred, AggSpec{Kind: AggSum, Table: 9, Attr: "payload"}); !errors.Is(err, errInvalid) {
		t.Error("out-of-range table accepted")
	}
	if _, err := Aggregate(cop, tabs, pred, AggSpec{Kind: AggSum, Table: 0, Attr: "nope"}); !errors.Is(err, errInvalid) {
		t.Error("missing attribute accepted")
	}
	if _, err := Aggregate(cop, tabs, pred, AggSpec{Kind: AggKind(99)}); !errors.Is(err, errInvalid) {
		t.Error("unknown aggregate kind accepted")
	}
	person := relation.GenPersons(relation.NewRand(1), 3, 5)
	h := sim.NewHost(0)
	cop2 := newCop(t, h, 4, 13)
	tabs2 := loadTables(t, h, cop2.Sealer(), person, person)
	if _, err := Aggregate(cop2, tabs2, pred, AggSpec{Kind: AggSum, Table: 0, Attr: "name"}); !errors.Is(err, errInvalid) {
		t.Error("non-numeric attribute accepted")
	}
}
