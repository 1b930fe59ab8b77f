// Epidemiology: aggregation over a join without materialising it — the
// future-work question of the thesis's Conclusions chapter, answered.
//
// "Aggregation queries output statistics over the join of two tables. It is
// not necessary to materialize the join result... Do efficient algorithms
// exist for this simplified task?" A study wants the NUMBER of patients
// whose drug-reaction record joins a flagged gene variant, and the average
// reaction severity — not the records themselves. With the accumulator
// inside the coprocessor, one fixed-order pass suffices and the host's view
// is independent even of the join size.
//
// The example also shows the query planner choosing algorithms: the same
// data asked for rows routes to a Chapter 5 join; asked for a statistic it
// routes to the aggregation pass at a fraction of the cost.
//
//	go run ./examples/epidemiology
package main

import (
	"fmt"
	"log"

	"ppj"
)

func main() {
	// Hospital: (key = variant id, payload = severity score).
	// Gene bank: (key = variant id, payload = variant class).
	hospital := ppj.GenKeyed(ppj.NewRand(21), 40, 15)
	geneBank := ppj.GenKeyed(ppj.NewRand(22), 25, 15)
	rels := []*ppj.Relation{hospital, geneBank}

	pred, err := ppj.Equijoin(hospital.Schema, "key", geneBank.Schema, "key")
	if err != nil {
		log.Fatal(err)
	}

	// 1. The materialising query: which patients match flagged variants?
	rows, plan, err := ppj.RunQuery(ppj.Query{Predicate: pred, Mode: ppj.OutputExact},
		rels, 16, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("row query  -> %s\n", plan)
	fmt.Printf("              %d matching patient-variant pairs materialised\n\n", rows.Len())

	// 2. The statistics the study actually needs: COUNT and AVG severity.
	count, planC, err := ppj.RunAggregateQuery(ppj.Query{
		Predicate: pred,
		Aggregate: &ppj.AggSpec{Kind: ppj.AggCount},
	}, rels, 16, 7)
	if err != nil {
		log.Fatal(err)
	}
	avg, _, err := ppj.RunAggregateQuery(ppj.Query{
		Predicate: pred,
		Aggregate: &ppj.AggSpec{Kind: ppj.AggAvg, Table: 0, Attr: "payload"},
	}, rels, 16, 7)
	if err != nil {
		log.Fatal(err)
	}
	want := ppj.ReferenceJoin(hospital, geneBank, pred).Len()
	if rows.Len() != want || count.Count != int64(want) {
		log.Fatalf("row query returned %d pairs and COUNT(*) %d, reference %d", rows.Len(), count.Count, want)
	}
	fmt.Printf("agg query  -> %s\n", planC)
	fmt.Printf("              COUNT(*) = %d, AVG(severity) = %.2f\n\n", count.Count, avg.Value)

	fmt.Printf("cost comparison (predicted transfers): rows %.0f vs statistic %.0f\n",
		plan.PredictedCost, planC.PredictedCost)
	fmt.Println("the aggregate's host trace does not even reveal the join size —")
	fmt.Println("only L, the size of the cartesian product, which is public anyway.")
}
