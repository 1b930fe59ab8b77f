// Multiparty: a three-way join with Algorithm 6's privacy/efficiency dial.
//
// Chapter 5 generalises the problem to any number of databases joined over
// their cartesian product D = X₁ × … × X_J. Three agencies join their
// records on a shared key; Algorithm 6 visits D in an LFSR-random order and
// flushes fixed-size segments, trading a 1−ε privacy level for communication
// (Table 5.1). This example sweeps ε and reports the derived segment size
// n*, the flush count, and the measured transfers.
//
//	go run ./examples/multiparty
package main

import (
	"fmt"
	"log"

	"ppj"
)

func main() {
	x1 := ppj.GenKeyed(ppj.NewRand(1), 12, 6)
	x2 := ppj.GenKeyed(ppj.NewRand(2), 10, 6)
	x3 := ppj.GenKeyed(ppj.NewRand(3), 8, 6)
	rels := []*ppj.Relation{x1, x2, x3}

	// All three keys equal — a J-way equijoin as a MultiPredicate.
	pred := ppj.MultiPredicateFunc{
		Fn: func(rs []ppj.Row) bool {
			return rs[0].Int(0) == rs[1].Int(0) && rs[1].Int(0) == rs[2].Int(0)
		},
		Desc: "x1.key = x2.key = x3.key",
	}

	want := ppj.CountMultiMatches(rels, pred)
	l := int64(x1.Len() * x2.Len() * x3.Len())
	fmt.Printf("three-way join over |D| = %d iTuples, coprocessor memory M = 4\n\n", l)
	fmt.Printf("%-10s %8s %10s %12s %10s %9s\n", "epsilon", "n*", "segments", "transfers", "results", "blemish")

	for _, eps := range []float64{0, 1e-12, 1e-6, 1e-3, 0.1} {
		eng, err := ppj.NewEngine(ppj.EngineConfig{Memory: 4, Seed: 9})
		if err != nil {
			log.Fatal(err)
		}
		var tabs []ppj.TableRef
		for i, rel := range rels {
			tab, err := eng.Load(fmt.Sprintf("X%d", i+1), rel)
			if err != nil {
				log.Fatal(err)
			}
			tabs = append(tabs, tab)
		}
		rep, err := eng.Join6Full(tabs, pred, eps)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := eng.Decode(rep.Result)
		if err != nil {
			log.Fatal(err)
		}
		if int64(rows.Len()) != want {
			log.Fatalf("ε = %g: join returned %d rows, reference %d", eps, rows.Len(), want)
		}
		fmt.Printf("%-10.0e %8d %10d %12d %10d %9v\n",
			eps, rep.NStar, rep.Segments, rep.Stats.Transfers(), rows.Len(), rep.Blemished)
	}

	fmt.Println("\nlarger ε -> larger safe segments n* -> fewer flushes and a cheaper")
	fmt.Println("oblivious filter, at a blemish risk bounded by ε (Figure 5.2).")
}
