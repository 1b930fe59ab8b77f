// Quickstart: the smallest complete privacy preserving join.
//
// Two parties hold keyed relations; the coprocessor computes their equijoin
// with Algorithm 5 (the multi-scan exact join) without the host learning
// anything beyond the public sizes (L, S, M).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ppj"
)

func main() {
	// Synthetic inputs: 20 and 30 rows with keys drawn from a small space
	// so the join is non-trivial.
	relA := ppj.GenKeyed(ppj.NewRand(1), 20, 12)
	relB := ppj.GenKeyed(ppj.NewRand(2), 30, 12)

	// An engine is a simulated untrusted host with one attached secure
	// coprocessor holding M = 16 tuples of protected memory.
	eng, err := ppj.NewEngine(ppj.EngineConfig{Memory: 16, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	// Providers upload their relations encrypted; the host stores only
	// ciphertext.
	tabA, err := eng.Load("A", relA)
	if err != nil {
		log.Fatal(err)
	}
	tabB, err := eng.Load("B", relB)
	if err != nil {
		log.Fatal(err)
	}

	pred, err := ppj.Equijoin(relA.Schema, "key", relB.Schema, "key")
	if err != nil {
		log.Fatal(err)
	}

	res, err := eng.Join(ppj.Alg5, []ppj.TableRef{tabA, tabB}, ppj.Pairwise(pred), ppj.JoinOptions{})
	if err != nil {
		log.Fatal(err)
	}

	rows, err := eng.Decode(res)
	if err != nil {
		log.Fatal(err)
	}

	want := ppj.ReferenceJoin(relA, relB, pred)
	if rows.Len() != want.Len() {
		log.Fatalf("join returned %d rows, reference %d", rows.Len(), want.Len())
	}
	fmt.Printf("join of %d x %d rows on key: %d results (reference: %d)\n",
		relA.Len(), relB.Len(), rows.Len(), want.Len())
	st := res.Stats
	fmt.Printf("coprocessor transfers: %d (gets %d, puts %d), host accesses traced: %d\n",
		st.Transfers(), st.Gets, st.Puts, eng.Host().Trace().Count())
	for i, row := range rows.Rows[:min(3, rows.Len())] {
		fmt.Printf("  row %d: A.key=%d A.payload=%d  B.key=%d B.payload=%d\n",
			i, row[0].I, row[1].I, row[2].I, row[3].I)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
