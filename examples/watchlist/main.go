// Watchlist: the paper's first motivating application (Chapter 1).
//
// "Airlines and government agencies may wish to discover whether people are
// both on a passenger list and a list of potential terrorists, without
// revealing their respective lists." The match is fuzzy — "the national
// security application requires a fuzzy match on profiles" (§3.1) — so this
// example uses an arbitrary predicate (same passport, or same name with a
// close date of birth) with Algorithm 1, the general join for small
// coprocessor memories, and then demonstrates the privacy property: runs on
// different same-shaped inputs produce byte-identical host traces.
//
//	go run ./examples/watchlist
package main

import (
	"bytes"
	"fmt"
	"log"
	"math"

	"ppj"
)

// fuzzyMatch is the arbitrary profile predicate: exact passport match, or
// same name with dates of birth in the same half-million-day band (the
// synthetic dob field spans a million values; real deployments would use a
// few days of data-entry noise). It reads the encoded rows in place: name
// and passport as bytes, dob as an integer.
func fuzzyMatch(a, b ppj.Row) bool {
	if pa := a.Bytes(3); len(pa) > 0 && bytes.Equal(pa, b.Bytes(3)) {
		return true
	}
	return bytes.Equal(a.Bytes(1), b.Bytes(1)) && math.Abs(float64(a.Int(2)-b.Int(2))) <= 500000
}

func run(seed uint64, n int, report bool) (traceDigest uint64) {
	watch := ppj.GenPersons(ppj.NewRand(seed), 15, 40)
	manifest := ppj.GenPersons(ppj.NewRand(seed+1000), 40, 40)

	pred := ppj.PredicateFunc{Fn: fuzzyMatch, Desc: "fuzzy profile match"}

	// Algorithm 1 targets devices with only a couple of tuples of memory —
	// the scratch area lives on the untrusted host.
	eng, err := ppj.NewEngine(ppj.EngineConfig{Memory: 2, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	tw, err := eng.Load("watchlist", watch)
	if err != nil {
		log.Fatal(err)
	}
	tm, err := eng.Load("manifest", manifest)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Join(ppj.Alg1, []ppj.TableRef{tw, tm}, nil, ppj.JoinOptions{
		Pred2: pred, N: int64(n),
	})
	if err != nil {
		log.Fatal(err)
	}
	hits, err := eng.Decode(res)
	if err != nil {
		log.Fatal(err)
	}
	if report {
		fmt.Printf("watch list: %d profiles, manifest: %d passengers, match bound N=%d\n",
			watch.Len(), manifest.Len(), n)
		fmt.Printf("screening hits: %d (output padded to N*|watch| = %d oTuples; decoys dropped by recipient)\n",
			hits.Len(), res.OutputLen)
		for i, row := range hits.Rows {
			if i >= 4 {
				fmt.Printf("  ... %d more\n", hits.Len()-4)
				break
			}
			fmt.Printf("  flag: %-14s (dob %d) matches passenger %-14s (dob %d)\n",
				row[1].S, row[2].I, row[5].S, row[6].I)
		}
		fmt.Printf("cost: %d tuple transfers (analytic: %.0f)\n",
			res.Stats.Transfers(), ppj.CostAlg1(int64(watch.Len()), int64(manifest.Len()), int64(n)))
	}
	return eng.Host().Trace().Digest()
}

func main() {
	// The parties publicly agree on a safe match bound N before the join
	// (§4.3 "Setting N"); any correct upper bound works and the traces
	// depend only on it, never on the data.
	pred := ppj.PredicateFunc{Fn: fuzzyMatch, Desc: "fuzzy profile match"}
	n := 1
	for _, seed := range []uint64{1, 2} {
		w := ppj.GenPersons(ppj.NewRand(seed), 15, 40)
		m := ppj.GenPersons(ppj.NewRand(seed+1000), 40, 40)
		if got := ppj.MaxMatches(w, m, pred); got > n {
			n = got
		}
	}

	d1 := run(1, n, true)

	// Privacy demonstration: an entirely different watch list and manifest
	// of the same sizes (with the same declared N) induce the IDENTICAL
	// host access sequence — the adversary watching H learns nothing about
	// who is on either list.
	d2 := run(2, n, false)
	fmt.Printf("\ntrace digest, input set 1: %016x\n", d1)
	fmt.Printf("trace digest, input set 2: %016x\n", d2)
	if d1 != d2 {
		log.Fatal("traces differ: the host can tell the inputs apart")
	}
	fmt.Println("identical access patterns: the host cannot tell the inputs apart")
}
