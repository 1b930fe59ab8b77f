// Genomics: the paper's second motivating application (Chapter 1).
//
// "Epidemiological researchers may wish to study correlations between drug
// reactions and some genetic sequences, which may require joining DNA
// information from a gene bank with patient records from various
// hospitals." Disclosing patient records wholesale would violate HIPAA; the
// join must reveal only matching sequences. Sequences are represented as
// k-mer (shingle) sets and joined on Jaccard similarity — the paper's
// example of a similarity predicate — with Algorithm 4, the exact
// small-memory join, so the output holds precisely the matching pairs.
//
//	go run ./examples/genomics
package main

import (
	"fmt"
	"log"

	"ppj"
)

func main() {
	rng := ppj.NewRand(11)
	// Gene bank: 12 reference sequences; hospital: 18 patient samples.
	// Small shingle vocabulary so similar pairs occur.
	geneBank := ppj.GenSequences(rng, 12, 8, 12, 24)
	patients := ppj.GenSequences(rng, 18, 8, 12, 24)

	pred, err := ppj.JaccardJoin(geneBank.Schema, "kmers", patients.Schema, "kmers", 0.30)
	if err != nil {
		log.Fatal(err)
	}

	// A tiny device: Algorithm 4 needs only two tuples of memory, paying
	// for it with the oblivious decoy filter.
	eng, err := ppj.NewEngine(ppj.EngineConfig{Memory: 2, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	tg, err := eng.Load("genebank", geneBank)
	if err != nil {
		log.Fatal(err)
	}
	tp, err := eng.Load("patients", patients)
	if err != nil {
		log.Fatal(err)
	}

	res, err := eng.Join(ppj.Alg4, []ppj.TableRef{tg, tp}, ppj.Pairwise(pred), ppj.JoinOptions{})
	if err != nil {
		log.Fatal(err)
	}
	matches, err := eng.Decode(res)
	if err != nil {
		log.Fatal(err)
	}

	if want := ppj.ReferenceJoin(geneBank, patients, pred); matches.Len() != want.Len() {
		log.Fatalf("join returned %d pairs, reference %d", matches.Len(), want.Len())
	}
	l := int64(geneBank.Len() * patients.Len())
	s := int64(matches.Len())
	fmt.Printf("gene bank: %d sequences, patients: %d samples (L = %d candidate pairs)\n",
		geneBank.Len(), patients.Len(), l)
	fmt.Printf("similar pairs (Jaccard > 0.30): %d — and only those leave the coprocessor\n", s)
	for i, row := range matches.Rows {
		if i >= 5 {
			fmt.Printf("  ... %d more\n", matches.Len()-5)
			break
		}
		fmt.Printf("  sequence %d ~ patient sample %d\n", row[0].I, row[2].I)
	}
	fmt.Printf("\nmeasured transfers: %d  |  Eqn 5.2 analytic cost: %.0f\n",
		res.Stats.Transfers(), ppj.CostAlg4(l, s))
	fmt.Printf("the host observed %d accesses, every one a function of (L, S) only\n",
		eng.Host().Trace().Count())
}
