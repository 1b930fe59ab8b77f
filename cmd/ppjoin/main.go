// Command ppjoin runs a privacy preserving join over two CSV relations in
// the coprocessor simulator and prints the result with cost statistics.
//
// Usage:
//
//	ppjoin -a left.csv -b right.csv -on keyA=keyB [-alg 5] [-mem 64]
//	       [-pred equi|band|lessthan] [-param 2] [-eps 1e-10] [-stats]
//
// CSV files need a header row; a column parseable as an integer throughout
// becomes an int64 attribute, a column parseable as a float becomes
// float64, anything else a string. With no -a/-b flags a small built-in
// demo dataset is used. ppjoin exits 1 when the number of joined rows (or
// the count an aggregate reports) differs from the plaintext reference
// join's.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ppj"
)

func main() {
	var (
		fileA   = flag.String("a", "", "left relation CSV (empty: demo data)")
		fileB   = flag.String("b", "", "right relation CSV (empty: demo data)")
		on      = flag.String("on", "key=key", "join attributes as left=right")
		alg     = flag.Int("alg", 5, "algorithm 1..7")
		mem     = flag.Int("mem", 64, "coprocessor memory M in tuples")
		predK   = flag.String("pred", "equi", "predicate: equi, band, lessthan")
		param   = flag.Float64("param", 0, "band width for -pred band")
		eps     = flag.Float64("eps", 1e-10, "Algorithm 6 privacy parameter")
		stats   = flag.Bool("stats", false, "print cost statistics")
		maxRows = flag.Int("n", 20, "result rows to print (0 = all)")
		agg     = flag.String("agg", "", "compute a statistic instead of rows: count, or sum/min/max/avg:ATTR (over the left relation)")
	)
	flag.Parse()

	relA, relB, err := loadInputs(*fileA, *fileB)
	if err != nil {
		fatal(err)
	}
	attrs := strings.SplitN(*on, "=", 2)
	if len(attrs) != 2 {
		fatal(fmt.Errorf("-on must be left=right"))
	}

	var pred ppj.Predicate
	switch *predK {
	case "equi":
		pred, err = ppj.Equijoin(relA.Schema, attrs[0], relB.Schema, attrs[1])
	case "band":
		pred, err = ppj.BandJoin(relA.Schema, attrs[0], relB.Schema, attrs[1], *param)
	case "lessthan":
		pred, err = ppj.LessThanJoin(relA.Schema, attrs[0], relB.Schema, attrs[1])
	default:
		err = fmt.Errorf("unknown predicate %q", *predK)
	}
	if err != nil {
		fatal(err)
	}

	if *agg != "" {
		runAggregate(relA, relB, pred, *agg, int64(*mem))
		return
	}

	eng, err := ppj.NewEngine(ppj.EngineConfig{Memory: *mem})
	if err != nil {
		fatal(err)
	}
	tabA, err := eng.Load("A", relA)
	if err != nil {
		fatal(err)
	}
	tabB, err := eng.Load("B", relB)
	if err != nil {
		fatal(err)
	}

	n := int64(ppj.MaxMatches(relA, relB, pred))
	if n == 0 {
		n = 1
	}
	res, err := eng.Join(ppj.Algorithm(*alg), []ppj.TableRef{tabA, tabB}, ppj.Pairwise(pred),
		ppj.JoinOptions{N: n, Pred2: pred, Epsilon: *eps})
	if err != nil {
		fatal(err)
	}
	rows, err := eng.Decode(res)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("# %s, predicate %s, %d x %d rows -> %d results\n",
		ppj.Algorithm(*alg), pred, relA.Len(), relB.Len(), rows.Len())
	printCSV(rows, *maxRows)
	if *stats {
		st := res.Stats
		fmt.Printf("# transfers=%d gets=%d puts=%d comparisons=%d predicate-evals=%d host-accesses=%d\n",
			st.Transfers(), st.Gets, st.Puts, st.Comparisons, st.PredEvals,
			eng.Host().Trace().Count())
	}
	if want := ppj.ReferenceJoin(relA, relB, pred).Len(); rows.Len() != want {
		fatal(fmt.Errorf("join returned %d rows, reference join %d", rows.Len(), want))
	}
}

// runAggregate computes a statistic over the join without materialising it.
func runAggregate(relA, relB *ppj.Relation, pred ppj.Predicate, spec string, mem int64) {
	kind, attr := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		kind, attr = spec[:i], spec[i+1:]
	}
	kinds := map[string]ppj.AggKind{
		"count": ppj.AggCount, "sum": ppj.AggSum, "min": ppj.AggMin,
		"max": ppj.AggMax, "avg": ppj.AggAvg,
	}
	k, ok := kinds[kind]
	if !ok {
		fatal(fmt.Errorf("unknown aggregate %q", kind))
	}
	res, plan, err := ppj.RunAggregateQuery(ppj.Query{
		Predicate: pred,
		Aggregate: &ppj.AggSpec{Kind: k, Table: 0, Attr: attr},
	}, []*ppj.Relation{relA, relB}, mem, 0)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# %s\n", plan)
	if !res.Valid {
		fmt.Printf("%s = (empty join)\n", k)
	} else {
		fmt.Printf("%s = %g  (count %d)\n", k, res.Value, res.Count)
	}
	if want := int64(ppj.ReferenceJoin(relA, relB, pred).Len()); res.Count != want {
		fatal(fmt.Errorf("aggregate counted %d join rows, reference join %d", res.Count, want))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppjoin:", err)
	os.Exit(1)
}

// loadInputs reads the two CSVs, or synthesises demo data.
func loadInputs(fileA, fileB string) (*ppj.Relation, *ppj.Relation, error) {
	if fileA == "" || fileB == "" {
		relA := ppj.GenKeyed(ppj.NewRand(1), 12, 6)
		relB := ppj.GenKeyed(ppj.NewRand(2), 16, 6)
		return relA, relB, nil
	}
	relA, err := loadCSV(fileA)
	if err != nil {
		return nil, nil, err
	}
	relB, err := loadCSV(fileB)
	if err != nil {
		return nil, nil, err
	}
	return relA, relB, nil
}

// loadCSV reads one relation through the library's schema-inferring CSV
// importer.
func loadCSV(path string) (*ppj.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rel, err := ppj.ReadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rel, nil
}

// printCSV renders the result relation, truncated to maxRows.
func printCSV(rel *ppj.Relation, maxRows int) {
	toShow := rel
	truncated := 0
	if maxRows > 0 && rel.Len() > maxRows {
		toShow = ppj.NewRelation(rel.Schema)
		toShow.Rows = rel.Rows[:maxRows]
		truncated = rel.Len() - maxRows
	}
	if err := ppj.WriteCSV(os.Stdout, toShow); err != nil {
		fatal(err)
	}
	if truncated > 0 {
		fmt.Printf("# ... %d more rows\n", truncated)
	}
}
