package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// smokeRun runs one workload at about 1/100 of its size.
func smokeRun(t *testing.T, name string, seed uint64, trace bool) (*result, string) {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	o := options{workload: w.small(), seed: seed, seconds: 0.05, trace: trace, dir: dir,
		setups: 2, probeBudget: 2 * time.Millisecond, started: time.Now()}
	if trace {
		o.setups = 1
	}
	res, err := run(o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d notes=%q", name, res.Correct, res.Attempted, res.Failed, res.Notes)
	}
	return res, dir
}

// TestSmoke runs every workload with and without tracing and holds the
// output to BENCHMARK.json: every named metric emitted exactly once (set
// panics on a second emission), finite, with the declared unit, and nothing
// emitted that is not named.
func TestSmoke(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	validName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			res, dir := smokeRun(t, w.Name, 1, trace)
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !validName.MatchString(m.Name):
					t.Errorf("metric name %q is outside the benchmark contract", m.Name)
				case !ok:
					t.Errorf("%s trace=%v: %s is named in BENCHMARK.json and not emitted", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v is not finite", w.Name, m.Name, got.Value)
				case !trace && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
			if !trace {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(raw, &spans); err != nil {
				t.Fatal(err)
			}
			if len(spans) == 0 {
				t.Errorf("%s: the traced run wrote no spans", w.Name)
			}
			if err := checkSpans(spans); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}
	}
}

// TestCountsDependOnPublicSizesOnly: two seeds give different inputs of the
// same sizes, and every non-timing field the benchmark exports must read
// the same.
func TestCountsDependOnPublicSizesOnly(t *testing.T) {
	for _, c := range []struct {
		workload string
		trace    bool
		metrics  []string
	}{
		{"equijoin-2k", false, []string{"transfers_per_join"}},
		{"serve-wal", true, []string{"wal.appends_per_join", "wal.syncs_per_join", "core.gets", "core.puts"}},
	} {
		a, _ := smokeRun(t, c.workload, 1, c.trace)
		b, _ := smokeRun(t, c.workload, 2, c.trace)
		for _, m := range c.metrics {
			if a.Metrics[m].Value != b.Metrics[m].Value || a.Metrics[m].Value == 0 {
				t.Errorf("%s: %s reads %v on seed 1 and %v on seed 2", c.workload, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
	}
}

func TestCheckSpansRejectsMalformedTrees(t *testing.T) {
	good := []span{
		{ID: 0, Parent: -1, Join: 7, Name: "join", Start: 0, End: 100},
		{ID: 1, Parent: 0, Join: 7, Name: "register", Start: 10, End: 20},
	}
	if err := checkSpans(good); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	for name, bad := range map[string][]span{
		"child outlives parent": {good[0], {ID: 1, Parent: 0, Join: 7, Name: "register", Start: 10, End: 101}},
		"two roots":             {good[0], {ID: 1, Parent: -1, Join: 7, Name: "join", Start: 0, End: 5}},
		"parent of another join": {good[0], {ID: 1, Parent: 0, Join: 8, Name: "register", Start: 10, End: 20},
			{ID: 2, Parent: -1, Join: 8, Name: "join", Start: 0, End: 100}},
	} {
		if err := checkSpans(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		a, b   []float64
		higher bool
		want   string
	}{
		{[]float64{100}, []float64{105}, false, "same"},
		{[]float64{100}, []float64{115}, false, "worse"},
		{[]float64{100}, []float64{85}, false, "better"},
		{[]float64{100}, []float64{85}, true, "worse"},
		{[]float64{80, 100, 120, 140}, []float64{90, 110, 130, 150}, false, "unresolved"},
		{[]float64{80, 100, 120, 140}, []float64{180, 200, 220, 240}, false, "worse"},
	} {
		if got := verdict(c.a, c.b, c.higher, 0.1); got != c.want {
			t.Errorf("verdict(%v, %v, higher=%v) = %s, want %s", c.a, c.b, c.higher, got, c.want)
		}
	}
}
