package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the tools read.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end to end only
}

func readSpec(path string) (spec, error) {
	var s spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(raw, &s)
}

// resultSet is the file `all` writes: every workload's untraced and traced
// records, `repeat` times over.
type resultSet struct {
	Runs []*result `json:"runs"`
}

// cmdAll runs every workload untraced and then traced, one fresh process
// per run so each starts from a clean heap and resident set.
func cmdAll(args []string) error {
	fs := flag.NewFlagSet("benchmark all", flag.ContinueOnError)
	out := fs.String("out", "", "file to write the set of records to (required)")
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark's definition, for run_seconds")
	seed := fs.Uint64("seed", 1, "seed of every run")
	repeat := fs.Int("repeat", 1, "runs per workload and mode")
	dir := fs.String("dir", "", "scratch directory passed to every run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" || *repeat < 1 {
		return fmt.Errorf("all needs -out <file> and -repeat of at least 1")
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(*dir, "all-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var set resultSet
	for rep := 0; rep < *repeat; rep++ {
		for _, trace := range []string{"0", "1"} {
			for _, w := range sp.Workloads {
				file := filepath.Join(tmp, "run.json")
				runArgs := []string{"run", "-workload", w.Name, "-seed", strconv.FormatUint(*seed, 10),
					"-seconds", strconv.Itoa(sp.RunSeconds), "-trace", trace, "-out", file}
				if *dir != "" {
					runArgs = append(runArgs, "-dir", *dir)
				}
				cmd := exec.Command(self, runArgs...)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s (trace %s): %w", w.Name, trace, err)
				}
				raw, err := os.ReadFile(file)
				if err != nil {
					return err
				}
				res := new(result)
				if err := json.Unmarshal(raw, res); err != nil {
					return err
				}
				set.Runs = append(set.Runs, res)
			}
		}
	}
	raw, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(raw, '\n'), 0o644)
}

// values collects one end-to-end metric's readings on one workload.
func (s resultSet) values(workload, name string) []float64 {
	var v []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			v = append(v, m.Value)
		}
	}
	return v
}

// spread is the distance between the first and third quartile as a share
// of the median; unknown (0) below four readings.
func spread(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	return (percentile(v, 0.75) - percentile(v, 0.25)) / median(v)
}

// verdict judges side b against side a under the metric's bound. A metric
// whose own run-to-run spread is wider than the bound is unresolved, unless
// every reading of one side beats every reading of the other.
func verdict(a, b []float64, higherIsBetter bool, bound float64) string {
	ma, mb := median(a), median(b)
	gain := (ma - mb) / ma // positive: b reads lower
	if higherIsBetter {
		gain = -gain
	}
	overlap := slices.Max(a) >= slices.Min(b) && slices.Max(b) >= slices.Min(a)
	if overlap && max(spread(a), spread(b)) > bound {
		return "unresolved"
	}
	switch {
	case gain > bound:
		return "better"
	case gain < -bound:
		return "worse"
	}
	return "same"
}

// cmdCompare prints one row per workload and end-to-end metric: both
// medians, b's ratio to a with a named as its base, the bound, and the
// verdict. It fails if any row reads worse.
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark's definition, for the metrics and their bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare needs two files written by `all`")
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	var sets [2]resultSet
	for i := range sets {
		raw, err := os.ReadFile(fs.Arg(i))
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", fs.Arg(i), err)
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta (n)\tb (n)\tb/a, base a\tbound\tverdict\n")
	worse := 0
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			a, b := sets[0].values(w.Name, m.Name), sets[1].values(w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\tmissing\n", w.Name, m.Name)
				worse++
				continue
			}
			ma, mb := median(a), median(b)
			v := verdict(a, b, m.Better == "higher", m.Bound)
			if v == "worse" {
				worse++
			}
			ratio := fmt.Sprintf("%.4f of %.6g %s", mb/ma, ma, m.Unit)
			if m.Unit == "count" && ma == math.Trunc(ma) && mb == math.Trunc(mb) {
				ratio = fmt.Sprintf("%+d on %d", int64(mb)-int64(ma), int64(ma))
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g (%d)\t%.6g (%d)\t%s\t%g\t%s\n", w.Name, m.Name, ma, len(a), mb, len(b), ratio, m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d rows read worse or are missing", worse)
	}
	return nil
}
