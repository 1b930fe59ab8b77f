// Command benchmark is the repository's benchmark: four workloads driven
// through the public client API against an in-process fleet, end-to-end
// metrics from an untraced run, and per-layer metrics from a traced run
// with layer probes. See README.md beside this file.
//
//	benchmark -workload <name> -seed <n> -seconds <s> -trace <0|1>   one run (what BENCHMARK.json's command does)
//	benchmark all -out <file> [-seed n] [-seconds s] [-repeat n]    every workload, untraced then traced, one process each
//	benchmark compare <a.json> <b.json>                             apply BENCHMARK.json's bounds to two files written by all
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "all":
		err = cmdAll(args[1:])
	case len(args) > 0 && args[0] == "compare":
		err = cmdCompare(args[1:])
	default:
		if len(args) > 0 && args[0] == "run" {
			args = args[1:]
		}
		err = cmdRun(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect makes the command exit non-zero after a run that completed
// and printed its record but failed verification.
var errIncorrect = errors.New("the run's outputs failed verification")

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("benchmark run", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: serve-mem, serve-wal, equijoin-2k or scan-1k")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 12, "how long clients keep starting joins")
	trace := fs.Int("trace", 0, "1: the per-layer run (spans and layer probes); 0: the end-to-end run")
	dir := fs.String("dir", "", "scratch directory for WAL data and the span file (default: a temporary directory)")
	out := fs.String("out", "", "also write the full record, with the environment, to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		return fmt.Errorf("-seconds must be positive, -trace 0 or 1, and no arguments may follow the flags")
	}
	if *dir == "" {
		if *dir, err = os.MkdirTemp("", "ppj-benchmark-"); err != nil {
			return err
		}
		defer os.RemoveAll(*dir)
	} else if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	o := options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir,
		setups: 3, probeBudget: 300 * time.Millisecond, started: processStart}
	if o.trace {
		o.setups = 1
	}
	res, err := run(o)
	if err != nil {
		return err
	}
	if *out != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if err := res.print(os.Stdout); err != nil {
		return err
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}
