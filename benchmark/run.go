package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ppj/internal/fleet"
	"ppj/internal/server/wal"
)

// options is one run: one process, one workload.
type options struct {
	workload workload
	seed     uint64
	seconds  float64 // how long clients keep starting joins
	trace    bool    // the per-layer run: spans on every second join, then the layer probes
	dir      string  // scratch directory for WAL data and the span file
	// setups is how many times the untraced run sets up — generate, boot,
	// warm up — before the timed window; setup_s is their median. The
	// traced run sets up once.
	setups int
	// probeBudget bounds each layer probe that is cheaper than its budget;
	// a probe that runs one large join takes as long as the join.
	probeBudget time.Duration
	started     time.Time // process start, where the first set-up begins
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's record. The last line of standard output carries
// correct, attempted, failed and metrics; the file written with -out
// carries everything.
type result struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Env         environment       `json:"env"`
	WallSeconds float64           `json:"wall_s"`
	Samples     int               `json:"samples"` // verified timed joins behind the latency figures
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Notes       []string          `json:"notes,omitempty"`

	order []string // metric names as emitted, for printing
}

// set records a metric; a name is emitted once per run.
func (r *result) set(name, unit string, v float64) {
	if _, dup := r.Metrics[name]; dup {
		panic("benchmark: metric " + name + " emitted twice")
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

func (r *result) note(s string) { r.Notes = append(r.Notes, s) }

// fail records a verification failure: the run completes and prints, and
// the command exits non-zero.
func (r *result) fail(s string) {
	r.Correct = false
	r.note("INCORRECT: " + s)
}

// print writes every metric by name with its unit, then the notes, then the
// one-line JSON object the driver reads.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s seed %d trace %v: %d joins attempted, %d failed, %d timed samples, %.1f s\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.Samples, r.WallSeconds)
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// run executes one workload once and returns its record. An error means the
// run could not be carried out; a run that completed with wrong results
// returns a record with Correct false.
func run(o options) (*result, error) {
	w := o.workload
	res := &result{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Env: readEnvironment(o.dir), Correct: true, Metrics: make(map[string]metric),
	}
	runDir, err := os.MkdirTemp(o.dir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	pool := w.warmup + int(math.Ceil(w.poolPerSecond*o.seconds)) + w.clients
	var (
		fl         *fleetRun
		cases      []contractCase
		warm       window
		setupTimes []float64
	)
	for round, began := 0, o.started; round < o.setups; round, began = round+1, time.Now() {
		if fl != nil { // a rehearsal: tear it down, keep only its duration
			if _, err := fl.stop(); err != nil {
				return nil, err
			}
		}
		if cases, err = w.prepare(o.seed, pool); err != nil {
			return nil, err
		}
		dataDir := ""
		if w.wal {
			dataDir = filepath.Join(runDir, fmt.Sprintf("data-%d", round))
		}
		if fl, err = boot(w, dataDir); err != nil {
			return nil, err
		}
		warm = fl.warmUp(cases[:w.warmup], w.clients)
		// Collect now, so that every run's first cycle starts at the same
		// point of the window.
		runtime.GC()
		setupTimes = append(setupTimes, time.Since(began).Seconds())
	}

	win := fl.drive(cases[w.warmup:], w.clients, time.Duration(o.seconds*float64(time.Second)), w.rssAfter, o.trace)
	snap, err := fl.stop()
	if err != nil {
		return nil, err
	}

	res.Attempted = len(warm.recs) + len(win.recs)
	res.Failed = verify(warm.recs, res.note) + verify(win.recs, res.note)
	if res.Failed > 0 {
		res.Correct = false
	}
	all, _, _ := win.latencies()
	res.Samples = len(all)
	if len(all) == 0 {
		return nil, fmt.Errorf("%s: no join completed in the timed window", w.name)
	}
	acked := res.Attempted - res.Failed

	// Every join of a workload has the same public sizes, so the fleet's
	// total transfers are a whole multiple of the closed form.
	completed := snap.Fleet.Algorithms[w.alg].Completed
	transfers := snap.Fleet.Coprocessor.Transfers()
	if completed != uint64(acked) {
		res.fail(fmt.Sprintf("the fleet counts %d completed %s runs, the driver %d acknowledged joins", completed, w.alg, acked))
	}
	if transfers != completed*uint64(w.modelTransfers()) {
		res.fail(fmt.Sprintf("%d joins made %d transfers, the closed form says %d each", completed, transfers, w.modelTransfers()))
	}

	var rec walReport
	if w.wal {
		if rec, err = fl.recoverCheck(res, acked); err != nil {
			return nil, err
		}
	}

	if !o.trace {
		res.set("setup_s", "s", median(setupTimes))
		sum := win.summarize()
		res.set("joins_per_s", "1/s", sum.joinsPerS)
		res.set("join_p50_ms", "ms", sum.p50)
		res.set("join_p90_ms", "ms", sum.p90)
		res.set("cpu_ms_per_join", "ms", sum.cpuPerJoin)
		res.set("transfers_per_join", "count", float64(transfers)/float64(max(completed, 1)))
		res.set("peak_rss_mb", "MB", win.rss)
	} else {
		if err := checkSpans(win.spans); err != nil {
			res.fail("span trees: " + err.Error())
		}
		if err := writeSpans(filepath.Join(o.dir, "trace-"+w.name+".json"), win.spans); err != nil {
			return nil, err
		}
		if err := layerMetrics(res, o, fl, win, snap, rec, &cases[0], runDir); err != nil {
			return nil, err
		}
	}
	res.WallSeconds = time.Since(o.started).Seconds()
	return res, nil
}

// walReport is what the WAL workload learns by restarting the fleet over
// its own data directory.
type walReport struct {
	recover       time.Duration // fleet.New over the populated directory
	recoveredJobs int64
	replay        time.Duration // wal.Recover over every shard's log
	logBytes      int64
}

// recoverCheck is the durability check: after the clean shutdown, a new
// fleet over the same directory must know every acknowledged join as
// delivered, and a second restart must yield a byte-identical snapshot.
func (f *fleetRun) recoverCheck(res *result, acked int) (walReport, error) {
	var rep walReport
	for i := 0; i < f.rt.NumShards(); i++ {
		dir := filepath.Join(f.cfg.DataDir, fmt.Sprintf("shard-%d", i))
		t := time.Now()
		if _, err := wal.Recover(dir); err != nil {
			return rep, err
		}
		rep.replay += time.Since(t)
		st, err := os.Stat(filepath.Join(dir, wal.FileName))
		if err != nil {
			return rep, err
		}
		rep.logBytes += st.Size()
	}
	restart := func() ([]byte, fleet.Snapshot, time.Duration, error) {
		t := time.Now()
		rt, err := fleet.New(f.cfg)
		if err != nil {
			return nil, fleet.Snapshot{}, 0, err
		}
		d := time.Since(t)
		snap := rt.MetricsSnapshot()
		js, err := snap.JSON()
		if serr := rt.Shutdown(context.Background()); err == nil {
			err = serr
		}
		return js, snap, d, err
	}
	first, snap, d, err := restart()
	if err != nil {
		return rep, err
	}
	rep.recover, rep.recoveredJobs = d, int64(snap.Fleet.Submitted)
	if got := snap.Fleet.Jobs["delivered"]; got != int64(acked) {
		res.fail(fmt.Sprintf("after restart the fleet knows %d delivered jobs, the driver was acknowledged %d", got, acked))
	}
	second, _, _, err := restart()
	if err != nil {
		return rep, err
	}
	if !bytes.Equal(first, second) {
		res.fail("a second restart over the same directory gave a different metrics snapshot")
	}
	return rep, nil
}
