package main

import (
	"errors"
	"fmt"

	"ppj/internal/fleet"
	"ppj/internal/server"
)

// layerMetrics fills in the per-layer set of the traced run, from three
// sources outside the program: the spans stamped around the client calls,
// the fleet's own snapshot taken after shutdown, and the layer probes.
func layerMetrics(res *result, o options, fl *fleetRun, win window, snap fleet.Snapshot, rec walReport, probeCase *contractCase, runDir string) error {
	w := o.workload
	all, untraced, traced := win.latencies()
	joins := float64(len(all))

	// client: the stages of a join as its parties see them.
	stages, unattributed := stageTimes(win.spans)
	us := func(name string) float64 { return median(stages[name]) / 1e3 }
	for _, name := range []string{"register", "dial", "handshake", "upload", "close", "wait_settled", "receive", "done_lag"} {
		res.set("client."+name+"_us", "us", us(name))
	}
	res.set("client.join_p99_ms", "ms", percentile(all, 0.99))
	res.set("client.unattributed_share", "share", median(unattributed))

	// fleet and server: the program's own counters, read after shutdown.
	var maxSubmitted, sumSubmitted float64
	for _, sh := range snap.PerShard {
		maxSubmitted = max(maxSubmitted, float64(sh.Submitted))
		sumSubmitted += float64(sh.Submitted)
	}
	res.set("fleet.spills", "count", float64(snap.Spills))
	res.set("fleet.shard_imbalance", "ratio", maxSubmitted*float64(len(snap.PerShard))/sumSubmitted)
	var queueFull, quota float64
	for i := range win.recs {
		switch err := win.recs[i].err; {
		case errors.Is(err, server.ErrQueueFull):
			queueFull++
		case errors.Is(err, server.ErrQuotaExceeded):
			quota++
		}
	}
	runMs := snap.Fleet.Algorithms[w.alg].AvgMillis
	res.set("server.run_ms", "ms", runMs)
	res.set("server.queue_store_us", "us", us("wait_settled")-runMs*1e3)
	res.set("server.queue_full_refusals", "count", queueFull)
	res.set("server.quota_refusals", "count", quota)
	res.set("server.recover_ms", "ms", rec.recover.Seconds()*1e3)
	res.set("server.recovered_jobs", "count", float64(rec.recoveredJobs))

	// The probes: each layer alone, at the workload's shapes.
	if err := probeService(res, probeCase, o.probeBudget); err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	if err := probeSecop(res, o.probeBudget/2); err != nil {
		return fmt.Errorf("secop probe: %w", err)
	}
	ocbMs, plainMs, err := probeCore(res, w, probeCase.in, o.probeBudget)
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	if err := probeOblivious(res, w, o.seed, o.probeBudget); err != nil {
		return fmt.Errorf("oblivious probe: %w", err)
	}
	if err := probeSim(res, w, probeCase.in, o.seed, o.probeBudget); err != nil {
		return fmt.Errorf("sim probe: %w", err)
	}
	if err := probeOCB(res, ocbMs, plainMs, o.probeBudget); err != nil {
		return fmt.Errorf("ocb probe: %w", err)
	}
	probeRelation(res, o.probeBudget/2)

	// wal and resultstore do work only when the fleet has a data directory;
	// elsewhere the rows are zeros, so the bypass shows as a row.
	totalJoins := float64(res.Attempted - res.Failed)
	res.set("wal.appends_per_join", "count", float64(fl.appends.Load())/totalJoins)
	res.set("wal.syncs_per_join", "count", float64(fl.syncs.Load())/totalJoins)
	res.set("wal.bytes_per_join", "B", float64(rec.logBytes)/totalJoins)
	res.set("wal.replay_ms", "ms", rec.replay.Seconds()*1e3)
	if w.wal {
		if err := probeWAL(res, runDir, o.probeBudget); err != nil {
			return fmt.Errorf("wal probe: %w", err)
		}
		if err := probeResultStore(res, w, probeCase.in, runDir, o.probeBudget); err != nil {
			return fmt.Errorf("resultstore probe: %w", err)
		}
	} else {
		res.set("wal.append_us", "us", 0)
		res.set("wal.realdisk_append_us", "us", 0)
		res.set("resultstore.put_us", "us", 0)
		res.set("resultstore.get_us", "us", 0)
		res.set("resultstore.bytes_per_result_byte", "ratio", 0)
	}

	// runtime: allocation and collection over the timed window.
	res.set("runtime.alloc_mb_per_join", "MB", float64(win.mem.allocBytes)/1e6/joins)
	res.set("runtime.mallocs_per_join", "count", float64(win.mem.mallocs)/joins)
	res.set("runtime.gc_cycles", "count", float64(win.mem.gcCycles))
	res.set("runtime.gc_pause_ms", "ms", win.mem.gcPause.Seconds()*1e3)

	// trace: stamped joins against the unstamped joins that ran beside them.
	p50, p50traced := percentile(untraced, 0.5), percentile(traced, 0.5)
	res.set("trace.overhead_share", "share", (p50traced-p50)/p50)

	addUp(res, w, p50)
	return nil
}

// addUp prints how the layers sum to the join. A sum that misses is a
// finding — a layer nobody has named yet — not a failure of the run.
func addUp(res *result, w workload, p50 float64) {
	v := func(name string) float64 { return res.Metrics[name].Value }
	if w.clients > 1 {
		res.note(fmt.Sprintf("add-up: client stages cover %.1f%% of a join (want at least 95%%); server.run_ms is %.1f%% of join p50 %.3f ms",
			100*(1-v("client.unattributed_share")), 100*v("server.run_ms")/p50, p50))
		return
	}
	sum := (2*float64(w.rows)*v("service.upload_us_per_row")+float64(w.s)*v("service.deliver_us_per_row"))/1e3 + v("service.run_ms")
	res.note(fmt.Sprintf("add-up: service upload+run+deliver = %.1f ms against join p50 %.1f ms (%+.1f%%, want within 10%%); core.join_ocb_ms %.1f against service.run_ms %.1f (%+.1f%%, want within 10%%)",
		sum, p50, 100*(sum-p50)/p50, v("core.join_ocb_ms"), v("service.run_ms"), 100*(v("core.join_ocb_ms")-v("service.run_ms"))/v("service.run_ms")))
	res.note(fmt.Sprintf("bypass: client handshake+upload are %.2f%% of join p50; core puts/gets = %.4f",
		100*(3*v("client.handshake_us")+2*v("client.upload_us"))/1e3/p50, v("core.puts")/v("core.gets")))
}
