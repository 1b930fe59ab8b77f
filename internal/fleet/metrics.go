package fleet

import (
	"encoding/json"

	"ppj/internal/server"
)

// ShardMetrics is one shard's snapshot tagged with its index.
type ShardMetrics struct {
	Shard int `json:"shard"`
	server.Snapshot
}

// Snapshot is the fleet's admin view: every shard's own snapshot (the
// per-shard gauges an operator watches for a limping host), the aggregate
// across the fleet (key-wise sums; latency summaries merged sample-
// weighted), and the router's own counters.
type Snapshot struct {
	PerShard []ShardMetrics  `json:"per_shard"`
	Fleet    server.Snapshot `json:"fleet"`
	// Spills counts registrations the ring owner refused with ErrQueueFull
	// that were admitted by another shard. The per-shard gauges stay
	// consistent through a spill — the refusal is side-effect free — so
	// fleet.Submitted always equals the sum of every shard's state gauges.
	Spills uint64 `json:"spills"`
}

// MetricsSnapshot collects every shard's snapshot and the fleet aggregate.
func (r *Router) MetricsSnapshot() Snapshot {
	snap := Snapshot{Spills: r.spills.Load()}
	shardSnaps := make([]server.Snapshot, len(r.shards))
	for i, sh := range r.shards {
		shardSnaps[i] = sh.MetricsSnapshot()
		snap.PerShard = append(snap.PerShard, ShardMetrics{Shard: i, Snapshot: shardSnaps[i]})
	}
	snap.Fleet = aggregate(shardSnaps)
	return snap
}

// aggregate folds per-shard snapshots into fleet totals.
func aggregate(shards []server.Snapshot) server.Snapshot {
	out := server.Snapshot{
		Jobs:       make(map[string]int64),
		Algorithms: make(map[string]server.AlgSnapshot),
	}
	for _, s := range shards {
		out.Submitted += s.Submitted
		for state, n := range s.Jobs {
			out.Jobs[state] += n
		}
		out.QueueDepth += s.QueueDepth
		out.WALAppendFailures += s.WALAppendFailures
		for alg, a := range s.Algorithms {
			out.Algorithms[alg] = mergeAlg(out.Algorithms[alg], a)
		}
		out.Coprocessor.Add(s.Coprocessor)
		out.Devices.ParallelRuns += s.Devices.ParallelRuns
		out.Devices.Attached += s.Devices.Attached
		if s.Devices.Max > out.Devices.Max {
			out.Devices.Max = s.Devices.Max
		}
		out.ResultStoreBytes += s.ResultStoreBytes
		out.ResultStoreEvictions += s.ResultStoreEvictions
		out.ResultStoreRecoveryEvictions += s.ResultStoreRecoveryEvictions
		out.SortCacheBytes += s.SortCacheBytes
		out.SortCacheEvictions += s.SortCacheEvictions
		out.SortCacheHits += s.SortCacheHits
		out.SortCacheMisses += s.SortCacheMisses
		out.RecurrencesFired += s.RecurrencesFired
		out.RecurrencesSkipped += s.RecurrencesSkipped
	}
	return out
}

// mergeAlg combines two per-algorithm summaries: counts add, the average
// is completion-weighted, min/max span both sides. A side with no
// completions contributes no latency.
func mergeAlg(a, b server.AlgSnapshot) server.AlgSnapshot {
	out := server.AlgSnapshot{Completed: a.Completed + b.Completed, Failed: a.Failed + b.Failed}
	switch {
	case a.Completed == 0:
		out.AvgMillis, out.MinMillis, out.MaxMillis = b.AvgMillis, b.MinMillis, b.MaxMillis
	case b.Completed == 0:
		out.AvgMillis, out.MinMillis, out.MaxMillis = a.AvgMillis, a.MinMillis, a.MaxMillis
	default:
		out.AvgMillis = (a.AvgMillis*float64(a.Completed) + b.AvgMillis*float64(b.Completed)) / float64(out.Completed)
		out.MinMillis = a.MinMillis
		if b.MinMillis < out.MinMillis {
			out.MinMillis = b.MinMillis
		}
		out.MaxMillis = a.MaxMillis
		if b.MaxMillis > out.MaxMillis {
			out.MaxMillis = b.MaxMillis
		}
	}
	return out
}

// JSON renders the fleet snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
