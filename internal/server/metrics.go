package server

import (
	"sync"
	"sync/atomic"
	"time"

	"ppj/internal/service"
	"ppj/internal/sim"
)

// Metrics is the server's observability surface: lock-free counters and
// gauges on the hot paths (submissions, state transitions, queue depth,
// aggregated coprocessor cost counters) plus a small mutex-guarded map of
// per-algorithm completion counts and latency summaries. Snapshot exports
// everything as one JSON-serialisable value through the admin method
// Server.MetricsSnapshot.
type Metrics struct {
	submitted   atomic.Uint64
	gauges      [numStates]atomic.Int64
	queueDepth  atomic.Int64
	walFailures atomic.Uint64
	cop         sim.AtomicStats

	// Recurring-contract outcomes: fired counts due schedules whose
	// re-execution was submitted; skipped counts due schedules whose fire
	// was refused (quota, backpressure, shutdown, journal failure) — the
	// schedule still advances, so a skip is a missed interval, not a stall.
	recurFired   atomic.Uint64
	recurSkipped atomic.Uint64

	// Sorted-relation cache outcomes: one count per side per execution that
	// consulted the cache (hit = the pre-sorted form was reused; miss = the
	// side sorted cold and, when possible, populated the cache).
	sortCacheHits   atomic.Uint64
	sortCacheMisses atomic.Uint64

	// Per-job device usage: how many executions ran with >1 coprocessor,
	// the total devices attached across executions, and the widest fleet.
	parallelRuns    atomic.Uint64
	devicesAttached atomic.Uint64
	maxDevices      atomic.Int64

	mu   sync.Mutex
	algs map[string]*algStats
}

type algStats struct {
	completed uint64
	failed    uint64
	samples   uint64
	total     time.Duration
	min       time.Duration
	max       time.Duration
}

func newMetrics() *Metrics {
	return &Metrics{algs: make(map[string]*algStats)}
}

// jobAdmitted counts a job entering the table: in Pending for a fresh
// admission, directly in its recovered state for one rebuilt from the WAL —
// recovery bypasses the intermediate transitions, so the gauge invariant
// sum(gauges) == submitted is restored in one step.
func (m *Metrics) jobAdmitted(in State) {
	m.submitted.Add(1)
	m.gauges[in].Add(1)
}

// stateMove keeps the per-state gauges consistent across a transition. The
// invariant sum(gauges) == submitted holds at all times; terminal states
// accumulate, so delivered + failed + (non-terminal states) == submitted.
func (m *Metrics) stateMove(from, to State) {
	m.gauges[from].Add(-1)
	m.gauges[to].Add(1)
}

// queueAdd adjusts the ready-queue depth gauge.
func (m *Metrics) queueAdd(delta int64) { m.queueDepth.Add(delta) }

// walAppendFailed counts a job state transition that could not be made
// durable (the WAL append failed, after which the log stays sealed). The
// in-memory lifecycle continues, so a non-zero count means the job table
// has drifted from what a crash would recover — a health alarm, not noise.
func (m *Metrics) walAppendFailed() { m.walFailures.Add(1) }

// recurrenceFired counts a due schedule whose re-execution was submitted.
func (m *Metrics) recurrenceFired() { m.recurFired.Add(1) }

// recurrenceSkipped counts a due schedule whose fire was refused.
func (m *Metrics) recurrenceSkipped() { m.recurSkipped.Add(1) }

// sortCacheHit counts one join side served from the sorted-relation cache.
func (m *Metrics) sortCacheHit() { m.sortCacheHits.Add(1) }

// sortCacheMiss counts one join side that consulted the cache and sorted
// cold.
func (m *Metrics) sortCacheMiss() { m.sortCacheMisses.Add(1) }

// recordExecution records one worker-executed job: its algorithm's
// completion count (and, for a successful run, latency summary), T's cost
// counters folded into the server-wide aggregate, and the device usage.
func (m *Metrics) recordExecution(out *service.Outcome, d time.Duration) {
	m.recordRun(out.Algorithm, out.Err == nil, d)
	m.cop.Add(out.Stats)
	n := max(out.Devices, 1)
	m.devicesAttached.Add(uint64(n))
	if n > 1 {
		m.parallelRuns.Add(1)
	}
	for {
		cur := m.maxDevices.Load()
		if int64(n) <= cur || m.maxDevices.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// recordRun counts one job against its algorithm: a completion with its
// execution latency, or a failure.
func (m *Metrics) recordRun(alg string, ok bool, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a := m.algs[alg]
	if a == nil {
		a = &algStats{}
		m.algs[alg] = a
	}
	if !ok {
		a.failed++
		return
	}
	a.completed++
	a.samples++
	a.total += d
	if a.samples == 1 || d < a.min {
		a.min = d
	}
	if d > a.max {
		a.max = d
	}
}

// recordFailure records a job that failed without running (backpressure,
// cancellation, deadline, shutdown).
func (m *Metrics) recordFailure(alg string) { m.recordRun(alg, false, 0) }

// AlgSnapshot summarises one algorithm's completions.
type AlgSnapshot struct {
	Completed uint64  `json:"completed"`
	Failed    uint64  `json:"failed"`
	AvgMillis float64 `json:"avg_ms"`
	MinMillis float64 `json:"min_ms"`
	MaxMillis float64 `json:"max_ms"`
}

// Snapshot is a point-in-time view of the server's metrics, shaped for JSON.
type Snapshot struct {
	// Submitted counts every job ever registered.
	Submitted uint64 `json:"submitted"`
	// Jobs holds the current per-state gauges; terminal states accumulate,
	// so summing every state yields Submitted.
	Jobs map[string]int64 `json:"jobs"`
	// QueueDepth is the number of ready jobs waiting for a worker.
	QueueDepth int64 `json:"queue_depth"`
	// WALAppendFailures counts state transitions the WAL could not record;
	// non-zero means recovery after a crash would lag the live job table.
	WALAppendFailures uint64 `json:"wal_append_failures"`
	// Algorithms maps the executed algorithm ("alg1".."alg7", "aggregate";
	// for auto contracts, the planner's choice) to its completion summary.
	Algorithms map[string]AlgSnapshot `json:"algorithms"`
	// Coprocessor aggregates sim.Stats across every finished execution:
	// cells in/out of T, logical reads, comparisons, predicate
	// evaluations, disk requests.
	Coprocessor sim.Stats `json:"coprocessor"`
	// Devices summarises per-job coprocessor fleets.
	Devices DeviceSnapshot `json:"devices"`
	// ResultStoreBytes is the durable result store's live accounted bytes
	// (never above Config.MaxResultBytes when one is set).
	ResultStoreBytes int64 `json:"result_store_bytes"`
	// ResultStoreEvictions counts results evicted at runtime: TTL expiry,
	// LRU eviction under the byte cap, and segments that rotted on disk.
	ResultStoreEvictions uint64 `json:"result_store_evictions"`
	// ResultStoreRecoveryEvictions counts results lost at recovery — torn
	// segments, manifest records with no surviving segment, and orphan
	// segments the manifest never acknowledged.
	ResultStoreRecoveryEvictions uint64 `json:"result_store_recovery_evictions"`
	// SortCacheBytes is the sorted-relation cache's live accounted bytes.
	SortCacheBytes int64 `json:"sort_cache_bytes"`
	// SortCacheEvictions counts sort-cache entries dropped at runtime or
	// reconciled away at recovery (torn or orphan cache segments).
	SortCacheEvictions uint64 `json:"sort_cache_evictions"`
	// SortCacheHits and SortCacheMisses count per-side cache outcomes
	// across executions that consulted the sorted-relation cache.
	SortCacheHits   uint64 `json:"sort_cache_hits"`
	SortCacheMisses uint64 `json:"sort_cache_misses"`
	// RecurrencesFired counts due recurring-contract schedules whose
	// re-execution was submitted; RecurrencesSkipped counts due schedules
	// whose fire was refused (quota, backpressure, shutdown).
	RecurrencesFired   uint64 `json:"recurrences_fired"`
	RecurrencesSkipped uint64 `json:"recurrences_skipped"`
}

// DeviceSnapshot summarises how many coprocessors jobs attached.
type DeviceSnapshot struct {
	// ParallelRuns counts executions that ran with more than one device.
	ParallelRuns uint64 `json:"parallel_runs"`
	// Attached is the total device count across every execution.
	Attached uint64 `json:"attached"`
	// Max is the widest fleet any execution used.
	Max int64 `json:"max"`
}

// Snapshot captures the current metrics.
func (m *Metrics) Snapshot() Snapshot {
	snap := Snapshot{
		Submitted:         m.submitted.Load(),
		Jobs:              make(map[string]int64, numStates),
		QueueDepth:        m.queueDepth.Load(),
		WALAppendFailures: m.walFailures.Load(),
		Algorithms:        make(map[string]AlgSnapshot),
		Coprocessor:       m.cop.Snapshot(),
		Devices: DeviceSnapshot{
			ParallelRuns: m.parallelRuns.Load(),
			Attached:     m.devicesAttached.Load(),
			Max:          m.maxDevices.Load(),
		},
	}
	for s := StatePending; s < numStates; s++ {
		snap.Jobs[s.String()] = m.gauges[s].Load()
	}
	m.mu.Lock()
	for alg, a := range m.algs {
		as := AlgSnapshot{Completed: a.completed, Failed: a.failed}
		if a.samples > 0 {
			as.AvgMillis = float64(a.total.Microseconds()) / float64(a.samples) / 1e3
			as.MinMillis = float64(a.min.Microseconds()) / 1e3
			as.MaxMillis = float64(a.max.Microseconds()) / 1e3
		}
		snap.Algorithms[alg] = as
	}
	m.mu.Unlock()
	return snap
}
