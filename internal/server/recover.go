package server

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"ppj/internal/server/resultstore"
	"ppj/internal/server/wal"
	"ppj/internal/service"
)

// ErrInterrupted is the typed cause given to jobs that were Uploading or
// Running when the host crashed: their uploads lived only in the dead
// process's memory, so recovery fails them deterministically — tenants get
// a definite answer instead of a silently vanished job.
var ErrInterrupted = errors.New("server: job interrupted by host crash")

// RecoveredError carries a failure cause replayed from the WAL. The
// original typed error died with the old process; only its message is
// durable, so recovered failures compare by string, except ErrInterrupted
// which recovery maps back to the sentinel.
type RecoveredError struct{ Cause string }

// Error implements error.
func (e *RecoveredError) Error() string { return e.Cause }

// recoveredContract is one registered contract and its execution history,
// folded from WAL records. jobs[0] is the original registration; later
// entries are resubmissions, in log order.
type recoveredContract struct {
	contract *service.Contract
	jobs     []*recoveredJob
}

// recoveredJob is one execution's last durable state, folded from WAL
// records.
type recoveredJob struct {
	id    string
	seq   int
	state State
	cause string
}

// manifestLog is one store's replayed manifest: per key its last durable
// word, a stored record not followed by an eviction or the last eviction's
// cause.
type manifestLog map[string]manifestWord

type manifestWord struct {
	stored     bool
	evictCause string
}

func (man manifestLog) fold(rec wal.Record, stored bool) {
	w := manifestWord{stored: true}
	if !stored {
		w = man[rec.ContractID]
		w.evictCause = rec.Cause
	}
	man[rec.ContractID] = w
}

// replayed is the WAL folded into what recovery rebuilds from: per-contract
// execution histories (registration order, executions in submission
// order), both stores' manifests, and the recurrence table.
type replayed struct {
	contracts      []*recoveredContract
	results, cache manifestLog
	schedules      map[string]Schedule
}

// foldRecords replays WAL records. Transition and result-manifest records
// address executions by job ID, which is the contract ID itself for first
// executions. Later records simply overwrite earlier ones — the log is
// the authority on ordering — and records for unregistered contracts or
// unborn jobs (possible only through manual log surgery) are dropped.
func foldRecords(recs []wal.Record) (*replayed, error) {
	re := &replayed{
		results:   make(manifestLog),
		cache:     make(manifestLog),
		schedules: make(map[string]Schedule),
	}
	byContract := make(map[string]*recoveredContract)
	byJob := make(map[string]*recoveredJob)
	for _, rec := range recs {
		switch rec.Type {
		case wal.TypeRegistered:
			c, err := service.UnmarshalContract(rec.Contract)
			if err != nil {
				return nil, err
			}
			if _, dup := byContract[c.ID]; dup {
				return nil, fmt.Errorf("server: wal registers contract %q twice", c.ID)
			}
			rc := &recoveredContract{contract: c}
			rj := &recoveredJob{id: c.ID, seq: 1, state: StatePending}
			rc.jobs = append(rc.jobs, rj)
			byContract[c.ID] = rc
			byJob[rj.id] = rj
			re.contracts = append(re.contracts, rc)
		case wal.TypeResubmitted:
			rc, ok := byContract[rec.ContractID]
			if !ok {
				continue
			}
			if _, dup := byJob[rec.JobID]; dup {
				return nil, fmt.Errorf("server: wal resubmits job %q twice", rec.JobID)
			}
			rj := &recoveredJob{id: rec.JobID, seq: len(rc.jobs) + 1, state: StatePending}
			rc.jobs = append(rc.jobs, rj)
			byJob[rj.id] = rj
		case wal.TypeTransition:
			rj, ok := byJob[rec.ContractID]
			if !ok {
				continue
			}
			if rec.To < 0 || rec.To >= numStates {
				return nil, fmt.Errorf("server: wal transition to unknown state %d", rec.To)
			}
			rj.state = State(rec.To)
			rj.cause = rec.Cause
		case wal.TypeResultStored, wal.TypeResultEvicted:
			if _, ok := byJob[rec.ContractID]; ok {
				re.results.fold(rec, rec.Type == wal.TypeResultStored)
			}
		case wal.TypeCacheStored, wal.TypeCacheEvicted:
			re.cache.fold(rec, rec.Type == wal.TypeCacheStored)
		case wal.TypeScheduled:
			// The last record per contract wins — each fire appends the
			// advanced due-time, so the log's final word is the live schedule.
			if _, ok := byContract[rec.ContractID]; ok {
				re.schedules[rec.ContractID] = Schedule{
					Every: time.Duration(rec.Every),
					Next:  time.Unix(0, rec.Due),
				}
			}
		}
	}
	return re, nil
}

// recover rebuilds the registry, the job table, the tenant quota slots, and
// both stores' indexes from replayed WAL records. Jobs that were Pending
// resume live (no data had arrived; the parties simply reconnect). Jobs
// that were Uploading or Running are failed with ErrInterrupted — their
// uploads died with the process — and that verdict is appended to the WAL,
// so a second restart reaches the identical table. Jobs that were Stored
// resume serving their result from the durable store (done stays open: the
// job still owes deliveries); Delivered and Failed jobs become tombstones
// that answer reconnecting recipients.
func (s *Server) recover(recs []wal.Record) error {
	re, err := foldRecords(recs)
	if err != nil {
		return err
	}
	serving := make(map[string]bool)
	for _, rc := range re.contracts {
		for _, rj := range rc.jobs {
			j, err := s.newJob(rc.contract, rj.id, rj.seq, rj.state)
			if err == nil {
				j.err = recoveredCause(rj)
				err = s.admit(j, "", nil)
			}
			if err != nil {
				return fmt.Errorf("server: recovering job %q: %w", rj.id, err)
			}
			j.arrive(rj.state)
			switch rj.state {
			case StateUploading, StateRunning:
				j.fail(ErrInterrupted)
			case StateStored, StateDelivered:
				serving[rj.id] = true
				if _, ok := re.results[rj.id]; !ok && rj.state == StateDelivered {
					// Delivered before the result store existed: the result was
					// never persisted, so reconnecting recipients get the typed
					// pre-store eviction instead of a bare "unavailable".
					s.results.MarkEvicted(rj.id, resultstore.CausePreStore)
				}
			}
		}
	}
	reconcile(s.results, re.results, serving)
	reconcile(s.sortcache, re.cache, nil)
	// Recurring schedules resume at their journaled due instants — not
	// "now + every" — so a due-time survives any number of restarts
	// unchanged and Tick fires it as soon as the clock catches up.
	for id, sc := range re.schedules {
		s.recur[id] = &recurrence{every: sc.Every, next: sc.Next}
	}
	return nil
}

// reconcile squares one store's index — what its scan found on disk —
// with its replayed manifest. An eviction the manifest records is
// rematerialised as a tombstone (quietly: the record is already durable).
// A stored entry with no surviving segment (the scan drops torn ones) is
// tombstoned as torn. An intact entry nobody can be served from — wanted,
// when given, lists the keys that still have a reader; the result of a job
// that never durably reached Stored has none — is evicted as torn. Both
// are journaled, so the next replay agrees without re-counting. Finally
// orphan segments, whose stored record never made the log, are dropped:
// for the sort cache a torn cache-stored record costs exactly the cached
// sorted form, and the job stays runnable cold. Keys are visited in
// sorted order so recovery appends the same records on every run.
func reconcile(st *resultstore.Store, man manifestLog, wanted map[string]bool) {
	keys := make([]string, 0, len(man))
	for key := range man {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	live := make(map[string]bool)
	for _, key := range keys {
		switch w := man[key]; {
		case w.evictCause != "":
			st.MarkEvicted(key, resultstore.Cause(w.evictCause))
		case !st.Has(key):
			st.MarkLost(key)
		case wanted != nil && !wanted[key]:
			st.Discard(key, resultstore.CauseTorn)
		default:
			live[key] = true
		}
	}
	for _, key := range st.IDs() {
		if !live[key] {
			st.Remove(key)
		}
	}
}

// recoveredCause reconstructs a terminal job's error from its recorded
// cause. Delivered jobs have none; ErrInterrupted survives restarts as the
// sentinel so errors.Is keeps working across any number of recoveries.
func recoveredCause(rj *recoveredJob) error {
	if rj.state != StateFailed {
		return nil
	}
	switch rj.cause {
	case ErrInterrupted.Error():
		return ErrInterrupted
	case "":
		return &RecoveredError{Cause: "failure cause not recorded"}
	}
	return &RecoveredError{Cause: rj.cause}
}

// contractOfJob derives the contract ID a job ID belongs to: job IDs are
// "<contract>#<seq>" for resubmissions and the contract ID itself for first
// executions. The fleet router uses it to route job-addressed hellos to the
// shard that owns the contract.
func contractOfJob(jobID string) string {
	if i := strings.Index(jobID, "#"); i >= 0 {
		return jobID[:i]
	}
	return jobID
}
