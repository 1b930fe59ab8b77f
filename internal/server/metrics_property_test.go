package server

import (
	"math/rand"
	"testing"
)

// legalMoves are the job lifecycle's forward edges (see State): Pending
// gains a session, Uploading is picked up by a worker, Running persists
// its result, Stored serves its last recipient. Every pre-Stored state
// can fail; a Stored job cannot (its result is already durable), so its
// only edge is Delivered.
var legalMoves = map[State][]State{
	StatePending:   {StateUploading, StateFailed},
	StateUploading: {StateRunning, StateFailed},
	StateRunning:   {StateStored, StateFailed},
	StateStored:    {StateDelivered},
}

// TestMetricsGaugeInvariant drives random legal lifecycle histories —
// submissions, transitions, and WAL recoveries — from a seeded math/rand
// and asserts after every step that no per-state gauge goes negative and
// the gauges always sum to submitted. The serving tests only observe this
// invariant incidentally at quiescence; this pins it at every
// intermediate step.
func TestMetricsGaugeInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(20080415)) // seeded: failures replay exactly
	m := newMetrics()
	var live []State // states of non-terminal jobs

	check := func(step int) {
		t.Helper()
		var sum int64
		for s := StatePending; s < numStates; s++ {
			v := m.gauges[s].Load()
			if v < 0 {
				t.Fatalf("step %d: gauge %s = %d, negative", step, s, v)
			}
			sum += v
		}
		if uint64(sum) != m.submitted.Load() {
			t.Fatalf("step %d: gauges sum to %d, submitted %d", step, sum, m.submitted.Load())
		}
	}

	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op == 0: // a recovered job lands directly in its replayed state
			m.jobAdmitted(State(rng.Intn(numStates)))
		case op <= 3 || len(live) == 0: // new registration
			m.jobAdmitted(StatePending)
			live = append(live, StatePending)
		default: // advance a random live job along a legal edge
			i := rng.Intn(len(live))
			nexts := legalMoves[live[i]]
			to := nexts[rng.Intn(len(nexts))]
			m.stateMove(live[i], to)
			if to.Terminal() {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				live[i] = to
			}
		}
		check(step)
	}

	// The exported snapshot agrees with the raw gauges.
	snap := m.Snapshot()
	var sum int64
	for _, v := range snap.Jobs {
		sum += v
	}
	if uint64(sum) != snap.Submitted {
		t.Fatalf("snapshot gauges sum to %d, submitted %d: %+v", sum, snap.Submitted, snap.Jobs)
	}
}
