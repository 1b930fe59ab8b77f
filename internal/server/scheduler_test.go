package server

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// schedJob builds the minimal Job the scheduler layer needs: identity,
// tenant, and priority. Scheduler tests drive Enqueue/Next directly in
// virtual time (one Next call = one time unit), so no service stack, no
// context, and no wall clock are involved.
func schedJob(id, tenant string, priority int) *Job {
	return &Job{id: id, tenant: tenant, priority: priority}
}

// TestFairSchedulerSingleTenantIsFIFO pins the claim that let the separate
// FIFO scheduler go: for a single tenant at priority 0 the fair scheduler is
// a bounded FIFO. Seeded Enqueue/Next interleavings are checked step by step
// against a plain slice model — dequeue order equals arrival order,
// ErrQueueFull exactly at the bound, Full/Depth/Cap agree — and Close drains
// the remainder in arrival order, ends Next, and turns Enqueue into
// ErrShuttingDown: every assertion the FIFO scheduler's own test made.
func TestFairSchedulerSingleTenantIsFIFO(t *testing.T) {
	const bound = 3
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newFairScheduler(bound, nil)
		var model []string
		arrivals := 0
		for step := 0; step < 200; step++ {
			if rng.Intn(2) == 0 || len(model) == 0 {
				id := fmt.Sprintf("j%d", arrivals)
				arrivals++
				err := s.Enqueue(schedJob(id, "", 0))
				if len(model) >= bound {
					if !errors.Is(err, ErrQueueFull) {
						t.Fatalf("seed %d step %d: enqueue past bound = %v, want ErrQueueFull", seed, step, err)
					}
				} else if err != nil {
					t.Fatalf("seed %d step %d: enqueue under bound refused: %v", seed, step, err)
				} else {
					model = append(model, id)
				}
			} else {
				j, ok := s.Next()
				if !ok || j.id != model[0] {
					t.Fatalf("seed %d step %d: dequeued %v/%v, want %s (arrival order)", seed, step, j, ok, model[0])
				}
				model = model[1:]
			}
			if s.Full() != (len(model) >= bound) || s.Depth() != len(model) || s.Cap() != bound {
				t.Fatalf("seed %d step %d: Full/Depth/Cap = %v/%d/%d with %d queued", seed, step, s.Full(), s.Depth(), s.Cap(), len(model))
			}
		}
		drained := s.Close()
		if len(drained) != len(model) {
			t.Fatalf("seed %d: Close drained %d jobs, want %d", seed, len(drained), len(model))
		}
		for i, j := range drained {
			if j.id != model[i] {
				t.Fatalf("seed %d: drained[%d] = %s, want %s (arrival order)", seed, i, j.id, model[i])
			}
		}
		if _, ok := s.Next(); ok {
			t.Fatalf("seed %d: Next after Close returned a job", seed)
		}
		if err := s.Enqueue(schedJob("late", "", 0)); !errors.Is(err, ErrShuttingDown) {
			t.Fatalf("seed %d: enqueue after Close = %v, want ErrShuttingDown", seed, err)
		}
	}
}

func TestFairSchedulerPerTenantBound(t *testing.T) {
	s := newFairScheduler(2, nil)
	for i := 0; i < 2; i++ {
		if err := s.Enqueue(schedJob(fmt.Sprintf("a%d", i), "alice", 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Alice is at her bound: her next job is refused, naming her...
	err := s.Enqueue(schedJob("a2", "alice", 0))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("enqueue past tenant bound = %v, want ErrQueueFull", err)
	}
	if want := `tenant "alice"`; err == nil || !contains(err.Error(), want) {
		t.Fatalf("refusal %q does not name the tenant (%s)", err, want)
	}
	// ...while Bob's queue is untouched.
	if err := s.Enqueue(schedJob("b0", "bob", 0)); err != nil {
		t.Fatalf("other tenant refused: %v", err)
	}
	if s.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", s.Depth())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestFairSchedulerPriorityClasses(t *testing.T) {
	s := newFairScheduler(16, nil)
	s.Enqueue(schedJob("normal", "t", 0))
	s.Enqueue(schedJob("low", "t", -1))
	s.Enqueue(schedJob("high", "t", 1))
	s.Enqueue(schedJob("normal2", "t", 0))
	var got []string
	for s.Depth() > 0 {
		j, _ := s.Next()
		got = append(got, j.id)
	}
	want := []string{"high", "normal", "normal2", "low"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v", got, want)
		}
	}
}

// TestFairSchedulerFloodTrickleFairness is the adversarial fairness
// property the tentpole pins: tenant "flood" keeps its queue saturated at
// the bound while tenant "trickle" submits one job at a time. Queue wait
// is measured in virtual time — one Next() call is one unit — and the
// trickling tenant's p99 wait must stay bounded by a small constant factor
// of its fair share (with equal weights, its fair share is every other
// dispatch slot), no matter how deep the flood's backlog is. Under the old
// global FIFO, every trickle job would wait behind the flood's entire
// backlog (bound ~= QueueDepth); here the bound is a handful of slots.
func TestFairSchedulerFloodTrickleFairness(t *testing.T) {
	const bound = 128
	s := newFairScheduler(bound, nil)

	flood := 0
	topUpFlood := func() {
		for {
			if err := s.Enqueue(schedJob(fmt.Sprintf("f%d", flood), "flood", 0)); err != nil {
				return // at the flood tenant's bound: saturated, as intended
			}
			flood++
		}
	}
	topUpFlood()

	now := 0 // virtual clock: advances one unit per dispatch
	var waits []int
	trickleQueued := -1
	trickleSeq := 0
	for now < 4*bound {
		if trickleQueued < 0 {
			if err := s.Enqueue(schedJob(fmt.Sprintf("t%d", trickleSeq), "trickle", 0)); err != nil {
				t.Fatalf("trickle enqueue refused at virtual time %d: %v", now, err)
			}
			trickleSeq++
			trickleQueued = now
		}
		j, ok := s.Next()
		if !ok {
			t.Fatal("scheduler closed mid-test")
		}
		now++
		if j.tenant == "trickle" {
			waits = append(waits, now-trickleQueued)
			trickleQueued = -1
		}
		topUpFlood()
	}

	if len(waits) < bound {
		t.Fatalf("trickle tenant completed %d jobs in %d slots; starved", len(waits), 4*bound)
	}
	sort.Ints(waits)
	p99 := waits[len(waits)*99/100]
	// Fair share with equal weights and two active tenants is one dispatch
	// per two slots; allow a factor-of-three constant over it. The old FIFO
	// would put p99 near the flood backlog (bound = 128).
	const maxWait = 6
	if p99 > maxWait {
		t.Fatalf("trickle p99 queue wait = %d virtual slots, want <= %d (fair-share bound); FIFO-like starvation", p99, maxWait)
	}
}

// TestFairSchedulerStarvationBound pins the weighted round-robin service
// guarantee: with active weights summing to W, a tenant of weight w waits
// at most W-w dispatch slots between two of its consecutive dequeues while
// it has queued work.
func TestFairSchedulerStarvationBound(t *testing.T) {
	weights := map[string]int{"heavy": 4, "mid": 2, "light": 1}
	const W = 7
	s := newFairScheduler(256, weights)
	for tenant := range weights {
		for i := 0; i < 64; i++ {
			if err := s.Enqueue(schedJob(fmt.Sprintf("%s-%d", tenant, i), tenant, 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	last := map[string]int{}
	served := map[string]int{}
	for slot := 0; s.Depth() > 0; slot++ {
		j, _ := s.Next()
		if prev, seen := last[j.tenant]; seen {
			gap := slot - prev
			maxGap := W - weights[j.tenant] + 1
			if gap > maxGap && s.Depth() > 0 {
				t.Fatalf("tenant %s waited %d slots between dequeues, want <= %d", j.tenant, gap, maxGap)
			}
		}
		last[j.tenant] = slot
		served[j.tenant]++
	}
	// Weighted shares over the full drain: heavy must have been served
	// first at roughly 4x light's rate in every prefix; the gap assertion
	// above already pins the schedule, so here just confirm totals.
	for tenant := range weights {
		if served[tenant] != 64 {
			t.Fatalf("tenant %s served %d jobs, want 64", tenant, served[tenant])
		}
	}
}

// TestFairSchedulerDeficitBounded is the no-unbounded-deficit property:
// across a randomized adversarial enqueue/dequeue schedule, no tenant's
// deficit counter ever exceeds its weight — credit cannot be hoarded, so
// no tenant can ever burst past its fair share.
func TestFairSchedulerDeficitBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	weights := map[string]int{"a": 1, "b": 3, "c": 5}
	tenants := []string{"a", "b", "c"}
	s := newFairScheduler(64, weights)
	queued := 0
	for step := 0; step < 10_000; step++ {
		if queued == 0 || rng.Intn(2) == 0 {
			tenant := tenants[rng.Intn(len(tenants))]
			if err := s.Enqueue(schedJob(fmt.Sprintf("j%d", step), tenant, rng.Intn(3)-1)); err == nil {
				queued++
			}
		} else {
			if _, ok := s.Next(); !ok {
				t.Fatal("scheduler closed mid-test")
			}
			queued--
		}
		s.mu.Lock()
		for tenant, tq := range s.tenants {
			w := weights[tenant]
			if tq.deficit > w {
				s.mu.Unlock()
				t.Fatalf("step %d: tenant %s deficit %d exceeds weight %d", step, tenant, tq.deficit, w)
			}
			if tq.queued == 0 && tq.deficit != 0 {
				s.mu.Unlock()
				t.Fatalf("step %d: idle tenant %s banked deficit %d", step, tenant, tq.deficit)
			}
		}
		s.mu.Unlock()
	}
}

// TestFairSchedulerCloseDrains pins shutdown semantics: Close returns
// every queued job exactly once and wakes blocked Next callers.
func TestFairSchedulerCloseDrains(t *testing.T) {
	s := newFairScheduler(8, nil)
	ids := map[string]bool{}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("a%d", i)
		s.Enqueue(schedJob(id, "a", 0))
		ids[id] = true
	}
	s.Enqueue(schedJob("b0", "b", 0))
	ids["b0"] = true

	woke := make(chan struct{})
	go func() {
		// A blocked worker must observe the close.
		for {
			if _, ok := s.Next(); !ok {
				close(woke)
				return
			}
		}
	}()

	drained := s.Close()
	<-woke
	got := 0
	for _, j := range drained {
		if !ids[j.id] {
			t.Fatalf("Close returned unknown or duplicate job %q", j.id)
		}
		delete(ids, j.id)
		got++
	}
	// The racing worker may have consumed some jobs before Close; drained
	// plus consumed must cover all five with no duplicates.
	if got+len(ids) != 5 && len(ids) != 0 {
		t.Fatalf("drain accounting broken: %d drained, %d unaccounted", got, len(ids))
	}
}
