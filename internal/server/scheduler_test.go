package server

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// schedJob builds the minimal Job the scheduler layer needs: identity and
// tenant. Scheduler tests drive Enqueue/Next directly in virtual time (one
// Next call = one time unit), so no service stack, no context, and no wall
// clock are involved.
func schedJob(id, tenant string) *Job {
	return &Job{id: id, tenant: tenant}
}

// TestFairSchedulerSingleTenantIsFIFO pins the claim that let the separate
// FIFO scheduler go: for a single tenant the fair scheduler is a bounded
// FIFO. Seeded Enqueue/Next interleavings are checked step by step
// against a plain slice model — dequeue order equals arrival order,
// ErrQueueFull exactly at the bound, Full/Depth/Cap agree — and Close drains
// the remainder in arrival order, ends Next, and turns Enqueue into
// ErrShuttingDown: every assertion the FIFO scheduler's own test made.
func TestFairSchedulerSingleTenantIsFIFO(t *testing.T) {
	const bound = 3
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newFairScheduler(bound)
		var model []string
		arrivals := 0
		for step := 0; step < 200; step++ {
			if rng.Intn(2) == 0 || len(model) == 0 {
				id := fmt.Sprintf("j%d", arrivals)
				arrivals++
				err := s.Enqueue(schedJob(id, ""))
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
		if err := s.Enqueue(schedJob("late", "")); !errors.Is(err, ErrShuttingDown) {
			t.Fatalf("seed %d: enqueue after Close = %v, want ErrShuttingDown", seed, err)
		}
	}
}

func TestFairSchedulerPerTenantBound(t *testing.T) {
	s := newFairScheduler(2)
	for i := 0; i < 2; i++ {
		if err := s.Enqueue(schedJob(fmt.Sprintf("a%d", i), "alice")); err != nil {
			t.Fatal(err)
		}
	}
	// Alice is at her bound: her next job is refused, naming her...
	err := s.Enqueue(schedJob("a2", "alice"))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("enqueue past tenant bound = %v, want ErrQueueFull", err)
	}
	if want := `tenant "alice"`; err == nil || !contains(err.Error(), want) {
		t.Fatalf("refusal %q does not name the tenant (%s)", err, want)
	}
	// ...while Bob's queue is untouched.
	if err := s.Enqueue(schedJob("b0", "bob")); err != nil {
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

// TestFairSchedulerFloodTrickleFairness is the adversarial fairness
// property the tentpole pins: tenant "flood" keeps its queue saturated at
// the bound while tenant "trickle" submits one job at a time. Queue wait
// is measured in virtual time — one Next() call is one unit — and the
// trickling tenant's p99 wait must stay bounded by a small constant factor
// of its fair share (every other dispatch slot), no matter how deep the flood's backlog is. Under the old
// global FIFO, every trickle job would wait behind the flood's entire
// backlog (bound ~= QueueDepth); here the bound is a handful of slots.
func TestFairSchedulerFloodTrickleFairness(t *testing.T) {
	const bound = 128
	s := newFairScheduler(bound)

	flood := 0
	topUpFlood := func() {
		for {
			if err := s.Enqueue(schedJob(fmt.Sprintf("f%d", flood), "flood")); err != nil {
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
			if err := s.Enqueue(schedJob(fmt.Sprintf("t%d", trickleSeq), "trickle")); err != nil {
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
	// Fair share with two active tenants is one dispatch per two slots; allow a factor-of-three constant over it. The old FIFO
	// would put p99 near the flood backlog (bound = 128).
	const maxWait = 6
	if p99 > maxWait {
		t.Fatalf("trickle p99 queue wait = %d virtual slots, want <= %d (fair-share bound); FIFO-like starvation", p99, maxWait)
	}
}

// checkStarvationBound replays a dispatch order and fails if any tenant
// waited more than tenants slots between two of its consecutive dequeues.
func checkStarvationBound(t *testing.T, order []*Job, tenants int) {
	t.Helper()
	last := map[string]int{}
	for slot, j := range order {
		if prev, seen := last[j.tenant]; seen && slot-prev > tenants {
			t.Fatalf("tenant %s waited %d slots between dequeues (slots %d..%d), want <= %d",
				j.tenant, slot-prev, prev, slot, tenants)
		}
		last[j.tenant] = slot
	}
}

// TestFairSchedulerStarvationBound pins the round-robin service guarantee:
// with T tenants holding work, a tenant waits at most T dispatch slots
// between two of its consecutive dequeues. The bound must survive a tenant
// that drains and comes straight back: it rejoins the round last, behind
// every tenant already waiting.
func TestFairSchedulerStarvationBound(t *testing.T) {
	t.Run("backlogged", func(t *testing.T) {
		tenants := []string{"heavy", "mid", "light"}
		s := newFairScheduler(256)
		for _, tenant := range tenants {
			for i := 0; i < 64; i++ {
				if err := s.Enqueue(schedJob(fmt.Sprintf("%s-%d", tenant, i), tenant)); err != nil {
					t.Fatal(err)
				}
			}
		}
		var order []*Job
		served := map[string]int{}
		for s.Depth() > 0 {
			j, _ := s.Next()
			order = append(order, j)
			served[j.tenant]++
		}
		checkStarvationBound(t, order, len(tenants))
		for _, tenant := range tenants {
			if served[tenant] != 64 {
				t.Fatalf("tenant %s served %d jobs, want 64", tenant, served[tenant])
			}
		}
	})
	t.Run("drain-and-return", func(t *testing.T) {
		s := newFairScheduler(8)
		enqueue := func(id, tenant string) {
			if err := s.Enqueue(schedJob(id, tenant)); err != nil {
				t.Fatal(err)
			}
		}
		var order []*Job
		next := func(n int) {
			for i := 0; i < n; i++ {
				j, _ := s.Next()
				order = append(order, j)
			}
		}
		enqueue("a1", "a")
		enqueue("a2", "a")
		enqueue("c1", "c")
		enqueue("b1", "b")
		enqueue("b2", "b")
		next(2) // a1, then c1: c drains
		enqueue("c2", "c")
		next(3)
		var ids []string
		for _, j := range order {
			ids = append(ids, j.id)
		}
		if got, want := fmt.Sprint(ids), "[a1 c1 b1 a2 c2]"; got != want {
			t.Fatalf("dispatch order %s, want %s (c rejoins behind a and b)", got, want)
		}
		checkStarvationBound(t, order, 3)
	})
}

// TestFairSchedulerDeficitBounded is the no-hoarding property, stated on
// dispatches: across a randomized adversarial enqueue/dequeue schedule,
// between two dispatches of one tenant, every other tenant that had work
// queued the whole time is served. No tenant, however it drains and
// returns, gets a second turn ahead of one still waiting. It also pins
// that a tenant with nothing queued holds no scheduler state.
func TestFairSchedulerDeficitBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tenants := []string{"a", "b", "c"}
	s := newFairScheduler(64)
	queued := map[string]int{}
	waitingSince := map[string]int{} // step a tenant's current wait began
	lastServed := map[string]int{}
	total := 0
	for step := 0; step < 10_000; step++ {
		if total == 0 || rng.Intn(2) == 0 {
			tenant := tenants[rng.Intn(len(tenants))]
			if err := s.Enqueue(schedJob(fmt.Sprintf("j%d", step), tenant)); err == nil {
				if queued[tenant] == 0 {
					waitingSince[tenant] = step
				}
				queued[tenant]++
				total++
			}
		} else {
			j, ok := s.Next()
			if !ok {
				t.Fatal("scheduler closed mid-test")
			}
			x := j.tenant
			if prev, seen := lastServed[x]; seen {
				for _, y := range tenants {
					if y != x && queued[y] > 0 && waitingSince[y] < prev {
						t.Fatalf("step %d: tenant %s served again (last at step %d) while %s has waited since step %d",
							step, x, prev, y, waitingSince[y])
					}
				}
			}
			lastServed[x] = step
			waitingSince[x] = step
			queued[x]--
			total--
		}
		s.mu.Lock()
		held := len(s.queues)
		s.mu.Unlock()
		active := 0
		for _, n := range queued {
			if n > 0 {
				active++
			}
		}
		if held != active {
			t.Fatalf("step %d: scheduler holds %d tenant queues, %d tenants have work", step, held, active)
		}
	}
}

// TestFairSchedulerCloseDrains pins shutdown semantics: Close wakes a
// blocked Next caller, and the jobs Close returns together with the jobs
// a racing worker took before it are exactly the queued ones, each once.
func TestFairSchedulerCloseDrains(t *testing.T) {
	s := newFairScheduler(8)
	want := map[string]bool{}
	for _, id := range []string{"a0", "a1", "a2", "a3"} {
		s.Enqueue(schedJob(id, "a"))
		want[id] = true
	}
	s.Enqueue(schedJob("b0", "b"))
	want["b0"] = true

	worker := make(chan []*Job)
	go func() {
		// A blocked worker must observe the close.
		var jobs []*Job
		for {
			j, ok := s.Next()
			if !ok {
				worker <- jobs
				return
			}
			jobs = append(jobs, j)
		}
	}()

	drained := s.Close()
	taken := <-worker
	got := map[string]int{}
	for _, j := range append(drained, taken...) {
		got[j.id]++
	}
	for id, n := range got {
		if !want[id] || n != 1 {
			t.Fatalf("job %q accounted %d times (drained %d, taken %d), want each queued job once",
				id, n, len(drained), len(taken))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("drained plus taken cover %d jobs, want %d", len(got), len(want))
	}
}
