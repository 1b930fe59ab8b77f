package server

import (
	"fmt"
	"sync"
)

// numClasses is the per-tenant priority ladder: high, normal, low. A
// contract's Priority field maps onto it by sign, so any int collapses to
// three classes and the starvation analysis stays three-deep.
const numClasses = 3

// classOf maps a contract priority to its class index (0 runs first).
func classOf(priority int) int {
	switch {
	case priority > 0:
		return 0
	case priority < 0:
		return 2
	}
	return 1
}

// tenantQueue is one tenant's ready jobs and deficit-round-robin state.
type tenantQueue struct {
	tenant  string
	classes [numClasses][]*Job
	queued  int
	weight  int
	// deficit is the tenant's banked service credit in job units. It is
	// topped up by weight when the round-robin cursor selects the tenant
	// with an empty bank, spent one unit per dequeue, and reset to zero
	// when the tenant's queue empties — an idle tenant banks nothing, so
	// no deficit ever exceeds the tenant's weight (the fairness property
	// test pins exactly this bound).
	deficit int
}

// pop removes the tenant's next job: the head of its highest non-empty
// priority class, FIFO within a class.
func (t *tenantQueue) pop() *Job {
	for c := range t.classes {
		if len(t.classes[c]) > 0 {
			j := t.classes[c][0]
			t.classes[c] = t.classes[c][1:]
			t.queued--
			return j
		}
	}
	return nil
}

// fairScheduler is the ready queue between job readiness and the worker
// pool: weighted deficit round-robin across per-tenant queues. It owns the
// queueing discipline; the server owns everything around it (metrics,
// failing refused jobs, shutdown order). For a single tenant at priority 0
// it is a bounded FIFO (TestFairSchedulerSingleTenantIsFIFO). Each tenant
// owns a bounded queue (the QueueDepth bound applies per tenant) split
// into priority classes; the dispatcher cycles the active
// tenants, topping up each tenant's deficit by its weight and dequeueing
// one job per unit. With unit job cost this degenerates to weighted
// round-robin, which gives the starvation bound the tests pin: between
// two consecutive dequeues for a tenant of weight w, at most
// ceil(W/w) - 1 rounds of other tenants' jobs run, where W is the sum of
// active weights — a trickling tenant's wait is a constant factor of its
// fair share no matter how hard the others flood.
type fairScheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	bound   int // per-tenant queue bound
	weights map[string]int

	tenants map[string]*tenantQueue
	active  []*tenantQueue // tenants with queued jobs, round-robin order
	cursor  int
	depth   int
	closed  bool
}

func newFairScheduler(bound int, weights map[string]int) *fairScheduler {
	s := &fairScheduler{bound: bound, weights: weights, tenants: make(map[string]*tenantQueue)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// weight resolves a tenant's fair-share weight, floored at 1 so every
// tenant always makes progress.
func (s *fairScheduler) weight(tenant string) int {
	if w := s.weights[tenant]; w > 1 {
		return w
	}
	return 1
}

// Enqueue admits a ready job, or refuses it with a typed error the caller
// fails the job with: ErrShuttingDown after Close, ErrQueueFull at the
// bound. The bound is per tenant, and so is the refusal: a flooding tenant
// hitting its bound gets ErrQueueFull naming it, while every other tenant's
// queue is untouched.
func (s *fairScheduler) Enqueue(j *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrShuttingDown
	}
	tq, ok := s.tenants[j.tenant]
	if !ok {
		tq = &tenantQueue{tenant: j.tenant, weight: s.weight(j.tenant)}
		s.tenants[j.tenant] = tq
	}
	if tq.queued >= s.bound {
		return fmt.Errorf("%w (tenant %q, depth %d)", ErrQueueFull, j.tenant, s.bound)
	}
	c := classOf(j.priority)
	tq.classes[c] = append(tq.classes[c], j)
	tq.queued++
	if tq.queued == 1 {
		s.active = append(s.active, tq)
	}
	s.depth++
	s.cond.Signal()
	return nil
}

// Next blocks until a job is ready to run, returning ok=false once the
// scheduler is closed and drained.
func (s *fairScheduler) Next() (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.depth == 0 && !s.closed {
		s.cond.Wait()
	}
	if s.depth == 0 {
		return nil, false
	}
	return s.pickLocked(), true
}

// pickLocked runs one DRR dispatch step. Callers hold mu and guarantee
// depth > 0, so active is non-empty and the selected tenant has a job.
func (s *fairScheduler) pickLocked() *Job {
	if s.cursor >= len(s.active) {
		s.cursor = 0
	}
	tq := s.active[s.cursor]
	if tq.deficit < 1 {
		tq.deficit += tq.weight
	}
	j := tq.pop()
	tq.deficit--
	s.depth--
	switch {
	case tq.queued == 0:
		// The tenant's queue drained: it leaves the round and forfeits any
		// banked credit, so an idle tenant cannot hoard deficit.
		tq.deficit = 0
		s.active = append(s.active[:s.cursor], s.active[s.cursor+1:]...)
		if s.cursor >= len(s.active) {
			s.cursor = 0
		}
	case tq.deficit < 1:
		// Credit spent: the round moves on.
		s.cursor = (s.cursor + 1) % len(s.active)
	}
	return j
}

// Close stops the scheduler, wakes every blocked Next, and returns the jobs
// still queued (they will never run; the caller fails them).
func (s *fairScheduler) Close() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var drained []*Job
	// Drain in dispatch order so shutdown failure order matches what the
	// scheduler would have run.
	for s.depth > 0 {
		drained = append(drained, s.pickLocked())
	}
	s.closed = true
	s.cond.Broadcast()
	return drained
}

// Depth is the total number of queued jobs.
func (s *fairScheduler) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depth
}

// Cap is the per-tenant bound. Load/spillover ordering reads it.
func (s *fairScheduler) Cap() int { return s.bound }

// Full reports whether registration-time admission control should refuse
// new contracts. It keys off the total depth
// against the nominal bound: a shard whose scheduler holds a full bound's
// worth of jobs (across any mix of tenants) should spill new contracts,
// even though an under-bound tenant could still Enqueue.
func (s *fairScheduler) Full() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depth >= s.bound
}
