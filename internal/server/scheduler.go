package server

import (
	"fmt"
	"sync"
)

// tenantQueue is one tenant's ready jobs in arrival order.
type tenantQueue struct {
	tenant string
	jobs   []*Job
}

// fairScheduler is the ready queue between job readiness and the worker
// pool: round-robin across per-tenant FIFOs, one job per turn. It owns the
// queueing discipline; the server owns everything around it (metrics,
// failing refused jobs, shutdown order). For a single tenant it is a
// bounded FIFO (TestFairSchedulerSingleTenantIsFIFO).
//
// round holds the tenants with queued work in dispatch order, the next
// tenant first. A tenant served with work left goes to the back, and so
// does a tenant that starts queueing, including one that has just drained:
// it joins the round last, just behind the cursor. So with T tenants
// holding work, a tenant waits at most T slots between its jobs no matter
// how hard the others flood. A tenant with nothing queued holds no state.
type fairScheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	bound  int                     // per-tenant queue bound
	queues map[string]*tenantQueue // tenants with queued jobs
	round  []*tenantQueue          // the same tenants, next to serve first
	depth  int
	closed bool
}

func newFairScheduler(bound int) *fairScheduler {
	s := &fairScheduler{bound: bound, queues: make(map[string]*tenantQueue)}
	s.cond = sync.NewCond(&s.mu)
	return s
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
	tq := s.queues[j.tenant]
	if tq == nil {
		tq = &tenantQueue{tenant: j.tenant}
	}
	if len(tq.jobs) >= s.bound {
		return fmt.Errorf("%w (tenant %q, depth %d)", ErrQueueFull, j.tenant, s.bound)
	}
	if len(tq.jobs) == 0 {
		// The tenant starts queueing: it joins the round last.
		s.queues[j.tenant] = tq
		s.round = append(s.round, tq)
	}
	tq.jobs = append(tq.jobs, j)
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

// pickLocked takes one job from the tenant at the front of the round.
// Callers hold mu and guarantee depth > 0, so the round is non-empty.
func (s *fairScheduler) pickLocked() *Job {
	tq := s.round[0]
	s.round = s.round[1:]
	j := tq.jobs[0]
	tq.jobs = tq.jobs[1:]
	s.depth--
	if len(tq.jobs) > 0 {
		s.round = append(s.round, tq)
	} else {
		delete(s.queues, tq.tenant)
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
