package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ppj/internal/server/resultstore"
	"ppj/internal/server/wal"
	"ppj/internal/service"
)

// ErrResultUnavailable answers a recipient connecting to a job whose
// result is gone without a durable eviction verdict — a job whose result
// never reached the store and whose Delivered tombstone predates any
// manifest. Evictions the store can vouch for answer with the richer
// ErrResultEvicted instead.
var ErrResultUnavailable = errors.New("server: result already delivered; no longer available")

// ErrResultEvicted answers a recipient connecting to a job whose result
// was durably stored once but has since been evicted. Match with
// errors.Is; the concrete *ResultEvictedError carries the cause (TTL
// expiry, byte-cap LRU, a torn segment, or a pre-store-era delivery) so
// clients can distinguish "gone forever" flavours.
var ErrResultEvicted = errors.New("server: result evicted from the durable store")

// ResultEvictedError is the concrete ErrResultEvicted with its cause.
type ResultEvictedError struct{ Cause string }

// Error implements error.
func (e *ResultEvictedError) Error() string {
	return fmt.Sprintf("server: result evicted from the durable store (%s)", e.Cause)
}

// Is matches the ErrResultEvicted sentinel.
func (e *ResultEvictedError) Is(target error) bool { return target == ErrResultEvicted }

// State is a job's position in its lifecycle. States only move forward:
//
//	Pending → Uploading → Running → Stored → Delivered
//	                 \________\___→ Failed
//
// A ready job (all uploads in, all recipients connected) sits in the ready
// queue in state Uploading until a worker picks it up; the queue-depth
// gauge counts those. A successful run lands in Stored — the sealed result
// is in the durable result store and recipients are being (re)served from
// it — and moves to Delivered once every contracted recipient has fetched
// its copy. (Transition records carry these ordinals, so Stored's sits
// after Failed, where it was added.)
type State int32

const (
	// StatePending: the contract is registered, no party has connected.
	StatePending State = iota
	// StateUploading: sessions are active; provider relations are arriving.
	StateUploading
	// StateRunning: a worker is executing the join inside T.
	StateRunning
	// StateDelivered: every recipient received the sealed result.
	StateDelivered
	// StateFailed: the job ended without delivering a result (join error,
	// queue backpressure, cancellation, deadline, or shutdown). Recipients
	// that connected are told why.
	StateFailed
	// StateStored: the run succeeded and the sealed result sits in the
	// durable result store; delivery to the contracted recipients is in
	// progress (possibly across disconnects and restarts).
	StateStored

	numStates = 6
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateUploading:
		return "uploading"
	case StateRunning:
		return "running"
	case StateDelivered:
		return "delivered"
	case StateFailed:
		return "failed"
	case StateStored:
		return "stored"
	}
	return "unknown"
}

// Terminal reports whether the state is final. Stored is deliberately not
// terminal: the job still owes deliveries.
func (s State) Terminal() bool { return transitions[s].done }

// Settled reports that the job's outcome is decided (result stored, or the
// job terminal): recipients waiting on it can be answered.
func (s State) Settled() bool { return transitions[s].settles }

// stateSet is a set of States, one bit each.
type stateSet uint8

func setOf(states ...State) (set stateSet) {
	for _, s := range states {
		set |= 1 << s
	}
	return set
}

func (set stateSet) has(s State) bool { return set&(1<<s) != 0 }

// transition is one row of the lifecycle table: what arriving in a state
// requires and causes. Job.transition executes rows under j.mu and
// Job.arrive performs their effects outside it; nothing else writes a
// job's state, appends a transition record or closes its channels.
type transition struct {
	// from lists the legal predecessors; a move from any other state is
	// refused and changes nothing.
	from stateSet
	// counts: the arrival ends an execution and is recorded in the
	// per-algorithm summary — with the run's cost counters when a worker
	// produced an outcome, as a bare failure otherwise.
	counts bool
	// serves: while the job is in this state recipients are served from
	// the outcome cached on the job, not from the result store.
	serves bool
	// settles: the outcome is decided — waiting recipients wake, the
	// tenant's in-flight quota slot is returned, and the job context is
	// cancelled, since neither deadline nor Cancel governs a settled job
	// (delivery pace belongs to the recipients and the store's TTL).
	settles bool
	// done: the state is terminal; Done() closes.
	done bool
	// synced: the arrival's record is fsynced before its effects are
	// published. Otherwise it is written unsynced and made durable by the
	// job's next synced record: a crash may lose it, and recovery then
	// finds the job one state earlier.
	synced bool
}

// transitions is the whole lifecycle, indexed by target state. Pending has
// no predecessors: jobs are constructed in it (or, at recovery, in
// whatever state the log last recorded), and their registration record is
// synced. Uploading and Running are the two unsynced arrivals: recovery
// fails a job found in either with ErrInterrupted, and a job whose lost
// Uploading record leaves it Pending resumes live, since its uploads
// lived only in memory either way.
var transitions = [numStates]transition{
	StatePending:   {synced: true},
	StateUploading: {from: setOf(StatePending)},
	StateRunning:   {from: setOf(StateUploading)},
	StateStored:    {from: setOf(StateRunning), counts: true, serves: true, settles: true, synced: true},
	StateDelivered: {from: setOf(StateStored), settles: true, done: true, synced: true},
	StateFailed:    {from: setOf(StatePending, StateUploading, StateRunning), counts: true, settles: true, done: true, synced: true},
}

// Job is one execution of a registered contract: it gathers the parties'
// sessions, waits in the ready queue, runs on a worker, stores its result,
// and serves deliveries from the store until every recipient has fetched.
type Job struct {
	svc    *service.Service
	srv    *Server
	ctx    context.Context
	cancel context.CancelFunc

	// id is this execution's identity: equal to the contract ID for a
	// contract's first job (so WAL logs and clients from before re-execution
	// replay and route unchanged), "<contract>#<seq>" for resubmissions.
	id  string
	seq int
	// tenant is the contract's quota account; quotaHeld marks an in-flight
	// slot this job must release when it settles.
	tenant    string
	quotaHeld bool

	providers      int
	wantRecipients int

	mu       sync.Mutex
	state    State
	uploaded int
	// present names the distinct recipients currently connected and
	// waiting (readiness counts them); served names those that completed a
	// fetch since the result was stored.
	present  map[string]bool
	served   map[string]bool
	enqueued bool
	err      error
	// out caches the outcome between Stored and Delivered so first-wave
	// recipients are served without a store read; re-fetches after
	// Delivered load from the result store.
	out *service.Outcome

	// settled closes when the outcome is decided (result stored, or the
	// job failed): recipients waiting on the job wake up and serve
	// themselves.
	settled    chan struct{}
	settleOnce sync.Once
	// done closes after the terminal transition: Delivered once every
	// contracted recipient fetched, or Failed.
	done     chan struct{}
	doneOnce sync.Once
}

// Contract returns the contract this job executes.
func (j *Job) Contract() *service.Contract { return j.svc.Contract }

// ID returns the job's per-execution identity: the contract ID for a
// contract's first execution, "<contract>#<seq>" for resubmissions.
func (j *Job) ID() string { return j.id }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the failure cause of a Failed job (nil otherwise).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Done returns a channel that closes once the job reaches a terminal state
// and every connected recipient has been answered.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel aborts the job: queued or gathering jobs fail with
// context.Canceled; a running job fails as soon as its worker observes the
// cancellation.
func (j *Job) Cancel() { j.cancel() }

// newJob constructs one execution of contract c in the given state —
// Pending for a fresh admission, whatever the log last recorded at
// recovery. The job is not yet visible: Server.admit publishes it. The
// deadline (Config.JobTimeout) starts now and only for a job whose outcome
// is still open.
func (s *Server) newJob(c *service.Contract, id string, seq int, state State) (*Job, error) {
	svc, err := s.newService(c)
	if err != nil {
		return nil, err
	}
	j := &Job{
		svc:     svc,
		srv:     s,
		id:      id,
		seq:     seq,
		tenant:  c.Tenant,
		state:   state,
		settled: make(chan struct{}),
		done:    make(chan struct{}),
	}
	j.providers, j.wantRecipients = c.CountRoles()
	if s.cfg.JobTimeout > 0 && !state.Settled() {
		j.ctx, j.cancel = context.WithTimeout(context.Background(), s.cfg.JobTimeout)
	} else {
		j.ctx, j.cancel = context.WithCancel(context.Background())
	}
	return j, nil
}

// move is one requested transition.
type move struct {
	to State
	// among, when non-zero, narrows the row's legal predecessors for this
	// one move (graceful shutdown fails gathering jobs but not running ones).
	among stateSet
	// err is the failure cause of a move to Failed. It is durable — the
	// transition record carries its text — so recovery can replay it.
	err error
	// out and ran are the worker's outcome and the time RunContract took,
	// for the moves that end an execution a worker ran.
	out *service.Outcome
	ran time.Duration
}

// transition is the only writer of a job's state. It executes the target
// state's row in one order. Under j.mu: stamp the cause and the cached
// outcome on the job, move the gauges, write the state, append the
// transition record, record the metrics — so whoever observes the new
// state (or a channel closed for it) also sees its metrics, and the log
// never orders two transitions of one job differently from memory. After
// j.mu: settle, cancel, done. A journal error is counted and logged but
// does not undo the in-memory transition — the crash-recovery path owns
// that gap. It returns false, having changed nothing, when the current
// state is not a legal predecessor.
func (j *Job) transition(m move) bool {
	row := transitions[m.to]
	legal := row.from
	if m.among != 0 {
		legal &= m.among
	}
	j.mu.Lock()
	from := j.state
	if !legal.has(from) {
		j.mu.Unlock()
		return false
	}
	j.err, j.out = m.err, nil
	if row.serves {
		j.out = m.out
	}
	j.srv.metrics.stateMove(from, m.to)
	j.state = m.to
	rec := wal.Record{Type: wal.TypeTransition, ContractID: j.id, From: int32(from), To: int32(m.to)}
	if m.err != nil {
		rec.Cause = m.err.Error()
	}
	j.srv.record(TransitionSite(from, m.to), rec, row.synced)
	if row.counts && m.out != nil {
		j.srv.metrics.recordExecution(m.out, m.ran)
	} else if row.counts {
		j.srv.metrics.recordFailure(j.svc.Contract.Algorithm)
	}
	j.mu.Unlock()
	j.arrive(m.to)
	return true
}

// arrive performs a state's effects outside j.mu — all idempotent, because
// a job can reach Delivered through concurrent recipient completions and
// recovery re-arrives jobs in the state the log left them.
func (j *Job) arrive(state State) {
	row := transitions[state]
	if row.settles {
		j.settleOnce.Do(func() {
			if j.quotaHeld {
				j.srv.quotas.Release(j.tenant)
			}
			close(j.settled)
		})
		j.cancel()
	}
	if row.done {
		j.doneOnce.Do(func() { close(j.done) })
	}
}

// noteSession records that a party connected, moving Pending → Uploading.
func (j *Job) noteSession() { j.transition(move{to: StateUploading}) }

// readyLocked reports (once) that every provider uploaded and every
// recipient is connected; the caller must then enqueue the job.
func (j *Job) readyLocked() bool {
	if j.enqueued || j.state.Terminal() {
		return false
	}
	if j.uploaded >= j.providers && len(j.present) >= j.wantRecipients {
		j.enqueued = true
		return true
	}
	return false
}

// providerUploaded counts a completed upload and enqueues the job when it
// becomes ready.
func (j *Job) providerUploaded() {
	j.mu.Lock()
	j.uploaded++
	ready := j.readyLocked()
	j.mu.Unlock()
	if ready {
		j.srv.enqueue(j)
	}
}

// noteRecipient registers a connected recipient, enqueueing the job when
// it becomes ready. Recipients arriving after the outcome is settled never
// affect readiness — they are served straight from the settled job.
func (j *Job) noteRecipient(name string) {
	j.mu.Lock()
	if j.state.Settled() {
		j.mu.Unlock()
		return
	}
	if j.present == nil {
		j.present = make(map[string]bool)
	}
	j.present[name] = true
	ready := j.readyLocked()
	j.mu.Unlock()
	if ready {
		j.srv.enqueue(j)
	}
}

// Settled returns a channel that closes once the job's outcome is decided
// (result stored, or the job failed).
func (j *Job) Settled() <-chan struct{} { return j.settled }

// outcomeForDelivery resolves what a waking recipient is served: the
// failure verdict, the cached in-memory outcome, or the result loaded back
// from the durable store. A missing or evicted result returns the typed
// refusal (ErrResultEvicted / ErrResultUnavailable) for the caller to
// deliver in-band.
func (j *Job) outcomeForDelivery() (service.Outcome, error) {
	j.mu.Lock()
	state, jerr, out := j.state, j.err, j.out
	j.mu.Unlock()
	if state == StateFailed {
		return service.Outcome{Err: jerr, Algorithm: j.svc.Contract.Algorithm}, nil
	}
	if out != nil {
		return *out, nil
	}
	return j.srv.loadResult(j.id)
}

// recipientServed counts a completed fetch; once every contracted
// recipient has fetched, the job moves Stored → Delivered (dropping the
// cached outcome: later re-fetches load from the store, where the result
// stays until evicted).
func (j *Job) recipientServed(name string) {
	j.mu.Lock()
	if j.served == nil {
		j.served = make(map[string]bool)
	}
	j.served[name] = true
	all := len(j.served) >= j.wantRecipients
	j.mu.Unlock()
	if all {
		j.transition(move{to: StateDelivered})
	}
}

// startRun marks the job Running. It returns false when the job reached a
// terminal state before a worker picked it up (cancellation, deadline,
// shutdown).
func (j *Job) startRun() bool { return j.transition(move{to: StateRunning}) }

// finish settles the outcome a worker computed in ran. A failure settles
// Failed and wakes waiting recipients with the verdict. A success persists
// the sealed result to the durable store and its manifest record to the
// WAL first, then moves Running → Stored: if the process dies mid-persist,
// the WAL never says Stored and recovery fails the job as interrupted
// instead of pointing recipients at nothing. Recipients then serve
// themselves (Server.serveRecipient); the last contracted fetch moves
// Stored → Delivered. If the job failed meanwhile (deadline, Cancel) the
// verdict stands and nothing is recorded twice.
func (j *Job) finish(out service.Outcome, ran time.Duration) {
	if out.Err != nil {
		j.transition(move{to: StateFailed, err: out.Err, out: &out, ran: ran})
		return
	}
	j.srv.storeResult(j.id, &out)
	if !j.transition(move{to: StateStored, out: &out, ran: ran}) {
		// Failed while persisting: the job's only answer is its failure
		// verdict, so the result just stored serves no one. Evict it as
		// recovery would, rather than let it count against MaxResultBytes
		// until the next restart (or forever, with no DataDir).
		j.srv.results.Evict(j.id, resultstore.CauseTorn)
	}
}

// fail moves the job to Failed with the given cause, waking any waiting
// recipients with it. A job whose result is already Stored can no longer
// fail — the outcome is durable. Returns true if this call performed the
// transition.
func (j *Job) fail(cause error) bool { return j.transition(move{to: StateFailed, err: cause}) }

// watch enforces the job's context: cancellation or deadline expiry fails
// the job wherever it is in the lifecycle (a running job is failed so its
// recipients learn the outcome even if the worker is still grinding). A
// settled job is out of the deadline's reach — a stored result waits for
// its recipients as long as the store keeps it.
func (j *Job) watch() {
	select {
	case <-j.ctx.Done():
		j.fail(j.ctx.Err())
	case <-j.settled:
	}
}
