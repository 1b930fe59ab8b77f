package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

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
// its copy. (Stored's ordinal sits after Failed so WAL records from older
// logs replay unchanged.)
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
func (s State) Terminal() bool { return s == StateDelivered || s == StateFailed }

// Settled reports that the job's outcome is decided (result stored, or the
// job terminal): recipients waiting on it can be answered.
func (s State) Settled() bool { return s.Terminal() || s == StateStored }

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
	// priority is the contract's scheduling class, copied at admission so
	// the scheduler never reaches back into the contract.
	priority int

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
	runStart time.Time
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

// Seq returns the job's 1-based position in its contract's execution
// history.
func (j *Job) Seq() int { return j.seq }

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

// setStateLocked transitions the state, keeps the per-state gauges
// consistent, and appends the transition to the job store. Failure causes
// are durable (j.err is always set before the transition to StateFailed),
// so recovery can replay them; a store error is logged but does not undo
// the in-memory transition — the crash-recovery path owns that gap.
// Callers hold j.mu.
func (j *Job) setStateLocked(to State) {
	from := j.state
	j.srv.metrics.stateMove(from, to)
	j.state = to
	cause := ""
	if to == StateFailed && j.err != nil {
		cause = j.err.Error()
	}
	if err := j.srv.store.LogTransition(j.id, from, to, cause); err != nil {
		// The in-memory lifecycle keeps going, but every transition lost
		// here widens the gap a crash would expose — count it so operators
		// see the durability alarm, not just per-transition log lines.
		j.srv.metrics.walAppendFailed()
		j.srv.logf("server: wal: job %s %s->%s: %v", j.id, from, to, err)
	}
}

// noteSession records that a party connected, moving Pending → Uploading.
func (j *Job) noteSession() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StatePending {
		j.setStateLocked(StateUploading)
	}
}

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

// noteRecipient registers a connected recipient, moving Pending →
// Uploading and enqueueing the job when it becomes ready. Recipients
// arriving after the outcome is settled never affect readiness — they are
// served straight from the settled job.
func (j *Job) noteRecipient(name string) {
	j.mu.Lock()
	if j.state.Settled() {
		j.mu.Unlock()
		return
	}
	if j.state == StatePending {
		j.setStateLocked(StateUploading)
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

// settle wakes every recipient waiting on the outcome and returns the
// job's tenant quota slot — the outcome is decided, so the job no longer
// counts against the in-flight cap. Idempotent.
func (j *Job) settle() {
	j.settleOnce.Do(func() {
		if j.quotaHeld {
			j.srv.quotas.Release(j.tenant)
		}
		close(j.settled)
	})
}

// closeDone performs the done close. Idempotent, because a job can reach
// Delivered through concurrent recipient completions and recovery paths.
func (j *Job) closeDone() { j.doneOnce.Do(func() { close(j.done) }) }

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
// recipient has fetched, the job transitions Stored → Delivered and done
// closes. The result stays in the store for re-fetches until evicted.
func (j *Job) recipientServed(name string) {
	j.mu.Lock()
	if j.state != StateStored {
		j.mu.Unlock()
		return
	}
	if j.served == nil {
		j.served = make(map[string]bool)
	}
	j.served[name] = true
	if len(j.served) < j.wantRecipients {
		j.mu.Unlock()
		return
	}
	j.setStateLocked(StateDelivered)
	j.out = nil // later re-fetches load from the store
	j.mu.Unlock()
	j.closeDone()
}

// startRun marks the job Running. It returns false when the job reached a
// terminal state before a worker picked it up (cancellation, deadline,
// shutdown).
func (j *Job) startRun() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.setStateLocked(StateRunning)
	j.runStart = time.Now()
	return true
}

// finish settles a computed outcome. A failure settles Failed and wakes
// waiting recipients with the verdict. A success persists the sealed
// result to the durable store and its manifest record to the WAL first,
// then transitions Running → Stored: if the process dies mid-persist, the
// WAL never says Stored and recovery fails the job as interrupted instead
// of pointing recipients at nothing. Recipients then serve themselves
// (Server.serveRecipient); the last contracted fetch moves Stored →
// Delivered. No-op if the job already failed (e.g. deadline fired
// mid-run).
func (j *Job) finish(out service.Outcome) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	if out.Err != nil {
		j.err = out.Err
		j.setStateLocked(StateFailed)
		j.srv.metrics.recordExecution(&out, time.Since(j.runStart))
		j.mu.Unlock()
		j.settle()
		j.cancel()
		j.closeDone()
		return
	}
	j.mu.Unlock()
	j.srv.storeResult(j.id, &out)
	j.mu.Lock()
	if j.state.Terminal() {
		// Failed while persisting (deadline, shutdown): the verdict stands;
		// the stored segment is an orphan the next recovery removes.
		j.mu.Unlock()
		return
	}
	j.out = &out
	j.setStateLocked(StateStored)
	// Recorded under j.mu, before the new state can be observed: whoever
	// sees Stored (or the settled channel) also sees this run's metrics.
	j.srv.metrics.recordExecution(&out, time.Since(j.runStart))
	j.mu.Unlock()
	j.settle()
	// The job deadline no longer governs: the result is durable, and
	// delivery pace belongs to the recipients (and the store's TTL).
	j.cancel()
}

// fail moves the job to Failed with the given cause, waking any waiting
// recipients with it. skipRunning leaves in-flight jobs alone (graceful
// shutdown drains them); a job whose result is already Stored can no
// longer fail — the outcome is durable. Returns true if this call
// performed the transition.
func (j *Job) fail(cause error, skipRunning bool) bool {
	j.mu.Lock()
	if j.state.Terminal() || j.state == StateStored || (skipRunning && j.state == StateRunning) {
		j.mu.Unlock()
		return false
	}
	j.err = cause
	j.setStateLocked(StateFailed)
	j.srv.metrics.recordFailure(j.svc.Contract.Algorithm)
	j.mu.Unlock()
	j.settle()
	j.cancel()
	j.closeDone()
	return true
}

// watch enforces the job's context: cancellation or deadline expiry fails
// the job wherever it is in the lifecycle (a running job is failed so its
// recipients learn the outcome even if the worker is still grinding). A
// settled job is out of the deadline's reach — a stored result waits for
// its recipients as long as the store keeps it.
func (j *Job) watch() {
	select {
	case <-j.ctx.Done():
		j.fail(j.ctx.Err(), false)
	case <-j.settled:
	}
}
