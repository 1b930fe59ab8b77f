package server

import (
	"errors"
	"fmt"
	"sync"

	"ppj/internal/service"
)

// ErrUnknownContract reports a hello that names no registered contract.
var ErrUnknownContract = errors.New("server: unknown contract")

// ErrUnknownJob reports a hello whose JobID names no execution of its
// contract.
var ErrUnknownJob = errors.New("server: unknown job")

// ErrAmbiguousContract reports an ID-less hello that cannot be routed
// because several contracts are registered; the connection is refused with
// this typed error rather than guessed at (or left hanging).
var ErrAmbiguousContract = errors.New("server: ambiguous contract: hello names no contract")

// contractEntry is one registered contract and its execution history, in
// submission order. jobs[0] is the original Register; later entries are
// Resubmit re-executions.
type contractEntry struct {
	contract *service.Contract
	jobs     []*Job
}

// Registry maps contract IDs to their execution histories and job IDs to
// jobs, so one listener can serve sessions for any registered contract and
// any execution of it: the hello's ContractID routes the connection
// (§3.3.3's "contracts are kept encrypted at the server", made
// multi-tenant), and its JobID — empty for "latest" — picks the run.
type Registry struct {
	mu        sync.RWMutex
	contracts map[string]*contractEntry
	jobsByID  map[string]*Job
	order     []string // contract IDs in registration order
}

func newRegistry() *Registry {
	return &Registry{
		contracts: make(map[string]*contractEntry),
		jobsByID:  make(map[string]*Job),
	}
}

// add publishes a job: a contract's first execution registers the contract
// under its ID, a later one joins the contract's history.
func (r *Registry) add(j *Job) error {
	id := j.Contract().ID
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.contracts[id]
	if _, dup := r.jobsByID[j.ID()]; dup || (ok && j.seq == 1) {
		return fmt.Errorf("server: job %q already registered", j.ID())
	}
	if !ok {
		if j.seq != 1 {
			return fmt.Errorf("%w: %q", ErrUnknownContract, id)
		}
		e = &contractEntry{contract: j.Contract()}
		r.contracts[id] = e
		r.order = append(r.order, id)
	}
	e.jobs = append(e.jobs, j)
	r.jobsByID[j.ID()] = j
	return nil
}

// Lookup resolves a hello's (contract ID, job ID) pair to a job. An empty
// job ID selects the contract's latest execution — what every pre-job
// client asks for, and identical to the old behavior for never-resubmitted
// contracts. An empty contract ID is accepted only when exactly one
// contract is registered (backward compatibility with single-contract
// clients that predate ContractID in the hello).
func (r *Registry) Lookup(contractID, jobID string) (*Job, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if contractID == "" && jobID != "" {
		contractID = contractOfJob(jobID)
	}
	if contractID == "" {
		if len(r.order) == 0 {
			return nil, fmt.Errorf("%w: hello names no contract and none are registered", ErrUnknownContract)
		}
		if len(r.order) > 1 {
			return nil, fmt.Errorf("%w; %d are registered", ErrAmbiguousContract, len(r.order))
		}
		contractID = r.order[0]
	}
	e, ok := r.contracts[contractID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownContract, contractID)
	}
	if jobID == "" {
		return e.jobs[len(e.jobs)-1], nil
	}
	j, ok := r.jobsByID[jobID]
	if !ok || j.Contract().ID != contractID {
		return nil, fmt.Errorf("%w: %q has no execution %q", ErrUnknownJob, contractID, jobID)
	}
	return j, nil
}

// has reports whether a contract ID is registered. Register's admission
// section uses it for the duplicate check that must precede the WAL append
// (a refused duplicate must leave no record behind).
func (r *Registry) has(id string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.contracts[id]
	return ok
}

// Contract returns a registered contract.
func (r *Registry) Contract(id string) (*service.Contract, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.contracts[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownContract, id)
	}
	return e.contract, nil
}

// Executions returns a contract's jobs in submission order.
func (r *Registry) Executions(id string) []*Job {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.contracts[id]
	if !ok {
		return nil
	}
	return append([]*Job(nil), e.jobs...)
}

// Jobs returns every job — all executions of all contracts — in contract
// registration order, executions in submission order within a contract.
func (r *Registry) Jobs() []*Job {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*Job
	for _, id := range r.order {
		out = append(out, r.contracts[id].jobs...)
	}
	return out
}

// ContractIDs returns the registered contract IDs in registration order.
func (r *Registry) ContractIDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Len returns the number of registered contracts.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.order)
}
