package server

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrQuotaExceeded reports a submission refused by a tenant's admission
// quota — the in-flight cap or the token-bucket submission rate. Like
// ErrQueueFull it is typed backpressure: the refusal happens before any
// WAL append or metric mutation, so a refused submission leaves no trace
// and the gauge invariant (sum of state gauges == submitted) holds.
var ErrQuotaExceeded = errors.New("server: tenant quota exceeded")

// QuotaConfig bounds one tenant's admission.
type QuotaConfig struct {
	// MaxInFlight caps a tenant's unsettled jobs (states before Stored /
	// terminal). Zero or negative: unlimited.
	MaxInFlight int
	// Rate is the token-bucket refill rate in submissions per second. Zero
	// or negative: unlimited (the bucket is bypassed).
	Rate float64
	// Burst is the bucket capacity. When Rate > 0 and Burst < 1 the
	// capacity is 1, so a conforming tenant can always eventually submit.
	Burst float64
}

// unlimited reports a config that admits everything.
func (c QuotaConfig) unlimited() bool { return c.MaxInFlight <= 0 && c.Rate <= 0 }

// Quotas enforces per-tenant admission quotas: a cap on in-flight jobs and
// a token-bucket submission rate. All tenants share one config; state is
// tracked per tenant name (the contract's Tenant field, "" for the
// anonymous tenant). A fleet injects one shared Quotas into every shard so
// the caps hold fleet-wide regardless of where a contract lands.
//
// Acquire is strictly check-then-commit: a refusal mutates nothing — no
// token is consumed, no slot is held — mirroring the admission check's
// invariant that refused work leaves no trace.
type Quotas struct {
	cfg QuotaConfig
	now func() time.Time

	mu      sync.Mutex
	tenants map[string]*tenantState
}

// tenantState is one tenant's live quota state.
type tenantState struct {
	inFlight int
	tokens   float64
	last     time.Time
}

// NewQuotas builds a quota enforcer. now overrides the clock (tests); nil
// uses time.Now. A zero config admits everything.
func NewQuotas(cfg QuotaConfig, now func() time.Time) *Quotas {
	if now == nil {
		now = time.Now
	}
	return &Quotas{cfg: cfg, now: now, tenants: make(map[string]*tenantState)}
}

// burst is the effective bucket capacity.
func (q *Quotas) burst() float64 {
	if q.cfg.Burst < 1 {
		return 1
	}
	return q.cfg.Burst
}

// state returns (creating if needed) a tenant's state. Callers hold mu.
func (q *Quotas) state(tenant string) *tenantState {
	ts, ok := q.tenants[tenant]
	if !ok {
		ts = &tenantState{tokens: q.burst(), last: q.now()}
		q.tenants[tenant] = ts
	}
	return ts
}

// refillLocked advances a tenant's bucket to the current clock.
func (q *Quotas) refillLocked(ts *tenantState) {
	now := q.now()
	if dt := now.Sub(ts.last).Seconds(); dt > 0 && q.cfg.Rate > 0 {
		ts.tokens += dt * q.cfg.Rate
		if max := q.burst(); ts.tokens > max {
			ts.tokens = max
		}
	}
	ts.last = now
}

// Acquire admits one submission for a tenant or refuses it with
// ErrQuotaExceeded. On success the tenant holds one in-flight slot until
// Release. Every check happens before any mutation: a refused submission
// consumes no token and holds no slot.
func (q *Quotas) Acquire(tenant string) error {
	if q == nil || q.cfg.unlimited() {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	ts := q.state(tenant)
	q.refillLocked(ts)
	if q.cfg.MaxInFlight > 0 && ts.inFlight >= q.cfg.MaxInFlight {
		return fmt.Errorf("%w: tenant %q has %d jobs in flight (cap %d)",
			ErrQuotaExceeded, tenant, ts.inFlight, q.cfg.MaxInFlight)
	}
	if q.cfg.Rate > 0 && ts.tokens < 1 {
		return fmt.Errorf("%w: tenant %q submission rate exceeded", ErrQuotaExceeded, tenant)
	}
	if q.cfg.Rate > 0 {
		ts.tokens--
	}
	ts.inFlight++
	return nil
}

// Release returns a tenant's in-flight slot when its job settles (reaches
// Stored or a terminal state).
func (q *Quotas) Release(tenant string) {
	if q == nil || q.cfg.unlimited() {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	ts := q.state(tenant)
	if ts.inFlight > 0 {
		ts.inFlight--
	}
}

// restore re-occupies a tenant's in-flight slot for a live job rebuilt by
// crash recovery, without consuming a token — the original submission
// already paid it.
func (q *Quotas) restore(tenant string) {
	if q == nil || q.cfg.unlimited() {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.state(tenant).inFlight++
}

// InFlight reports a tenant's held slots (tests and introspection).
func (q *Quotas) InFlight(tenant string) int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if ts, ok := q.tenants[tenant]; ok {
		return ts.inFlight
	}
	return 0
}
