// Package clock is the time seam shared by every layer that makes
// time-driven decisions: tenant token-bucket refill, result-store TTL
// expiry, and recurring-contract due-times. Production code reads the
// system clock through it; tests substitute a Fake whose hands move only
// when the test says so, which is what lets scheduling, quota, and
// eviction behavior be pinned deterministically (no sleeps, no flaky
// wall-clock margins).
package clock

import (
	"sync"
	"time"
)

// Clock is a source of the current instant.
type Clock interface {
	Now() time.Time
}

// System returns the real wall clock.
func System() Clock { return sysClock{} }

type sysClock struct{}

// Now implements Clock.
func (sysClock) Now() time.Time { return time.Now() }

// Fake is a manually advanced clock for tests. The zero value is not
// usable; construct with NewFake so the start instant is explicit.
type Fake struct {
	mu sync.Mutex
	t  time.Time
}

// NewFake builds a fake clock whose hands start at t.
func NewFake(t time.Time) *Fake { return &Fake{t: t} }

// Now implements Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

// Advance moves the clock forward by d and returns the new instant.
// Negative d is ignored: fake time, like real time, never runs backward.
func (f *Fake) Advance(d time.Duration) time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	if d > 0 {
		f.t = f.t.Add(d)
	}
	return f.t
}

// Set jumps the clock to t if t is not before the current instant.
func (f *Fake) Set(t time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if t.After(f.t) {
		f.t = t
	}
}

// NowFunc adapts the fake to the `func() time.Time` override seams
// (resultstore.Config.Now, server.NewQuotas) so one Fake can drive
// every clock a test touches.
func (f *Fake) NowFunc() func() time.Time { return f.Now }
