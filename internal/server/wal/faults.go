package wal

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// Fault-injection sites fired by the log itself. The server's WAL store
// fires additional sites ("register", "state:<from>-><to>") through the
// same registry, so one Faults value scripts a whole crash schedule.
const (
	// SiteAppend fires before a record frame is written, by Append and
	// Write alike. A hook returning ErrShortWrite or ErrTornWrite leaves a
	// partial frame on disk; any other non-nil error (including ErrCrashed)
	// writes nothing. All seal the log.
	SiteAppend = "append"
	// SiteSync fires before each fsync: in Append after its frame is
	// written, and in Close when Write left an unsynced tail. A non-nil
	// error fails the call with the records already on disk — the
	// fsync-failure case, after which the log refuses further writes.
	SiteSync = "sync"
)

// Injectable failures understood by Log.Append and Log.Write. ErrCrashed
// doubles as the error every write returns once the log is sealed.
var (
	// ErrShortWrite makes the append persist only the first half of the
	// frame before failing, as a kernel short write would.
	ErrShortWrite = fmt.Errorf("wal: injected short write: %w", io.ErrShortWrite)
	// ErrTornWrite makes the append persist only a few header bytes and
	// then seal the log, simulating power loss mid-write; unlike
	// ErrShortWrite no error surfaces to the writer's caller semantics —
	// the torn frame is simply what recovery finds.
	ErrTornWrite = errors.New("wal: injected torn write")
	// ErrCrashed reports an append refused because the log is sealed — by
	// Crash, by a crash faultpoint, or by any earlier injected failure.
	ErrCrashed = errors.New("wal: log crashed")
)

// FaultFunc is one hook: a non-nil return injects that failure at the site.
type FaultFunc func() error

// Faults is a registry of named fault-injection hooks. It is build-tag-free
// and inert by default: a nil *Faults (the production configuration) fires
// nothing, so the hot path costs one nil check.
type Faults struct {
	mu sync.Mutex
	m  map[string]FaultFunc
}

// NewFaults returns an empty registry.
func NewFaults() *Faults { return &Faults{m: make(map[string]FaultFunc)} }

// Set installs fn at site, replacing any previous hook. A nil fn clears it.
func (f *Faults) Set(site string, fn FaultFunc) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fn == nil {
		delete(f.m, site)
		return
	}
	f.m[site] = fn
}

// Fire runs the hook at site, if any. Nil receiver and unset sites fire
// nothing.
func (f *Faults) Fire(site string) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	fn := f.m[site]
	f.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// FailNth returns a hook that injects err on its n-th invocation (1-based)
// and fires clean otherwise — the building block for scripted schedules
// ("fail the third transition append").
func FailNth(n int, err error) FaultFunc {
	var (
		mu    sync.Mutex
		calls int
	)
	return func() error {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls == n {
			return err
		}
		return nil
	}
}

// Always returns a hook that injects err on every invocation.
func Always(err error) FaultFunc { return func() error { return err } }
