package server

import (
	"fmt"
	"sort"
	"time"

	"ppj/internal/server/wal"
	"ppj/internal/service"
)

// recurrence is one contract's live schedule: a fixed re-execution
// interval and the next due instant. The durable copy is the last
// TypeScheduled WAL record for the contract; the in-memory copy only ever
// advances after that record is appended.
type recurrence struct {
	every time.Duration
	next  time.Time
}

// Schedule is the admin view of one contract's recurrence.
type Schedule struct {
	// Every is the fixed re-execution interval.
	Every time.Duration
	// Next is the next due instant on the server's clock.
	Next time.Time
}

// RegisterScheduled admits a contract exactly like Register and attaches a
// fixed-interval recurrence: every tick in which the schedule is due, the
// server re-executes the contract through the Resubmit path (fresh job ID,
// fresh uploads, same verified contract). The schedule is journaled with
// its own WAL record type, so due-times survive restarts; the first
// execution is the registration's own job, and the first recurrence fires
// one interval later.
func (s *Server) RegisterScheduled(c *service.Contract, every time.Duration) (*Job, error) {
	if every <= 0 {
		return nil, fmt.Errorf("server: recurrence interval %v: must be positive", every)
	}
	j, err := s.Register(c)
	if err != nil {
		return nil, err
	}
	s.recurMu.Lock()
	defer s.recurMu.Unlock()
	r := &recurrence{every: every}
	if err := s.reschedule(c.ID, r, s.clk.Now().Add(every)); err != nil {
		// The contract itself was admitted and stays admitted — its
		// registration record is already durable and its first job live. Only
		// the recurrence failed to journal, so only the recurrence is
		// refused.
		return nil, fmt.Errorf("server: journaling schedule of %q: %w", c.ID, err)
	}
	s.recur[c.ID] = r
	return j, nil
}

// reschedule journals a recurrence's next due instant and only then moves
// the in-memory copy, so memory never runs ahead of the log. Callers hold
// recurMu.
func (s *Server) reschedule(id string, r *recurrence, next time.Time) error {
	err := s.journal.append(SiteScheduled, wal.Record{
		Type:       wal.TypeScheduled,
		ContractID: id,
		Every:      r.every.Nanoseconds(),
		Due:        next.UnixNano(),
	}, true)
	if err == nil {
		r.next = next
	}
	return err
}

// Schedules returns a snapshot of the live recurrence table, keyed by
// contract ID.
func (s *Server) Schedules() map[string]Schedule {
	s.recurMu.Lock()
	defer s.recurMu.Unlock()
	out := make(map[string]Schedule, len(s.recur))
	for id, r := range s.recur {
		out[id] = Schedule{Every: r.every, Next: r.next}
	}
	return out
}

// Tick fires every recurring contract whose due instant has arrived on the
// server's clock, returning how many re-executions were submitted. The
// production tick loop calls it on a timer; tests advance a fake clock and
// call it directly.
func (s *Server) Tick() int {
	now := s.clk.Now()
	s.recurMu.Lock()
	var due []string
	for id, r := range s.recur {
		if !r.next.After(now) {
			due = append(due, id)
		}
	}
	s.recurMu.Unlock()
	// Deterministic fire order keeps multi-contract tests and logs stable.
	sort.Strings(due)
	fired := 0
	for _, id := range due {
		if s.fireRecurrence(id, now) {
			fired++
		}
	}
	return fired
}

// fireRecurrence fires one due contract: journal the advanced due-time
// FIRST, then resubmit. A crash between the two loses at most the one
// fire (the recovered schedule says the next interval) and can never
// replay it — re-execution duplicates would be worse than a missed fire,
// since providers would be asked for uploads twice. recurMu is held across
// the due-check and the append so concurrent Ticks cannot both journal the
// same instant; the resubmission itself runs outside the lock (Resubmit
// takes regMu).
func (s *Server) fireRecurrence(id string, now time.Time) bool {
	s.recurMu.Lock()
	r, ok := s.recur[id]
	if !ok || r.next.After(now) {
		s.recurMu.Unlock()
		return false
	}
	// Skip whole missed intervals (the server was down or the tick loop
	// stalled) instead of firing a catch-up burst.
	next := r.next
	for !next.After(now) {
		next = next.Add(r.every)
	}
	err := s.reschedule(id, r, next)
	s.recurMu.Unlock()
	if err != nil {
		s.metrics.recurrenceSkipped()
		s.logf("server: recurrence %s: journaling due-time: %v", id, err)
		return false
	}
	if _, err := s.Resubmit(id); err != nil {
		// The schedule has advanced — durably and in memory — but this
		// fire's re-execution was refused (quota, backpressure, shutdown).
		// The interval is skipped, counted, and the next one will try again.
		s.metrics.recurrenceSkipped()
		s.logf("server: recurrence %s: %v", id, err)
		return false
	}
	s.metrics.recurrenceFired()
	return true
}

// tickLoop drives Tick on a timer until shutdown.
func (s *Server) tickLoop(every time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.tickStop:
			return
		case <-t.C:
			s.Tick()
		}
	}
}
