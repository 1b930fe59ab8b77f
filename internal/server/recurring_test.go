package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"ppj/internal/clock"
	"ppj/internal/server/wal"
	"ppj/internal/service"
)

// renderSchedules is the deterministic view the recurrence crash suite
// asserts byte-for-byte: every live schedule, sorted by contract ID, with
// its interval and next due instant.
func renderSchedules(s *Server) string {
	scheds := s.Schedules()
	ids := make([]string, 0, len(scheds))
	for id := range scheds {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		sc := scheds[id]
		fmt.Fprintf(&b, "%s every=%s next=%d\n", id, sc.Every, sc.Next.UnixNano())
	}
	return b.String()
}

// TestRecurringFiresWithinOneTick pins the basic recurrence contract on a
// fake clock: nothing fires before the due instant, the first Tick at or
// after it resubmits exactly once, the schedule advances exactly one
// interval, and a repeated Tick at the same instant is a no-op.
func TestRecurringFiresWithinOneTick(t *testing.T) {
	t0 := time.Unix(1_000, 0)
	fake := clock.NewFake(t0)
	srv, err := New(Config{Workers: 1, Memory: 16, Clock: fake})
	if err != nil {
		t.Fatal(err)
	}
	g := tenantGroup(t, "recur", "acme", 70)
	if _, err := srv.RegisterScheduled(g.contract, 0); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := srv.RegisterScheduled(g.contract, time.Minute); err != nil {
		t.Fatal(err)
	}
	if sc, ok := srv.Schedules()["recur"]; !ok || sc.Every != time.Minute || !sc.Next.Equal(t0.Add(time.Minute)) {
		t.Fatalf("schedule after registration = %+v, want every=1m next=t0+1m", sc)
	}
	if fired := srv.Tick(); fired != 0 {
		t.Fatalf("Tick before due fired %d", fired)
	}
	fake.Advance(time.Minute - time.Second)
	if fired := srv.Tick(); fired != 0 {
		t.Fatalf("Tick one second early fired %d", fired)
	}
	fake.Advance(time.Second) // exactly the due instant
	if fired := srv.Tick(); fired != 1 {
		t.Fatalf("Tick at due fired %d, want 1", fired)
	}
	if n := len(srv.Registry().Executions("recur")); n != 2 {
		t.Fatalf("history has %d executions after the fire, want 2", n)
	}
	if j2, err := srv.Registry().Lookup("recur", "recur#2"); err != nil || j2.State() != StatePending {
		t.Fatalf("fired re-execution = %v (%v), want pending recur#2", j2, err)
	}
	if sc := srv.Schedules()["recur"]; !sc.Next.Equal(t0.Add(2 * time.Minute)) {
		t.Fatalf("schedule advanced to %v, want t0+2m", sc.Next)
	}
	if fired := srv.Tick(); fired != 0 {
		t.Fatalf("repeated Tick at the same instant fired %d", fired)
	}
	snap := srv.MetricsSnapshot()
	if snap.RecurrencesFired != 1 || snap.RecurrencesSkipped != 0 {
		t.Fatalf("fired/skipped = %d/%d, want 1/0", snap.RecurrencesFired, snap.RecurrencesSkipped)
	}
}

// TestRecurringSkipsMissedIntervals pins catch-up semantics: a clock that
// jumps many intervals (a stalled tick loop, a long outage) produces ONE
// fire and a due instant in the future — never a burst of back-to-back
// re-executions demanding uploads the providers are not offering.
func TestRecurringSkipsMissedIntervals(t *testing.T) {
	t0 := time.Unix(2_000, 0)
	fake := clock.NewFake(t0)
	srv, err := New(Config{Workers: 1, Memory: 16, Clock: fake})
	if err != nil {
		t.Fatal(err)
	}
	g := tenantGroup(t, "recur-gap", "acme", 71)
	if _, err := srv.RegisterScheduled(g.contract, time.Minute); err != nil {
		t.Fatal(err)
	}
	fake.Advance(10*time.Minute + 30*time.Second)
	if fired := srv.Tick(); fired != 1 {
		t.Fatalf("Tick after a 10-interval gap fired %d, want 1", fired)
	}
	if sc := srv.Schedules()["recur-gap"]; !sc.Next.Equal(t0.Add(11 * time.Minute)) {
		t.Fatalf("post-gap due = %v, want t0+11m (whole missed intervals skipped)", sc.Next)
	}
	if n := len(srv.Registry().Executions("recur-gap")); n != 2 {
		t.Fatalf("history has %d executions, want 2 (no catch-up burst)", n)
	}
}

// TestRecurringScheduleSurvivesRestart is the tentpole's durability
// acceptance: a schedule registered before a restart recovers byte-for-
// byte (same interval, same absolute due instant — not "now + every"),
// fires within one tick of its due time on the restarted server, and the
// advanced due-time is itself durable across a further restart.
func TestRecurringScheduleSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(50_000, 0)
	srv1, err := New(Config{Workers: 1, Memory: 16, DataDir: dir, Clock: clock.NewFake(t0)})
	if err != nil {
		t.Fatal(err)
	}
	g := tenantGroup(t, "recur-restart", "acme", 72)
	if _, err := srv1.RegisterScheduled(g.contract, time.Minute); err != nil {
		t.Fatal(err)
	}
	want := renderSchedules(srv1)
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart with the clock unmoved: the schedule is exactly as journaled.
	fake2 := clock.NewFake(t0)
	srv2, err := New(Config{Workers: 1, Memory: 16, DataDir: dir, Clock: fake2})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderSchedules(srv2); got != want {
		t.Fatalf("recovered schedules:\n%s\nwant:\n%s", got, want)
	}
	// The recovered schedule fires within one tick of its due instant.
	// (srv1's clean Shutdown durably failed the still-queued seq=1 job —
	// that is the shutdown contract, and the history must show it.)
	fake2.Advance(time.Minute)
	if fired := srv2.Tick(); fired != 1 {
		t.Fatalf("recovered schedule fired %d at due, want 1", fired)
	}
	wantExecs := "recur-restart seq=1 failed err=server: shutting down\n" +
		"recur-restart#2 seq=2 pending err=<nil>\n"
	if got := renderExecutions(srv2); got != wantExecs {
		t.Fatalf("executions after recovered fire:\n%s\nwant:\n%s", got, wantExecs)
	}
	if err := srv2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Third boot, clock at the fire instant: the ADVANCED due-time was
	// journaled, so nothing re-fires and the history is stable — twice.
	// srv2's Shutdown failed the queued seq=2 the same way srv1 failed
	// seq=1; with both executions terminal, further clean restarts leave
	// every byte unchanged.
	wantSched := "recur-restart every=1m0s next=" + fmt.Sprint(t0.Add(2*time.Minute).UnixNano()) + "\n"
	wantExecs = "recur-restart seq=1 failed err=server: shutting down\n" +
		"recur-restart#2 seq=2 failed err=server: shutting down\n"
	for i := 0; i < 2; i++ {
		srvN, err := New(Config{Workers: 1, Memory: 16, DataDir: dir, Clock: clock.NewFake(t0.Add(time.Minute))})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderSchedules(srvN); got != wantSched {
			t.Fatalf("boot %d schedules:\n%s\nwant:\n%s", i+3, got, wantSched)
		}
		if fired := srvN.Tick(); fired != 0 {
			t.Fatalf("boot %d re-fired %d times at the already-journaled instant", i+3, fired)
		}
		if got := renderExecutions(srvN); got != wantExecs {
			t.Fatalf("boot %d executions:\n%s\nwant:\n%s", i+3, got, wantExecs)
		}
		if err := srvN.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashDuringScheduleAdvanceRecoversByteForByte seals the WAL at the
// TypeScheduled fault site on the FIRE's append (the registration-time
// schedule record is allowed through): the fire is refused and counted as
// a skip, no ghost re-execution exists in memory or on disk, the
// in-memory schedule stays at its durable word, and two successive
// restarts recover the original schedule byte-for-byte.
func TestCrashDuringScheduleAdvanceRecoversByteForByte(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(9_000, 0)
	faults := wal.NewFaults()
	faults.Set(SiteScheduled, wal.FailNth(2, wal.ErrCrashed))
	fake := clock.NewFake(t0)
	srv1, err := New(Config{Workers: 1, Memory: 16, DataDir: dir, Faults: faults, Clock: fake, TenantMaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	g := tenantGroup(t, "recur-crash", "acme", 90)
	if _, err := srv1.RegisterScheduled(g.contract, time.Minute); err != nil {
		t.Fatal(err)
	}
	wantSched := renderSchedules(srv1)
	wantExecs := "recur-crash seq=1 pending err=<nil>\n"

	fake.Advance(time.Minute)
	if fired := srv1.Tick(); fired != 0 {
		t.Fatalf("fire against the sealed WAL reported %d fires", fired)
	}
	snap := srv1.MetricsSnapshot()
	if snap.RecurrencesFired != 0 || snap.RecurrencesSkipped != 1 {
		t.Fatalf("fired/skipped = %d/%d, want 0/1", snap.RecurrencesFired, snap.RecurrencesSkipped)
	}
	// The in-memory schedule did NOT advance past its durable word, and no
	// ghost execution was born.
	if got := renderSchedules(srv1); got != wantSched {
		t.Fatalf("in-memory schedule drifted from the durable word:\n%s\nwant:\n%s", got, wantSched)
	}
	if got := renderExecutions(srv1); got != wantExecs {
		t.Fatalf("executions after the refused fire:\n%s\nwant:\n%s", got, wantExecs)
	}

	// Two successive recoveries agree with the pre-crash durable state,
	// byte-for-byte — the idempotence half of the crash contract. The
	// recovery servers are abandoned, not shut down: a clean Shutdown
	// would durably fail the recovered pending job, which is exactly the
	// mutation idempotent recovery must not introduce. (fcntl locks do
	// not conflict within one process, so the relock succeeds.)
	for i := 0; i < 2; i++ {
		srvN, err := New(Config{Workers: 1, Memory: 16, DataDir: dir, Clock: clock.NewFake(t0)})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderSchedules(srvN); got != wantSched {
			t.Fatalf("recovery %d schedules:\n%s\nwant:\n%s", i+1, got, wantSched)
		}
		if got := renderExecutions(srvN); got != wantExecs {
			t.Fatalf("recovery %d executions:\n%s\nwant:\n%s", i+1, got, wantExecs)
		}
	}
}

// TestCrashDuringScheduleRegistrationKeepsContract seals the WAL at the
// registration-time schedule append: the contract's own registration is
// already durable, so RegisterScheduled returns the crash error, the
// contract stays admitted with its first job live, and recovery finds a
// registered contract with NO recurrence.
func TestCrashDuringScheduleRegistrationKeepsContract(t *testing.T) {
	dir := t.TempDir()
	faults := wal.NewFaults()
	faults.Set(SiteScheduled, wal.Always(wal.ErrCrashed))
	srv1, err := New(Config{Workers: 1, Memory: 16, DataDir: dir, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	g := tenantGroup(t, "recur-reg-crash", "acme", 91)
	if _, err := srv1.RegisterScheduled(g.contract, time.Minute); !errors.Is(err, wal.ErrCrashed) {
		t.Fatalf("RegisterScheduled against the sealed WAL = %v, want wrapped wal.ErrCrashed", err)
	}
	if len(srv1.Schedules()) != 0 {
		t.Fatal("refused schedule left a live recurrence")
	}
	if n := len(srv1.Registry().Executions(g.contract.ID)); n != 1 {
		t.Fatalf("contract has %d executions, want 1 (the admitted registration)", n)
	}

	srv2, err := New(Config{Workers: 1, Memory: 16, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderExecutions(srv2); got != "recur-reg-crash seq=1 pending err=<nil>\n" {
		t.Fatalf("recovered executions:\n%s", got)
	}
	if len(srv2.Schedules()) != 0 {
		t.Fatal("recovery invented a schedule the WAL never recorded")
	}
}

// TestRecurringSkipsWhenQuotaRefuses pins the fire/quota interaction: a
// due fire whose Resubmit the tenant quota refuses is counted as a skip,
// the schedule still advances (durably — no tight retry loop), and the
// next interval fires normally once the slot frees.
func TestRecurringSkipsWhenQuotaRefuses(t *testing.T) {
	t0 := time.Unix(3_000, 0)
	fake := clock.NewFake(t0)
	srv, err := New(Config{Workers: 1, Memory: 16, Clock: fake, TenantMaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := tenantGroup(t, "recur-quota", "acme", 92)
	j1, err := srv.RegisterScheduled(g.contract, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// The pending first job holds the tenant's only in-flight slot.
	fake.Advance(time.Minute)
	if fired := srv.Tick(); fired != 0 {
		t.Fatalf("quota-refused fire reported %d fires", fired)
	}
	snap := srv.MetricsSnapshot()
	if snap.RecurrencesSkipped != 1 {
		t.Fatalf("skipped = %d, want 1", snap.RecurrencesSkipped)
	}
	// The schedule advanced despite the refusal: re-ticking now is a no-op.
	if fired := srv.Tick(); fired != 0 {
		t.Fatal("advanced schedule re-fired at the same instant")
	}
	// Free the slot; the next interval fires.
	j1.Cancel()
	waitDone(t, j1)
	fake.Advance(time.Minute)
	if fired := srv.Tick(); fired != 1 {
		t.Fatalf("fire after the slot freed = %d, want 1", fired)
	}
	if n := len(srv.Registry().Executions("recur-quota")); n != 2 {
		t.Fatalf("history has %d executions, want 2", n)
	}
}

// TestConnectJobAfterResubmittedResultTTLEvicted pins the typed verdict a
// recipient gets when addressing a RESUBMITTED execution (a "#2" job ID
// over the wire) whose stored result the TTL already expired: the precise
// *ResultEvictedError with cause "ttl", not a generic failure — and the
// eviction clock is the server's injected fake clock, so the expiry is
// deterministic.
func TestConnectJobAfterResubmittedResultTTLEvicted(t *testing.T) {
	t0 := time.Unix(7_000, 0)
	fake := clock.NewFake(t0)
	srv, err := New(Config{Workers: 1, Memory: 16, DataDir: t.TempDir(), Clock: fake, ResultTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	g := newGroup(t, "ttl-resub", "alg5", 85, 86, 5, 5)
	j1, err := srv.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}
	driveToDelivered(t, srv, g, j1)
	j2, err := srv.Resubmit(g.contract.ID)
	if err != nil {
		t.Fatal(err)
	}
	driveToDelivered(t, srv, g, j2)

	// Both results live while the TTL has not elapsed.
	if _, err := srv.loadResult(j2.ID()); err != nil {
		t.Fatalf("resubmitted result unavailable before expiry: %v", err)
	}
	fake.Advance(2 * time.Hour)

	var ev *ResultEvictedError
	if _, err := srv.loadResult(j2.ID()); !errors.As(err, &ev) || ev.Cause != "ttl" {
		t.Fatalf("loadResult(%s) after expiry = %v, want *ResultEvictedError (ttl)", j2.ID(), err)
	}
	if !errors.Is(ev, ErrResultEvicted) {
		t.Fatal("ResultEvictedError does not match the ErrResultEvicted sentinel")
	}

	// The same verdict arrives in-band for a recipient addressing the
	// resubmitted execution explicitly by job ID.
	serverEnd, clientEnd := net.Pipe()
	go func() {
		defer serverEnd.Close()
		_ = handleConn(srv, serverEnd)
	}()
	cs, err := g.client(g.recip, srv).ConnectJob(clientEnd, service.RoleRecipient, g.contract.ID, j2.ID())
	if err != nil {
		t.Fatal(err)
	}
	_, err = cs.ReceiveResult()
	clientEnd.Close()
	if err == nil || !strings.Contains(err.Error(), "evicted") || !strings.Contains(err.Error(), "(ttl)") {
		t.Fatalf("ConnectJob(%s) after expiry = %v, want the in-band ttl eviction verdict", j2.ID(), err)
	}
}
