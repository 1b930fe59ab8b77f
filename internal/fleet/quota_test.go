package fleet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ppj/internal/clock"
	"ppj/internal/server"
)

// tenantGroup binds a group's contract to a tenant account and re-signs
// (Tenant feeds the contract digest).
func tenantGroup(t *testing.T, g *group, tenant string) *group {
	t.Helper()
	g.contract.Tenant = tenant
	g.contract.Sign(0, g.provA.priv)
	g.contract.Sign(1, g.provB.priv)
	return g
}

// TestQuotaRaceAcrossShards races 32 concurrent resubmissions of one
// tenant's two contracts — pinned to different shards — against the
// fleet-wide in-flight cap. The fleet injects ONE shared quota enforcer
// into every shard, so the cap holds across shards under the race: with
// two slots already held by the original registrations and a cap of
// four, exactly two resubmissions are admitted, every other refusal is
// the typed ErrQuotaExceeded, and settling the jobs frees the slots.
// Run with -race: the admission path is lock-protected check-then-commit
// and this is its concurrency conformance test.
func TestQuotaRaceAcrossShards(t *testing.T) {
	rt, err := New(Config{Config: server.Config{
		Shards: 2, Workers: 1, Memory: 16, TenantMaxInFlight: 4,
	}})
	if err != nil {
		t.Fatal(err)
	}
	g0 := tenantGroup(t, newGroup(t, idOwnedBy(t, rt.ring, 0, "qr"), "alg5", 1, 2, 5, 5), "acme")
	g1 := tenantGroup(t, newGroup(t, idOwnedBy(t, rt.ring, 1, "qr"), "alg5", 3, 4, 5, 5), "acme")
	if s0, s1 := rt.Owner(g0.contract.ID), rt.Owner(g1.contract.ID); s0 != 0 || s1 != 1 {
		t.Fatalf("contracts pinned to shards %d/%d, want 0/1", s0, s1)
	}
	j0, err := rt.Register(g0.contract)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := rt.Register(g1.contract)
	if err != nil {
		t.Fatal(err)
	}

	const racers = 32
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		admitted []*server.Job
		badErrs  []error
	)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := g0.contract.ID
			if i%2 == 1 {
				id = g1.contract.ID
			}
			j, err := rt.Resubmit(id)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				admitted = append(admitted, j)
			} else if !errors.Is(err, server.ErrQuotaExceeded) {
				badErrs = append(badErrs, err)
			}
		}(i)
	}
	wg.Wait()
	if len(badErrs) > 0 {
		t.Fatalf("racing resubmissions failed with non-quota errors: %v", badErrs)
	}
	if len(admitted) != 2 {
		t.Fatalf("race admitted %d resubmissions, want exactly cap(4) - held(2) = 2", len(admitted))
	}
	// The cap is saturated fleet-wide: both shards refuse.
	for _, id := range []string{g0.contract.ID, g1.contract.ID} {
		if _, err := rt.Resubmit(id); !errors.Is(err, server.ErrQuotaExceeded) {
			t.Fatalf("resubmit of %s at the cap = %v, want ErrQuotaExceeded", id, err)
		}
	}
	// The history is consistent: initial executions plus the two winners.
	total := 0
	for i := 0; i < rt.NumShards(); i++ {
		for _, id := range rt.Shard(i).Registry().ContractIDs() {
			total += len(rt.Shard(i).Registry().Executions(id))
		}
	}
	if total != 4 {
		t.Fatalf("fleet holds %d executions, want 4 (2 registrations + 2 admitted resubmissions)", total)
	}

	// Settling every job returns the slots; both shards admit again.
	live := append([]*server.Job{j0, j1}, admitted...)
	for _, j := range live {
		j.Cancel()
	}
	for _, j := range live {
		waitDone(t, j)
	}
	for _, id := range []string{g0.contract.ID, g1.contract.ID} {
		if _, err := rt.Resubmit(id); err != nil {
			t.Fatalf("resubmit of %s after slots freed: %v", id, err)
		}
	}
}

// TestFleetResubmitRouting pins Router.Resubmit's routing: the
// re-execution runs on the shard that holds the contract's history and
// upload digests (never spilled over), and resubmitting a contract the
// fleet never admitted is a typed unknown-contract error.
func TestFleetResubmitRouting(t *testing.T) {
	rt, err := New(Config{Config: server.Config{Shards: 2, Workers: 1, Memory: 16}})
	if err != nil {
		t.Fatal(err)
	}
	g := newGroup(t, idOwnedBy(t, rt.ring, 1, "rr"), "alg5", 7, 8, 5, 5)
	if _, err := rt.Register(g.contract); err != nil {
		t.Fatal(err)
	}
	j2, err := rt.Resubmit(g.contract.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rt.Shard(1).Registry().Executions(g.contract.ID)); got != 2 {
		t.Fatalf("owning shard holds %d executions, want 2", got)
	}
	if j, err := rt.Shard(1).Registry().Lookup(g.contract.ID, ""); err != nil || j.ID() != j2.ID() {
		t.Fatalf("latest execution on the owning shard = %v (%v), want %q", j, err, j2.ID())
	}
	if _, err := rt.Resubmit("rr-never-registered"); !errors.Is(err, server.ErrUnknownContract) {
		t.Fatalf("resubmit of unknown contract = %v, want ErrUnknownContract", err)
	}
}

// TestFleetQuotaFollowsConfigClock pins the fleet's shared token bucket to
// Config.Clock: under a fake clock a spent token comes back when the test
// advances the clock, not when wall time passes — no sleep anywhere.
func TestFleetQuotaFollowsConfigClock(t *testing.T) {
	fake := clock.NewFake(time.Unix(1_700_000_000, 0))
	rt, err := New(Config{Config: server.Config{
		Shards: 2, Workers: 1, Memory: 16, Clock: fake, TenantRate: 1, TenantBurst: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	first := tenantGroup(t, newGroup(t, "clock-a", "alg5", 1, 2, 5, 5), "acme")
	second := tenantGroup(t, newGroup(t, "clock-b", "alg5", 3, 4, 5, 5), "acme")
	if _, err := rt.Register(first.contract); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register(second.contract); !errors.Is(err, server.ErrQuotaExceeded) {
		t.Fatalf("second registration with the bucket empty: %v, want ErrQuotaExceeded", err)
	}
	fake.Advance(time.Second)
	if _, err := rt.Register(second.contract); err != nil {
		t.Fatalf("second registration after one fake second: %v", err)
	}
}
