package fleet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ppj/internal/clock"
	"ppj/internal/relation"
	"ppj/internal/server"
	"ppj/internal/service"
)

// TestFleetRecurringStressRace mixes recurring and one-shot contracts
// across a two-shard fleet while a fake-clock ticker fires re-executions
// and a metrics poller reads fleet snapshots — all concurrently. Its
// teeth are under -race: the per-shard recurrence tables, the scheduler
// queues, the router directory, and the snapshot aggregation all race
// here. Afterwards the books must balance exactly: every recurring
// contract's execution history is 1 (the registration) plus the fires the
// metrics counted for it, and nothing was skipped (no quotas are
// configured, so every due fire must have been admitted).
func TestFleetRecurringStressRace(t *testing.T) {
	t0 := time.Unix(80_000, 0)
	fake := clock.NewFake(t0)
	rt, err := New(Config{Config: server.Config{Shards: 2, Workers: 2, QueueDepth: 64, Memory: 16, Clock: fake}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())
	rt.Start()

	const recurring, oneshot, ticks = 5, 5, 12
	algs := []string{"alg3", "alg5", "auto"}

	recGroups := make([]*group, recurring)
	recJobs := make([]*server.Job, recurring)
	for i := range recGroups {
		recGroups[i] = newGroup(t, fmt.Sprintf("recur-stress-%d", i), algs[i%len(algs)],
			uint64(300+2*i), uint64(301+2*i), 5+i%3, 6+i%2)
		j, err := rt.RegisterScheduled(recGroups[i].contract, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		recJobs[i] = j
	}

	var wg sync.WaitGroup
	errCh := make(chan error, recurring+oneshot)

	// Ticker: advances the shared fake clock one interval at a time and
	// fires due recurrences fleet-wide, racing with the live workload.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ticks; i++ {
			fake.Advance(time.Minute)
			rt.Tick()
		}
	}()

	// Metrics poller: fleet snapshots mid-flight, with the aggregate fire
	// counter monotone.
	stopPoll := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastFired uint64
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			snap := rt.MetricsSnapshot()
			if snap.Fleet.RecurrencesFired < lastFired {
				t.Errorf("fleet recurrences_fired went backwards: %d -> %d", lastFired, snap.Fleet.RecurrencesFired)
				return
			}
			lastFired = snap.Fleet.RecurrencesFired
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// One-shot contracts run end to end while the ticker fires.
	for i := 0; i < oneshot; i++ {
		g := newGroup(t, fmt.Sprintf("oneshot-stress-%d", i), algs[i%len(algs)],
			uint64(400+2*i), uint64(401+2*i), 6+i%2, 5+i%3)
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			errCh <- driveOne(rt, g)
		}(g)
	}
	// Each recurring contract's FIRST execution also runs end to end,
	// concurrently with the fires appending further executions behind it.
	// Sessions pin the execution by job ID: a contract-addressed hello
	// resolves to the LATEST execution, which mid-stress may already be a
	// fired re-execution.
	for i := range recGroups {
		wg.Add(1)
		go func(g *group, j *server.Job) {
			defer wg.Done()
			errCh <- driveJobPinned(rt, g, j)
		}(recGroups[i], recJobs[i])
	}

	for i := 0; i < recurring+oneshot; i++ {
		if err := <-errCh; err != nil {
			t.Error(err)
		}
	}
	close(stopPoll)
	wg.Wait()

	snap := rt.MetricsSnapshot()
	if snap.Fleet.RecurrencesSkipped != 0 {
		t.Errorf("fleet skipped %d fires with no quotas configured", snap.Fleet.RecurrencesSkipped)
	}
	var historyFires uint64
	for _, g := range recGroups {
		_, sh, err := rt.ShardFor(g.contract.ID)
		if err != nil {
			t.Fatal(err)
		}
		execs := len(sh.Registry().Executions(g.contract.ID))
		if execs < 1 {
			t.Fatalf("%s: empty execution history", g.contract.ID)
		}
		historyFires += uint64(execs - 1)
		sc, ok := sh.Schedules()[g.contract.ID]
		if !ok {
			t.Fatalf("%s: schedule lost under stress", g.contract.ID)
		}
		if !sc.Next.After(fake.Now()) {
			t.Errorf("%s: due %v not in the future after the last tick", g.contract.ID, sc.Next)
		}
	}
	if snap.Fleet.RecurrencesFired != historyFires {
		t.Errorf("fleet counted %d fires, execution histories show %d", snap.Fleet.RecurrencesFired, historyFires)
	}
	if snap.Fleet.RecurrencesFired == 0 {
		t.Error("stress run fired no recurrences; ticker never overlapped the workload")
	}
}

// driveJobPinned runs one admitted execution end to end with every
// session addressed to j's ID explicitly, so concurrently fired
// re-executions of the same contract cannot absorb the uploads or the
// recipient.
func driveJobPinned(rt *Router, g *group, j *server.Job) error {
	id := g.contract.ID
	_, sh, err := rt.ShardFor(id)
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	key := sh.Device().DeviceKey()

	provide := func(p testParty, rel *relation.Relation) error {
		serverEnd, clientEnd := net.Pipe()
		handler := make(chan error, 1)
		go func() {
			defer serverEnd.Close()
			handler <- rt.HandleConn(serverEnd)
		}()
		cs, err := g.client(p, key).ConnectJobResume(clientEnd, service.RoleProvider, id, j.ID(), 0)
		if err == nil {
			err = cs.SubmitRelation(id, rel)
		}
		if herr := <-handler; herr != nil && err == nil {
			err = herr
		}
		clientEnd.Close()
		return err
	}
	if err := provide(g.provA, g.relA); err != nil {
		return fmt.Errorf("%s: provider A: %w", id, err)
	}
	if err := provide(g.provB, g.relB); err != nil {
		return fmt.Errorf("%s: provider B: %w", id, err)
	}

	serverEnd, clientEnd := net.Pipe()
	go func() {
		defer serverEnd.Close()
		_ = rt.HandleConn(serverEnd)
	}()
	out := make(chan pipeOutcome, 1)
	go func() {
		defer clientEnd.Close()
		cs, err := g.client(g.recip, key).ConnectJobResume(clientEnd, service.RoleRecipient, id, j.ID(), 0)
		if err != nil {
			out <- pipeOutcome{err: err}
			return
		}
		res, err := cs.ReceiveResult()
		out <- pipeOutcome{result: res, err: err}
	}()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		return fmt.Errorf("%s: job hung in state %s", id, j.State())
	}
	o := <-out
	if o.err != nil {
		return fmt.Errorf("%s: recipient: %w", id, o.err)
	}
	if !relation.SameMultiset(o.result, g.wantJoin()) {
		return fmt.Errorf("%s: delivered rows differ from reference join", id)
	}
	return nil
}
