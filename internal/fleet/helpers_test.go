package fleet

import (
	"crypto/ed25519"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"ppj/internal/relation"
	"ppj/internal/server"
	"ppj/internal/service"
)

// connHandler abstracts "the serving side of one connection" so the same
// drivers exercise both the router (Router.HandleConn) and a standalone
// single-shard server (soloHandler) — the latter supplies the closed-form
// baselines the sharded path is asserted against.
type connHandler func(io.ReadWriter) error

// soloHandler serves connections on srv alone: the hello, then the session.
func soloHandler(srv *server.Server) connHandler {
	return func(conn io.ReadWriter) error {
		sess, hello, err := service.ReadHello(conn)
		if err != nil {
			return err
		}
		return srv.HandleSession(sess, hello)
	}
}

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

// newGroupRels builds a signed two-provider/one-recipient contract over
// explicit input relations (the invariance tests control contents exactly).
func newGroupRels(t *testing.T, id, alg string, relA, relB *relation.Relation) *group {
	t.Helper()
	g := &group{
		provA: newParty(t, id+"-provA"),
		provB: newParty(t, id+"-provB"),
		recip: newParty(t, id+"-recip"),
		relA:  relA,
		relB:  relB,
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
	g.contract.Sign(0, g.provA.priv)
	g.contract.Sign(1, g.provB.priv)
	return g
}

func newGroup(t *testing.T, id, alg string, seedA, seedB uint64, rowsA, rowsB int) *group {
	t.Helper()
	return newGroupRels(t, id, alg,
		relation.GenKeyed(relation.NewRand(seedA), rowsA, 5),
		relation.GenKeyed(relation.NewRand(seedB), rowsB, 5))
}

func (g *group) client(p testParty, deviceKey ed25519.PublicKey) *service.Client {
	return &service.Client{
		Name:      p.name,
		Identity:  p.priv,
		DeviceKey: deviceKey,
		Expected:  service.ExpectedStack(),
	}
}

func (g *group) wantJoin() *relation.Relation {
	eq, _ := relation.NewEqui(g.relA.Schema, "key", g.relB.Schema, "key")
	return relation.ReferenceJoin(g.relA, g.relB, eq)
}

// pipeProvider drives one provider upload over a net.Pipe against handle.
// Error-returning (no testing.T) so stress drivers can run it off the test
// goroutine.
func (g *group) pipeProvider(handle connHandler, deviceKey ed25519.PublicKey, p testParty, rel *relation.Relation) error {
	serverEnd, clientEnd := net.Pipe()
	handler := make(chan error, 1)
	go func() {
		defer serverEnd.Close()
		handler <- handle(serverEnd)
	}()
	cs, err := g.client(p, deviceKey).ConnectContract(clientEnd, service.RoleProvider, g.contract.ID)
	if err == nil {
		err = cs.SubmitRelation(g.contract.ID, rel)
	}
	if herr := <-handler; herr != nil && err == nil {
		err = herr
	}
	clientEnd.Close()
	return err
}

type pipeOutcome struct {
	result *relation.Relation
	err    error
}

// pipeRecipient parks the recipient over a net.Pipe; the returned channel
// yields the delivered result (or failure) once the job settles.
func (g *group) pipeRecipient(handle connHandler, deviceKey ed25519.PublicKey) <-chan pipeOutcome {
	serverEnd, clientEnd := net.Pipe()
	go func() {
		defer serverEnd.Close()
		_ = handle(serverEnd)
	}()
	out := make(chan pipeOutcome, 1)
	go func() {
		defer clientEnd.Close()
		cs, err := g.client(g.recip, deviceKey).ConnectContract(clientEnd, service.RoleRecipient, g.contract.ID)
		if err != nil {
			out <- pipeOutcome{err: err}
			return
		}
		res, err := cs.ReceiveResult()
		out <- pipeOutcome{result: res, err: err}
	}()
	return out
}

// driveToDelivered pushes one group's job through the full lifecycle and
// asserts the delivered rows equal the reference join.
func driveToDelivered(t *testing.T, handle connHandler, deviceKey ed25519.PublicKey, g *group, j *server.Job) {
	t.Helper()
	if err := g.pipeProvider(handle, deviceKey, g.provA, g.relA); err != nil {
		t.Fatal(err)
	}
	if err := g.pipeProvider(handle, deviceKey, g.provB, g.relB); err != nil {
		t.Fatal(err)
	}
	out := g.pipeRecipient(handle, deviceKey)
	waitDone(t, j)
	if o := <-out; o.err != nil {
		t.Fatal(o.err)
	} else {
		assertSameRows(t, o.result, g.wantJoin(), g.contract.ID)
	}
}

// waitQueueFull polls until a shard's ready queue hits capacity — jobs are
// enqueued from session-handler goroutines, so the depth is eventually
// consistent with the drivers.
func waitQueueFull(t *testing.T, sh *server.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if l := sh.Load(); l.QueueDepth >= l.QueueCap {
			return
		}
		if time.Now().After(deadline) {
			l := sh.Load()
			t.Fatalf("queue stuck at %d/%d", l.QueueDepth, l.QueueCap)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitDone(t *testing.T, j *server.Job) {
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

// renderFleetJobTable is the deterministic fleet-wide job-table view the
// crash suite asserts byte-for-byte: shards in index order, each shard's
// jobs in registration order.
func renderFleetJobTable(rt *Router) string {
	var b strings.Builder
	for i := 0; i < rt.NumShards(); i++ {
		fmt.Fprintf(&b, "shard %d:\n", i)
		for _, j := range rt.Shard(i).Registry().Jobs() {
			fmt.Fprintf(&b, "  %s %s err=%v\n", j.Contract().ID, j.State(), j.Err())
		}
	}
	return b.String()
}

// idOwnedBy derives a contract ID with the given prefix that the ring maps
// to the wanted shard — the crash and invariance suites pin workloads to
// specific shards with it. Deterministic: the ring is a pure function of
// (shard count, replicas), so the same prefix always resolves to the same
// ID across runs and restarts.
func idOwnedBy(t *testing.T, ring *Ring, shard int, prefix string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		if ring.Owner(id) == shard {
			return id
		}
	}
	t.Fatalf("no ID with prefix %q maps to shard %d", prefix, shard)
	return ""
}
