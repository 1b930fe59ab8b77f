package fleet

import (
	"context"
	"crypto/ed25519"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"ppj/internal/relation"
	"ppj/internal/server"
	"ppj/internal/service"
)

// pipeProviderBoth is pipeProvider with the two verdicts kept apart: the
// refusal tests need to assert the handler's typed error and the client's
// surfaced refusal independently.
func pipeProviderBoth(handle connHandler, deviceKey ed25519.PublicKey, g *group, p testParty, rel *relation.Relation) (handlerErr, clientErr error) {
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
	herr := <-handler
	clientEnd.Close()
	return herr, err
}

// TestUploadLimitsThroughRouter proves the ingest limits thread from the
// fleet config down through every shard: an upload whose declaration cannot
// fit MaxUploadBytes is refused at the begin frame — before a single sealed
// row crosses the wire — the refusal reaches both sides typed, the party's
// upload slot is released, and the job still completes once honest inputs
// arrive.
func TestUploadLimitsThroughRouter(t *testing.T) {
	rt, err := New(Config{Config: server.Config{
		Shards:         2,
		Workers:        1,
		QueueDepth:     4,
		Memory:         8,
		MaxUploadBytes: 2048,
		UploadWindow:   2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Shutdown(context.Background())

	g := newGroup(t, "limits-1", "alg5", 71, 72, 6, 8)
	j, err := rt.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}
	_, sh, err := rt.ShardFor(g.contract.ID)
	if err != nil {
		t.Fatal(err)
	}
	key := sh.Device().DeviceKey()

	// 200 declared rows need 200 sealed rows of ≥33 bytes — over 2048 by any
	// accounting — so the shard must refuse at begin.
	oversize := relation.GenKeyed(relation.NewRand(73), 200, 5)
	herr, cerr := pipeProviderBoth(rt.HandleConn, key, g, g.provA, oversize)
	if !errors.Is(herr, service.ErrUploadTooLarge) {
		t.Fatalf("handler verdict %v, want ErrUploadTooLarge", herr)
	}
	if cerr == nil || !strings.Contains(cerr.Error(), "size limit") {
		t.Fatalf("client verdict %v, want the size-limit refusal", cerr)
	}
	if j.State() == server.StateFailed {
		t.Fatalf("refused upload failed the job: %v", j.Err())
	}

	// The slot released: the same provider retries with an honest relation
	// and the job runs to delivery under the configured window.
	driveToDelivered(t, rt.HandleConn, key, g, j)

	snap := sh.MetricsSnapshot()
	if snap.Jobs["delivered"] != 1 {
		t.Fatalf("delivered gauge = %d after retry, want 1: %+v", snap.Jobs["delivered"], snap.Jobs)
	}
}

// TestUploadLimitsPerShard pins that each shard enforces the limit
// independently — a second contract landing on the other shard sees the
// same refusal.
func TestUploadLimitsPerShard(t *testing.T) {
	rt, err := New(Config{Config: server.Config{
		Shards:         2,
		Workers:        1,
		QueueDepth:     4,
		Memory:         8,
		MaxUploadBytes: 1024,
	}})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Shutdown(context.Background())

	oversize := relation.GenKeyed(relation.NewRand(74), 100, 5)
	for shard := 0; shard < rt.NumShards(); shard++ {
		id := idOwnedBy(t, rt.ring, shard, "limits-shard")
		g := newGroupRels(t, id, "alg5",
			relation.GenKeyed(relation.NewRand(uint64(shard)+75), 5, 5),
			relation.GenKeyed(relation.NewRand(uint64(shard)+77), 5, 5))
		j, err := rt.Register(g.contract)
		if err != nil {
			t.Fatal(err)
		}
		key := rt.Shard(shard).Device().DeviceKey()
		herr, _ := pipeProviderBoth(rt.HandleConn, key, g, g.provA, oversize)
		if !errors.Is(herr, service.ErrUploadTooLarge) {
			t.Fatalf("shard %d verdict %v, want ErrUploadTooLarge", shard, herr)
		}
		driveToDelivered(t, rt.HandleConn, key, g, j)
	}
}

// TestUnsupportedProtoRefusedThroughRouter: the router reads the hello to
// route it, and the owning shard's handshake refuses any protocol version
// but the one served — typed, before anything is written back — whichever
// shard the contract landed on.
func TestUnsupportedProtoRefusedThroughRouter(t *testing.T) {
	rt, err := New(Config{Config: server.Config{Shards: 2, Workers: 1, QueueDepth: 4, Memory: 8}})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Shutdown(context.Background())
	g := newGroup(t, "proto-fleet-1", "alg5", 81, 82, 4, 4)
	j, err := rt.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{0, 1, 2, 3, 4, 5, 6, 255} {
		serverEnd, clientEnd := net.Pipe()
		handler := make(chan error, 1)
		go func() {
			defer serverEnd.Close()
			handler <- rt.HandleConn(serverEnd)
		}()
		if err := service.WriteHello(clientEnd, service.Hello{
			Party: g.provA.name, Role: service.RoleProvider, ContractID: g.contract.ID,
			Challenge: make([]byte, 32), Proto: v,
		}); err != nil {
			t.Fatalf("version %d: sending hello: %v", v, err)
		}
		back, _ := io.ReadAll(clientEnd)
		clientEnd.Close()
		if herr := <-handler; !errors.Is(herr, service.ErrUnsupportedProto) {
			t.Fatalf("version %d: router verdict %v, want ErrUnsupportedProto", v, herr)
		}
		if len(back) != 0 {
			t.Fatalf("version %d: fleet wrote %d bytes to a peer it refused", v, len(back))
		}
		if j.State() != server.StatePending {
			t.Fatalf("version %d: refused hello moved the job to %s", v, j.State())
		}
	}
}
