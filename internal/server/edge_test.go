package server

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"ppj/internal/server/wal"
	"ppj/internal/service"
)

// TestAmbiguousHelloRejected: an ID-less hello is only routable while
// exactly one contract is registered. With two tenants the connection must
// fail fast with the typed routing error, not hang or pick a winner.
func TestAmbiguousHelloRejected(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g1 := newGroup(t, "amb-1", "alg5", 111, 112, 4, 4)
	g2 := newGroup(t, "amb-2", "alg5", 113, 114, 4, 4)
	if _, err := srv.Register(g1.contract); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Register(g2.contract); err != nil {
		t.Fatal(err)
	}

	serverEnd, clientEnd := net.Pipe()
	handler := make(chan error, 1)
	go func() {
		defer serverEnd.Close()
		handler <- handleConn(srv, serverEnd)
	}()
	go func() {
		// The client's handshake dies when the server drops the conn; the
		// handler's error is the verdict.
		_, _ = g1.client(g1.provA, srv).ConnectContract(clientEnd, service.RoleProvider, "")
		clientEnd.Close()
	}()
	select {
	case err := <-handler:
		if !errors.Is(err, ErrAmbiguousContract) {
			t.Fatalf("handler error = %v, want ErrAmbiguousContract", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ID-less hello hung instead of failing")
	}
}

// TestDuplicateUploadKeepsMetricsConsistent: a provider replaying its
// upload is rejected without disturbing the job lifecycle — the gauges
// stay consistent, the job still completes, and the recipient still gets
// the exact join.
func TestDuplicateUploadKeepsMetricsConsistent(t *testing.T) {
	srv, err := New(Config{Workers: 1, QueueDepth: 4, Memory: 16})
	if err != nil {
		t.Fatal(err)
	}
	g := newGroup(t, "dup-upload", "alg5", 121, 122, 5, 5)
	j, err := srv.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.pipeProvider(t, srv, g.provA, g.relA); err != nil {
		t.Fatal(err)
	}
	// Replay provA's upload, watching the handler's verdict directly (the
	// client side just sees its pipe close).
	serverEnd, clientEnd := net.Pipe()
	handler := make(chan error, 1)
	go func() {
		defer serverEnd.Close()
		handler <- handleConn(srv, serverEnd)
	}()
	go func() {
		cs, err := g.client(g.provA, srv).ConnectContract(clientEnd, service.RoleProvider, g.contract.ID)
		if err == nil {
			_ = cs.SubmitRelation(g.contract.ID, g.relA)
		}
		clientEnd.Close()
	}()
	if err := <-handler; err == nil || !strings.Contains(err.Error(), "uploaded twice") {
		t.Fatalf("duplicate upload handler error = %v, want 'uploaded twice' rejection", err)
	}

	snap := srv.MetricsSnapshot()
	var sum int64
	for _, v := range snap.Jobs {
		sum += v
	}
	if uint64(sum) != snap.Submitted {
		t.Fatalf("gauges sum to %d after duplicate upload, submitted %d: %+v", sum, snap.Submitted, snap.Jobs)
	}
	if snap.Jobs["uploading"] != 1 {
		t.Fatalf("uploading gauge = %d after duplicate upload, want 1: %+v", snap.Jobs["uploading"], snap.Jobs)
	}

	// The rejected replay cost the job nothing: the legitimate second
	// provider and the recipient complete it.
	if err := g.pipeProvider(t, srv, g.provB, g.relB); err != nil {
		t.Fatal(err)
	}
	out := g.pipeRecipient(t, srv)
	srv.Start()
	waitDone(t, j)
	if j.State() != StateDelivered {
		t.Fatalf("job ended %s (%v), want Delivered", j.State(), j.Err())
	}
	if o := <-out; o.err != nil {
		t.Fatal(o.err)
	} else {
		assertSameRows(t, o.result, g.wantJoin(), "dup-upload")
	}
	snap = srv.MetricsSnapshot()
	if snap.Jobs["delivered"] != 1 || snap.Jobs["uploading"] != 0 {
		t.Fatalf("final gauges inconsistent: %+v", snap.Jobs)
	}
}

// TestLateRecipientAfterDelivery: delivery no longer drops the result —
// it lives in the durable result store — so a recipient that connects (or
// reconnects) after the job reached Delivered is served the exact join
// again from the store instead of the historical ErrResultUnavailable
// refusal.
func TestLateRecipientAfterDelivery(t *testing.T) {
	srv, err := New(Config{Workers: 1, Memory: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	g := newGroup(t, "late-recip", "alg5", 131, 132, 5, 5)
	j, err := srv.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}
	driveToDelivered(t, srv, g, j)
	o := <-g.pipeRecipient(t, srv)
	if o.err != nil {
		t.Fatalf("late recipient refused: %v (want a re-fetch from the result store)", o.err)
	}
	assertSameRows(t, o.result, g.wantJoin(), "late-recip")
}

// TestWALFailureCounterTracksLostTransitions: once an injected fsync
// failure seals the log, every later transition keeps running in memory
// but fails its append — and each one must be visible on the metrics
// surface, not just in per-transition log lines. Syncs: 1=registration,
// 2=running->stored, which fails and seals the log; pending->uploading,
// uploading->running and the result-stored manifest record are written
// without a sync of their own before it, so they succeed. The failed
// running->stored and stored->delivered, refused by the sealed log, are
// the two counted.
func TestWALFailureCounterTracksLostTransitions(t *testing.T) {
	dir := t.TempDir()
	faults := wal.NewFaults()
	faults.Set(wal.SiteSync, wal.FailNth(2, errors.New("fsync: injected I/O error")))
	srv, err := New(Config{Workers: 1, Memory: 16, DataDir: dir, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	g := newGroup(t, "wal-alarm", "alg5", 133, 134, 5, 5)
	j, err := srv.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}
	driveToDelivered(t, srv, g, j)
	if got := srv.MetricsSnapshot().WALAppendFailures; got != 2 {
		t.Fatalf("wal_append_failures = %d, want 2 (the failed sync and the append after the seal)", got)
	}
}

// helloAtVersion sends one raw hello at the given protocol version to
// handle over a net.Pipe and returns the handler's verdict together with
// how many bytes the server wrote back before dropping the connection.
func helloAtVersion(t *testing.T, handle func(io.ReadWriter) error, hello service.Hello) (verdict error, answered int) {
	t.Helper()
	serverEnd, clientEnd := net.Pipe()
	defer clientEnd.Close()
	handler := make(chan error, 1)
	go func() {
		defer serverEnd.Close()
		handler <- handle(serverEnd)
	}()
	if err := service.WriteHello(clientEnd, hello); err != nil {
		t.Fatalf("sending hello: %v", err)
	}
	back, _ := io.ReadAll(clientEnd)
	return <-handler, len(back)
}

// TestUnsupportedProtoRefused: the hello's version byte comes from an
// unauthenticated peer, and exactly one version is served. Every other
// value — the retired versions, a future one, garbage — is refused
// with the typed error before the device signs an attestation or agrees a
// key (nothing is written back), without touching the job, and the
// listener keeps serving the current version afterwards.
func TestUnsupportedProtoRefused(t *testing.T) {
	srv, err := New(Config{Workers: 1, Memory: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(context.Background())
	g := newGroup(t, "proto-1", "alg5", 121, 122, 4, 4)
	j, err := srv.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{0, 1, 2, 3, 4, 5, 6, 255} {
		verdict, answered := helloAtVersion(t, func(conn io.ReadWriter) error { return handleConn(srv, conn) }, service.Hello{
			Party: g.provA.name, Role: service.RoleProvider, ContractID: g.contract.ID,
			Challenge: make([]byte, 32), Proto: v,
		})
		if !errors.Is(verdict, service.ErrUnsupportedProto) {
			t.Fatalf("version %d: handler verdict %v, want ErrUnsupportedProto", v, verdict)
		}
		if answered != 0 {
			t.Fatalf("version %d: server wrote %d bytes to a peer it refused", v, answered)
		}
		if j.State() != StatePending {
			t.Fatalf("version %d: refused hello moved the job to %s", v, j.State())
		}
	}
	recv := g.pipeRecipient(t, srv)
	if err := g.pipeProvider(t, srv, g.provA, g.relA); err != nil {
		t.Fatal(err)
	}
	if err := g.pipeProvider(t, srv, g.provB, g.relB); err != nil {
		t.Fatal(err)
	}
	if out := <-recv; out.err != nil {
		t.Fatalf("current-version flow after the refusals: %v", out.err)
	}
	waitDone(t, j)
}
