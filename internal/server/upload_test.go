package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"ppj/internal/service"
)

// stallConn wraps a conn and freezes its write side after a byte budget: the
// handshake and the first chunks pass, then the producer goes silent
// mid-stream — the shape of a stalled or vanished provider that holds its
// TCP connection open.
type stallConn struct {
	net.Conn
	mu     sync.Mutex
	budget int
	quit   chan struct{}
}

func (c *stallConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	over := c.budget-len(p) < 0
	if !over {
		c.budget -= len(p)
	}
	c.mu.Unlock()
	if over {
		<-c.quit
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// TestUploadDeadlineFailsStalledJob pins the server-side recovery story for
// the streaming ingest: a provider that stalls mid-upload must not pin a
// session goroutine forever. Config.UploadDeadline bounds the upload, the
// handler surfaces service.ErrUploadTruncated, the job fails with the same
// typed verdict, and the metrics gauges stay consistent.
func TestUploadDeadlineFailsStalledJob(t *testing.T) {
	srv, err := New(Config{
		Workers:        1,
		QueueDepth:     4,
		Memory:         8,
		JobTimeout:     time.Minute,
		UploadDeadline: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { srv.Shutdown(context.Background()) })

	g := newGroup(t, "stall-1", "alg5", 61, 62, 600, 4)
	j, err := srv.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}

	serverEnd, clientEnd := net.Pipe()
	quit := make(chan struct{})
	t.Cleanup(func() { close(quit); clientEnd.Close(); serverEnd.Close() })

	handler := make(chan error, 1)
	go func() { handler <- handleConn(srv, serverEnd) }()

	// ~8KB covers the handshake (~500B), the begin frame and the first
	// handful of 4-row chunks of the 600-row relation; the stream then
	// freezes with most of the declaration outstanding.
	stalled := &stallConn{Conn: clientEnd, budget: 8 << 10, quit: quit}
	go func() {
		cs, err := g.client(g.provA, srv).ConnectContract(stalled, service.RoleProvider, g.contract.ID)
		if err != nil {
			return
		}
		_ = cs.SubmitRelationOpts(g.contract.ID, g.relA, service.UploadOptions{ChunkRows: 4})
	}()

	select {
	case herr := <-handler:
		if !errors.Is(herr, service.ErrUploadTruncated) {
			t.Fatalf("handler returned %v, want ErrUploadTruncated", herr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("handler still blocked on the stalled upload after 10s")
	}

	waitDone(t, j)
	if j.State() != StateFailed {
		t.Fatalf("job state %s after upload stall, want failed", j.State())
	}
	if !errors.Is(j.Err(), service.ErrUploadTruncated) {
		t.Fatalf("job failed with %v, want ErrUploadTruncated", j.Err())
	}

	snap := srv.MetricsSnapshot()
	var sum int64
	for _, v := range snap.Jobs {
		sum += v
	}
	if uint64(sum) != snap.Submitted {
		t.Fatalf("gauges sum to %d, submitted %d: %+v", sum, snap.Submitted, snap.Jobs)
	}
	if snap.Jobs["failed"] != 1 {
		t.Fatalf("failed gauge = %d, want 1: %+v", snap.Jobs["failed"], snap.Jobs)
	}
	if snap.QueueDepth != 0 {
		t.Fatalf("queue depth %d after failed upload, want 0", snap.QueueDepth)
	}
}

// TestUploadDeadlineSparesHealthyUpload is the other half of the guarantee:
// a deadline generous enough for an honest stream must not clip it.
func TestUploadDeadlineSparesHealthyUpload(t *testing.T) {
	srv, err := New(Config{
		Workers:        1,
		QueueDepth:     4,
		Memory:         16,
		UploadDeadline: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { srv.Shutdown(context.Background()) })

	g := newGroup(t, "stall-2", "alg5", 63, 64, 6, 8)
	j, err := srv.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}
	recv := g.pipeRecipient(t, srv)
	if err := g.pipeProvider(t, srv, g.provA, g.relA); err != nil {
		t.Fatal(err)
	}
	if err := g.pipeProvider(t, srv, g.provB, g.relB); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateDelivered {
		t.Fatalf("job state %s, want delivered (err %v)", j.State(), j.Err())
	}
	out := <-recv
	if out.err != nil {
		t.Fatal(out.err)
	}
	assertSameRows(t, out.result, g.wantJoin(), "deadline-spared join")
}
