package server

import (
	"context"
	"encoding/gob"
	"io"
	"net"
	"testing"

	"ppj/internal/service"
)

// TestGobHelloRefused: a client of protocol version 6 opened its session
// with a gob-encoded hello. Those bytes do not parse as a hello frame, so
// the handler refuses them before the device signs anything: nothing is
// written back and the job stays Pending.
func TestGobHelloRefused(t *testing.T) {
	srv, err := New(Config{Workers: 1, Memory: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(context.Background())
	g := newGroup(t, "gob-hello", "alg5", 125, 126, 4, 4)
	j, err := srv.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}
	serverEnd, clientEnd := net.Pipe()
	defer clientEnd.Close()
	handler := make(chan error, 1)
	go func() {
		defer serverEnd.Close()
		handler <- handleConn(srv, serverEnd)
	}()
	// The server stops reading at the header it refuses, so the rest of
	// the gob write fails on the closed pipe; only the refusal matters.
	go func() {
		_ = gob.NewEncoder(clientEnd).Encode(service.Hello{
			Party: g.provA.name, Role: service.RoleProvider, ContractID: g.contract.ID,
			Challenge: make([]byte, 32), Proto: 6,
		})
	}()
	back, _ := io.ReadAll(clientEnd)
	if err := <-handler; err == nil {
		t.Fatal("gob hello accepted")
	}
	if len(back) != 0 {
		t.Fatalf("server wrote %d bytes to a gob hello", len(back))
	}
	if j.State() != StatePending {
		t.Fatalf("gob hello moved the job to %s", j.State())
	}
}
