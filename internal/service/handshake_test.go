package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"

	"ppj/internal/secop"
)

// TestTamperAfterWarmHandshake: a completed handshake leaves the device's
// chain in secop's set of verified chains, and a tampered device must
// still fail the next session. The device signs every session's
// challenge, so the serving side refuses with the zeroization error before
// anything reaches the client, whose ConnectContract fails.
func TestTamperAfterWarmHandshake(t *testing.T) {
	svc, pA := newUploadFixture(t, 0, 0)
	dialProvider(t, svc, pA)
	svc.Device.Tamper()

	serverEnd, clientEnd := net.Pipe()
	defer clientEnd.Close()
	served := make(chan error, 1)
	go func() {
		defer serverEnd.Close()
		_, _, err := accept(svc, serverEnd)
		served <- err
	}()
	c := &Client{Name: pA.name, Identity: pA.priv, DeviceKey: svc.Device.DeviceKey(), Expected: ExpectedStack()}
	if _, err := c.ConnectContract(clientEnd, RoleProvider, ""); err == nil {
		t.Fatal("session opened on a tampered device")
	}
	if err := <-served; !errors.Is(err, secop.ErrZeroized) {
		t.Fatalf("serving verdict %v, want secop.ErrZeroized", err)
	}
}

// teeConn copies what is written to it into rec.
type teeConn struct {
	net.Conn
	rec *bytes.Buffer
}

func (c teeConn) Write(p []byte) (int, error) {
	c.rec.Write(p)
	return c.Conn.Write(p)
}

// TestReplayedServerAuthRefused: a relay that captured a session's
// serverAuthMsg and answers a later hello with it fails that client's
// attestation check — as captured, on the challenge; with the fresh
// challenge written over the captured one, on the challenge signature —
// although the captured chain is in the set of verified chains.
func TestReplayedServerAuthRefused(t *testing.T) {
	svc, pA := newUploadFixture(t, 0, 0)
	c := &Client{Name: pA.name, Identity: pA.priv, DeviceKey: svc.Device.DeviceKey(), Expected: ExpectedStack()}

	var rec bytes.Buffer
	serverEnd, clientEnd := net.Pipe()
	t.Cleanup(func() { serverEnd.Close(); clientEnd.Close() })
	go func() { _, _, _ = accept(svc, teeConn{serverEnd, &rec}) }()
	if _, err := c.ConnectContract(clientEnd, RoleProvider, ""); err != nil {
		t.Fatal(err)
	}
	var captured serverAuthMsg
	if err := newSession(rawConn{bytes.NewReader(rec.Bytes())}).read(&captured); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name          string
		overwrite     bool
		wantInRefusal string
	}{
		{"as captured", false, "challenge mismatch"},
		{"under the fresh challenge", true, "challenge signature invalid"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			relayEnd, clientEnd := net.Pipe()
			defer clientEnd.Close()
			go func() {
				defer relayEnd.Close()
				sess, hello, err := ReadHello(relayEnd)
				if err != nil {
					return
				}
				auth := captured
				if tc.overwrite {
					auth.Att.Challenge = hello.Challenge
				}
				_ = sess.send(&auth)
			}()
			_, err := c.ConnectContract(clientEnd, RoleProvider, "")
			if err == nil || !strings.Contains(err.Error(), tc.wantInRefusal) {
				t.Fatalf("replayed attestation: %v, want %q", err, tc.wantInRefusal)
			}
		})
	}
}

// headerOnly yields one frame header and then fails any further read, so
// a reader that asks for the body is caught asking.
type headerOnly struct {
	hdr  []byte
	read int
}

var errBodyRead = errors.New("body read")

func (c *headerOnly) Read(p []byte) (int, error) {
	if c.read >= len(c.hdr) {
		return 0, errBodyRead
	}
	n := copy(p, c.hdr[c.read:])
	c.read += n
	return n, nil
}

func (c *headerOnly) Write(p []byte) (int, error) { return len(p), nil }

// TestHelloOverCapRefusedBeforeBody: the hello is read before anyone is
// authenticated, so a header declaring a body over the hello cap is
// refused from the header alone. No body byte is read, and nothing is
// allocated for the body: ReadHello on a 2 GiB declaration makes as many
// allocations as on one a byte over the cap, a few KiB in all.
func TestHelloOverCapRefusedBeforeBody(t *testing.T) {
	header := func(n uint32) *headerOnly {
		return &headerOnly{hdr: binary.BigEndian.AppendUint32([]byte{frameHello}, n)}
	}
	huge, justOver := header(math.MaxInt32), header(frameCaps[frameHello]+1)
	for _, conn := range []*headerOnly{huge, justOver} {
		_, _, err := ReadHello(conn)
		if err == nil || errors.Is(err, errBodyRead) || !strings.Contains(err.Error(), "cap") {
			t.Fatalf("oversized hello: %v", err)
		}
	}
	base := testing.AllocsPerRun(50, func() { justOver.read = 0; _, _, _ = ReadHello(justOver) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(50, func() { huge.read = 0; _, _, _ = ReadHello(huge) })
	runtime.ReadMemStats(&after)
	// Under -race sync.Pool drops items at random, so fmt's printer pool
	// can cost an allocation more on either side.
	if allocs > base+2 {
		t.Fatalf("ReadHello on a 2 GiB declaration makes %.0f allocations, on one a byte over the cap %.0f", allocs, base)
	}
	// AllocsPerRun runs the function once more than it reports.
	if perRun := (after.TotalAlloc - before.TotalAlloc) / 51; perRun > 16<<10 {
		t.Fatalf("ReadHello on a 2 GiB declaration allocates %d bytes a run", perRun)
	}
}

// TestHelloFrameErrors: a hello that is not a hello frame, or whose body
// ends early or runs past its last field, is refused, never parsed into a
// Hello.
func TestHelloFrameErrors(t *testing.T) {
	good := appendFrame(nil, &Hello{Party: "p", Role: RoleProvider, Challenge: make([]byte, 32), Proto: ProtoVersion})
	long := append(bytes.Clone(good), 0)
	long[4]++
	for name, raw := range map[string][]byte{
		"chunk frame first": appendFrame(nil, &chunkMsg{}),
		"short body":        good[:len(good)-1],
		"trailing byte":     long,
		"unknown type":      {0, 0, 0, 0, 0},
	} {
		_, _, err := ReadHello(rawConn{bytes.NewReader(raw)})
		if err == nil {
			t.Errorf("%s: hello accepted", name)
		}
	}
	_, hello, err := ReadHello(rawConn{bytes.NewReader(good)})
	if err != nil || hello.Party != "p" || hello.Proto != ProtoVersion {
		t.Fatalf("well-formed hello: %+v, %v", hello, err)
	}
	if _, _, err := ReadHello(rawConn{bytes.NewReader(good[:3])}); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("hello cut inside its header: %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestChunkRowsFitTheChunkCap: a producer asked for more rows a chunk than
// one chunk frame's cap holds sends the most that fit, so a large
// UploadOptions.ChunkRows cannot make its own upload a framing violation.
func TestChunkRowsFitTheChunkCap(t *testing.T) {
	frameLen := func(rows, tupleSize int) int {
		return 8 + rows*(4+int(minSealedRowBytes)-1+tupleSize)
	}
	for _, ts := range []int{1, 8, 100, 4096, 1 << 20, 8 << 20} {
		n := chunkRowsCap(ts)
		if got := frameLen(n, ts); got > int(frameCaps[frameChunk]) {
			t.Errorf("tuple %d B: %d rows make a %d-byte chunk body, cap %d", ts, n, got, frameCaps[frameChunk])
		}
		if frameLen(n+1, ts) <= int(frameCaps[frameChunk]) {
			t.Errorf("tuple %d B: %d rows is not the most the cap holds", ts, n)
		}
	}
	rows := 3
	body := len(appendFrame(nil, &chunkMsg{Rows: make([][]byte, rows)})) - frameHeaderLen
	if want := frameLen(rows, 0) - rows*(int(minSealedRowBytes)-1); body != want {
		t.Fatalf("a chunk of %d empty rows has a %d-byte body; chunkRowsCap assumes %d", rows, body, want)
	}
}
