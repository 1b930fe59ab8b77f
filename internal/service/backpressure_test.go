package service

import (
	"bytes"
	"encoding/gob"
	"io"
	"sync"
	"testing"
	"time"

	"ppj/internal/ocb"
	"ppj/internal/relation"
)

// meterBuf is an unbounded in-memory byte pipe that records the peak number
// of buffered (written-but-unread) bytes. Unlike net.Pipe it never blocks a
// writer, so it models a transport with unlimited capacity: if the credit
// window failed to throttle the producer, the whole relation would pile up
// here and the peak would betray it.
type meterBuf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    bytes.Buffer
	closed bool
	peak   int
}

func newMeterBuf() *meterBuf {
	b := &meterBuf{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *meterBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, io.ErrClosedPipe
	}
	b.buf.Write(p)
	if b.buf.Len() > b.peak {
		b.peak = b.buf.Len()
	}
	b.cond.Broadcast()
	return len(p), nil
}

func (b *meterBuf) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.buf.Len() == 0 && !b.closed {
		b.cond.Wait()
	}
	if b.buf.Len() == 0 {
		return 0, io.EOF
	}
	return b.buf.Read(p)
}

func (b *meterBuf) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.cond.Broadcast()
	return nil
}

func (b *meterBuf) Peak() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}

// meterConn joins two meterBufs into one duplex connection end.
type meterConn struct {
	r, w *meterBuf
}

func (c meterConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c meterConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// wireFrameBytes measures the gob wire size of one maximal chunk frame
// (including the one-off type registration of a fresh stream, so it bounds
// the first and largest frame).
func wireFrameBytes(t *testing.T, rows, rowLen int) int {
	t.Helper()
	fake := make([][]byte, rows)
	for i := range fake {
		fake[i] = bytes.Repeat([]byte{0xa5}, rowLen)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(frameMsg{
		Chunk: &chunkMsg{Seq: 1 << 30, Rows: fake, CRC: 0xffffffff},
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// TestBackpressureBoundsIngestMemory is the backpressure end-to-end: a fast
// producer streams into a deliberately slowed consumer over an unbounded
// metered transport, and the peak of bytes the transport ever buffered must
// stay within the credit window — W chunk frames — no matter how far ahead
// the producer could run. CI repeats it under -race on 1, 2 and 4 cores.
func TestBackpressureBoundsIngestMemory(t *testing.T) {
	const (
		window    = 4
		chunkRows = 64
		totalRows = 1280 // 20 chunks
	)
	svc, pA := newUploadFixture(t, 0, window)
	// Slow the consumer: every chunk costs 1ms before its rows are opened,
	// while the producer can seal and send in microseconds.
	svc.chunkConsumeHook = func(int) { time.Sleep(time.Millisecond) }

	rel := relation.GenKeyed(relation.NewRand(44), totalRows, 50)

	// The transport: client -> server metered (the ingest direction under
	// test), server -> client a plain pipe for acks.
	up := newMeterBuf()
	down := newMeterBuf()
	defer up.Close()
	defer down.Close()
	clientConn := meterConn{r: down, w: up}
	serverConn := meterConn{r: up, w: down}

	type hsOut struct {
		sess *Session
		err  error
	}
	hs := make(chan hsOut, 1)
	go func() {
		sess, _, err := accept(svc, serverConn)
		hs <- hsOut{sess, err}
	}()
	c := &Client{Name: pA.name, Identity: pA.priv,
		DeviceKey: svc.Device.DeviceKey(), Expected: ExpectedStack()}
	cs, err := c.Connect(clientConn, RoleProvider)
	if err != nil {
		t.Fatal(err)
	}
	out := <-hs
	if out.err != nil {
		t.Fatal(out.err)
	}

	cliErr := make(chan error, 1)
	go func() {
		cliErr <- cs.SubmitRelationOpts(svc.Contract.ID, rel, UploadOptions{ChunkRows: chunkRows})
	}()
	if err := svc.ReceiveUpload(pA.name, out.sess); err != nil {
		t.Fatal(err)
	}
	if err := <-cliErr; err != nil {
		t.Fatal(err)
	}
	if got := uploadedRows(t, svc, pA.name); len(got) != totalRows {
		t.Fatalf("%d rows landed, want %d", len(got), totalRows)
	}

	// The sealed wire size of one row is deterministic: nonce + tag + the
	// contract prefix + the fixed-size schema encoding.
	enc, err := rel.Schema.Encode(rel.Rows[0])
	if err != nil {
		t.Fatal(err)
	}
	sealedRow := ocb.NonceSize + ocb.TagSize + len(svc.Contract.ID) + len(enc)
	frameBytes := wireFrameBytes(t, chunkRows, sealedRow)

	peak := up.Peak()
	bound := window*frameBytes + 256 // gob stream preamble slack
	if peak > bound {
		t.Fatalf("transport buffered %d bytes at peak; window of %d chunks bounds it by %d",
			peak, window, bound)
	}
	// The test only means something if the producer actually ran ahead of
	// the slowed consumer: at least one full frame must have piled up.
	if peak < frameBytes {
		t.Fatalf("transport peak %d below one frame (%d); producer never ran ahead, the test is vacuous",
			peak, frameBytes)
	}
	t.Logf("peak buffered %d bytes over %d-chunk stream (window %d, frame %d bytes, bound %d)",
		peak, (totalRows+chunkRows-1)/chunkRows, window, frameBytes, bound)
}

// TestBackpressureWindowOne degenerates the window to a single chunk: the
// stream serialises into strict request/response and the transport can
// never hold more than one frame.
func TestBackpressureWindowOne(t *testing.T) {
	svc, pA := newUploadFixture(t, 0, 1)
	svc.chunkConsumeHook = func(int) { time.Sleep(200 * time.Microsecond) }
	rel := relation.GenKeyed(relation.NewRand(45), 96, 5)

	up := newMeterBuf()
	down := newMeterBuf()
	defer up.Close()
	defer down.Close()

	type hsOut struct {
		sess *Session
		err  error
	}
	hs := make(chan hsOut, 1)
	go func() {
		sess, _, err := accept(svc, meterConn{r: up, w: down})
		hs <- hsOut{sess, err}
	}()
	c := &Client{Name: pA.name, Identity: pA.priv,
		DeviceKey: svc.Device.DeviceKey(), Expected: ExpectedStack()}
	cs, err := c.Connect(meterConn{r: down, w: up}, RoleProvider)
	if err != nil {
		t.Fatal(err)
	}
	out := <-hs
	if out.err != nil {
		t.Fatal(out.err)
	}
	cliErr := make(chan error, 1)
	go func() {
		cliErr <- cs.SubmitRelationOpts(svc.Contract.ID, rel, UploadOptions{ChunkRows: 8})
	}()
	if err := svc.ReceiveUpload(pA.name, out.sess); err != nil {
		t.Fatal(err)
	}
	if err := <-cliErr; err != nil {
		t.Fatal(err)
	}

	enc, err := rel.Schema.Encode(rel.Rows[0])
	if err != nil {
		t.Fatal(err)
	}
	sealedRow := ocb.NonceSize + ocb.TagSize + len(svc.Contract.ID) + len(enc)
	frameBytes := wireFrameBytes(t, 8, sealedRow)
	if peak := up.Peak(); peak > frameBytes+256 {
		t.Fatalf("window 1 let %d bytes pile up; one frame is %d", peak, frameBytes)
	}
}
