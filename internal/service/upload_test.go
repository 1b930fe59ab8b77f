package service

import (
	"bytes"
	"encoding/gob"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ppj/internal/relation"
)

// newUploadFixture builds a signed alg5 contract and its service with the
// given ingest limits, returning the service and its first provider.
func newUploadFixture(t *testing.T, maxBytes int64, window int) (*Service, testParty) {
	t.Helper()
	pA, pB, pC := newParty(t, "p1"), newParty(t, "p2"), newParty(t, "r")
	contract := buildContract(t, "alg5", pA, pB, pC,
		PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"}, 0)
	svc, err := NewService(contract, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc.MaxUploadBytes = maxBytes
	svc.UploadWindow = window
	return svc, pA
}

// dialProvider completes a provider handshake over a net.Pipe, returning the
// server session, the client session, and the client's pipe end (closing it
// simulates a vanished peer). Both ends close at cleanup so blocked decoders
// unwind.
func dialProvider(t *testing.T, svc *Service, p testParty) (*Session, *ClientSession, net.Conn) {
	t.Helper()
	serverEnd, clientEnd := net.Pipe()
	t.Cleanup(func() { serverEnd.Close(); clientEnd.Close() })
	type hsOut struct {
		sess *Session
		err  error
	}
	done := make(chan hsOut, 1)
	go func() {
		sess, _, err := svc.handshake(serverEnd)
		done <- hsOut{sess, err}
	}()
	c := &Client{Name: p.name, Identity: p.priv,
		DeviceKey: svc.Device.DeviceKey(), Expected: ExpectedStack()}
	cs, err := c.Connect(clientEnd, RoleProvider)
	if err != nil {
		t.Fatal(err)
	}
	hs := <-done
	if hs.err != nil {
		t.Fatal(hs.err)
	}
	return hs.sess, cs, clientEnd
}

// uploadOnce drives one complete provider upload through the real producer
// and ReceiveUpload, returning the server's verdict and the client's.
func uploadOnce(t *testing.T, svc *Service, p testParty, contractID string, rel *relation.Relation, chunkRows int) (srvErr, cliErr error) {
	t.Helper()
	sess, cs, clientEnd := dialProvider(t, svc, p)
	done := make(chan error, 1)
	go func() {
		done <- cs.SubmitRelationOpts(contractID, rel, UploadOptions{ChunkRows: chunkRows})
	}()
	srvErr = svc.ReceiveUpload(p.name, sess)
	if srvErr != nil {
		// The producer may be blocked mid-write on a stream the server has
		// abandoned; any refusal verdict was already read by its ack reader,
		// so closing only unblocks a doomed write.
		clientEnd.Close()
	}
	return srvErr, <-done
}

// uploadScript drives ReceiveUpload against handcrafted frames.
type uploadScript struct {
	t         *testing.T
	svc       *Service
	cs        *ClientSession
	clientEnd net.Conn
	srv       chan error
}

func startScript(t *testing.T, svc *Service, p testParty) *uploadScript {
	t.Helper()
	sess, cs, clientEnd := dialProvider(t, svc, p)
	sc := &uploadScript{t: t, svc: svc, cs: cs, clientEnd: clientEnd, srv: make(chan error, 1)}
	go func() { sc.srv <- svc.ReceiveUpload(p.name, sess) }()
	return sc
}

func (sc *uploadScript) send(v any) {
	sc.t.Helper()
	if err := sc.cs.sess.enc.Encode(v); err != nil {
		sc.t.Fatalf("sending %T: %v", v, err)
	}
}

func (sc *uploadScript) ack() uploadAckMsg {
	sc.t.Helper()
	var a uploadAckMsg
	if err := sc.cs.sess.dec.Decode(&a); err != nil {
		sc.t.Fatalf("reading ack: %v", err)
	}
	return a
}

// begin opens the stream and consumes the credit grant.
func (sc *uploadScript) begin(declared int64, schema *relation.Schema) {
	sc.t.Helper()
	sc.send(uploadBeginMsg{ContractID: sc.svc.Contract.ID, Schema: toWire(schema), DeclaredRows: declared})
	if a := sc.ack(); a.Err != "" {
		sc.t.Fatalf("begin refused: %s", a.Err)
	}
}

// seal encodes and seals rows [start, end) of rel under the session key.
func (sc *uploadScript) seal(rel *relation.Relation, start, end int) [][]byte {
	sc.t.Helper()
	prefix := []byte(sc.svc.Contract.ID)
	out := make([][]byte, 0, end-start)
	for _, row := range rel.Rows[start:end] {
		e, err := rel.Schema.Encode(row)
		if err != nil {
			sc.t.Fatal(err)
		}
		out = append(out, sc.cs.sess.sealer.seal(append(append([]byte(nil), prefix...), e...)))
	}
	return out
}

// verdict waits for the server's ReceiveUpload return. The refusal nack
// travels over a synchronous pipe, so a drainer keeps reading acks — the
// verdict must not deadlock behind its own nack write. No script touches
// the client decoder after calling verdict.
func (sc *uploadScript) verdict() error {
	sc.t.Helper()
	go func() {
		for {
			var a uploadAckMsg
			if sc.cs.sess.dec.Decode(&a) != nil {
				return
			}
		}
	}()
	select {
	case err := <-sc.srv:
		return err
	case <-time.After(10 * time.Second):
		sc.t.Fatal("server never returned a verdict")
		return nil
	}
}

// TestChunkedFramingViolations walks every way a chunk stream can lie —
// broken CRC chain, skewed or replayed sequence numbers, empty chunks and
// envelopes, totals that disagree with the declaration — and pins the typed
// verdict for each, plus the refusal text reaching the producer.
func TestChunkedFramingViolations(t *testing.T) {
	rel := relation.GenKeyed(relation.NewRand(5), 8, 5)

	t.Run("crc corruption", func(t *testing.T) {
		svc, pA := newUploadFixture(t, 0, 0)
		sc := startScript(t, svc, pA)
		sc.begin(8, rel.Schema)
		var ck chunker
		f := ck.frame(sc.seal(rel, 0, 4))
		f.CRC ^= 1
		sc.send(uploadFrameMsg{Chunk: f})
		if a := sc.ack(); !strings.Contains(a.Err, "CRC") {
			t.Fatalf("nack = %+v", a)
		}
		if err := sc.verdict(); !errors.Is(err, ErrUploadFrame) {
			t.Fatalf("verdict = %v", err)
		}
	})

	t.Run("sequence skew", func(t *testing.T) {
		svc, pA := newUploadFixture(t, 0, 0)
		sc := startScript(t, svc, pA)
		sc.begin(8, rel.Schema)
		var ck chunker
		f := ck.frame(sc.seal(rel, 0, 4))
		f.Seq = 3
		sc.send(uploadFrameMsg{Chunk: f})
		err := sc.verdict()
		if !errors.Is(err, ErrUploadFrame) || !strings.Contains(err.Error(), "reordered") {
			t.Fatalf("verdict = %v", err)
		}
	})

	t.Run("replayed chunk", func(t *testing.T) {
		svc, pA := newUploadFixture(t, 0, 0)
		sc := startScript(t, svc, pA)
		sc.begin(8, rel.Schema)
		var ck chunker
		f := ck.frame(sc.seal(rel, 0, 4))
		sc.send(uploadFrameMsg{Chunk: f})
		if a := sc.ack(); a.Err != "" {
			t.Fatalf("first copy refused: %s", a.Err)
		}
		sc.send(uploadFrameMsg{Chunk: f})
		if err := sc.verdict(); !errors.Is(err, ErrUploadFrame) {
			t.Fatalf("verdict = %v", err)
		}
	})

	t.Run("rows exceed declaration", func(t *testing.T) {
		svc, pA := newUploadFixture(t, 0, 0)
		sc := startScript(t, svc, pA)
		sc.begin(2, rel.Schema)
		var ck chunker
		sc.send(uploadFrameMsg{Chunk: ck.frame(sc.seal(rel, 0, 4))})
		if err := sc.verdict(); !errors.Is(err, ErrUploadTooLarge) {
			t.Fatalf("verdict = %v", err)
		}
	})

	t.Run("end short of declaration", func(t *testing.T) {
		svc, pA := newUploadFixture(t, 0, 0)
		sc := startScript(t, svc, pA)
		sc.begin(8, rel.Schema)
		var ck chunker
		sc.send(uploadFrameMsg{Chunk: ck.frame(sc.seal(rel, 0, 4))})
		if a := sc.ack(); a.Err != "" {
			t.Fatalf("chunk refused: %s", a.Err)
		}
		sc.send(uploadFrameMsg{End: ck.endFrame(4)})
		err := sc.verdict()
		if !errors.Is(err, ErrUploadTruncated) || !strings.Contains(err.Error(), "4 of 8") {
			t.Fatalf("verdict = %v", err)
		}
	})

	t.Run("end frame totals lie", func(t *testing.T) {
		svc, pA := newUploadFixture(t, 0, 0)
		sc := startScript(t, svc, pA)
		sc.begin(4, rel.Schema)
		var ck chunker
		sc.send(uploadFrameMsg{Chunk: ck.frame(sc.seal(rel, 0, 4))})
		if a := sc.ack(); a.Err != "" {
			t.Fatalf("chunk refused: %s", a.Err)
		}
		e := ck.endFrame(4)
		e.Frames = 5
		sc.send(uploadFrameMsg{End: e})
		if err := sc.verdict(); !errors.Is(err, ErrUploadFrame) {
			t.Fatalf("verdict = %v", err)
		}
	})

	t.Run("eof mid-stream", func(t *testing.T) {
		svc, pA := newUploadFixture(t, 0, 0)
		sc := startScript(t, svc, pA)
		sc.begin(8, rel.Schema)
		var ck chunker
		sc.send(uploadFrameMsg{Chunk: ck.frame(sc.seal(rel, 0, 4))})
		if a := sc.ack(); a.Err != "" {
			t.Fatalf("chunk refused: %s", a.Err)
		}
		sc.clientEnd.Close()
		if err := sc.verdict(); !errors.Is(err, ErrUploadTruncated) {
			t.Fatalf("verdict = %v", err)
		}
	})

	t.Run("empty chunk", func(t *testing.T) {
		svc, pA := newUploadFixture(t, 0, 0)
		sc := startScript(t, svc, pA)
		sc.begin(8, rel.Schema)
		var ck chunker
		sc.send(uploadFrameMsg{Chunk: ck.frame(nil)})
		if err := sc.verdict(); !errors.Is(err, ErrUploadFrame) {
			t.Fatalf("verdict = %v", err)
		}
	})

	t.Run("empty envelope", func(t *testing.T) {
		svc, pA := newUploadFixture(t, 0, 0)
		sc := startScript(t, svc, pA)
		sc.begin(8, rel.Schema)
		sc.send(uploadFrameMsg{})
		if err := sc.verdict(); !errors.Is(err, ErrUploadFrame) {
			t.Fatalf("verdict = %v", err)
		}
	})

	t.Run("envelope carrying both frames", func(t *testing.T) {
		svc, pA := newUploadFixture(t, 0, 0)
		sc := startScript(t, svc, pA)
		sc.begin(8, rel.Schema)
		var ck chunker
		f := ck.frame(sc.seal(rel, 0, 4))
		sc.send(uploadFrameMsg{Chunk: f, End: ck.endFrame(4)})
		if err := sc.verdict(); !errors.Is(err, ErrUploadFrame) {
			t.Fatalf("verdict = %v", err)
		}
	})

	t.Run("negative declaration", func(t *testing.T) {
		svc, pA := newUploadFixture(t, 0, 0)
		sc := startScript(t, svc, pA)
		sc.send(uploadBeginMsg{ContractID: svc.Contract.ID, Schema: toWire(rel.Schema), DeclaredRows: -1})
		if a := sc.ack(); a.Err == "" {
			t.Fatal("negative declaration granted credit")
		}
		if err := sc.verdict(); !errors.Is(err, ErrUploadFrame) {
			t.Fatalf("verdict = %v", err)
		}
	})
}

func TestChunkAssemblerTerminalState(t *testing.T) {
	asm, err := newChunkAssembler(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ck chunker
	f := ck.frame([][]byte{{1}, {2}})
	if err := asm.chunk(f); err != nil {
		t.Fatal(err)
	}
	e := ck.endFrame(2)
	if err := asm.end(e); err != nil {
		t.Fatal(err)
	}
	if err := asm.chunk(f); !errors.Is(err, ErrUploadFrame) {
		t.Fatalf("chunk after end = %v", err)
	}
	if err := asm.end(e); !errors.Is(err, ErrUploadFrame) {
		t.Fatalf("second end = %v", err)
	}
}

// TestUploadLimitsRefuseBeforeRows pins both byte-budget enforcement points:
// an impossible declaration is refused at the begin frame before a single
// row is sealed, and a truthful declaration that still overruns the budget
// dies mid-stream — in both cases with ErrUploadTooLarge on the server and
// the refusal text on the producer.
func TestUploadLimitsRefuseBeforeRows(t *testing.T) {
	t.Run("refused at begin", func(t *testing.T) {
		svc, pA := newUploadFixture(t, 100, 0)
		rel := relation.GenKeyed(relation.NewRand(2), 50, 5)
		srvErr, cliErr := uploadOnce(t, svc, pA, svc.Contract.ID, rel, 8)
		if !errors.Is(srvErr, ErrUploadTooLarge) {
			t.Fatalf("server = %v", srvErr)
		}
		if cliErr == nil || !strings.Contains(cliErr.Error(), "upload refused") {
			t.Fatalf("client = %v", cliErr)
		}
	})

	t.Run("budget overrun mid-stream", func(t *testing.T) {
		// 8 declared rows pass the begin check at exactly 8 minimum-size rows,
		// but every real sealed row is larger, so the budget dies mid-stream.
		svc, pA := newUploadFixture(t, 8*minSealedRowBytes, 0)
		rel := relation.GenKeyed(relation.NewRand(3), 8, 5)
		srvErr, cliErr := uploadOnce(t, svc, pA, svc.Contract.ID, rel, 2)
		if !errors.Is(srvErr, ErrUploadTooLarge) || !strings.Contains(srvErr.Error(), "budget") {
			t.Fatalf("server = %v", srvErr)
		}
		// Depending on where the producer was blocked it sees either the
		// refusal nack or the abandoned stream; it must not succeed.
		if cliErr == nil {
			t.Fatal("client verdict missing for over-budget stream")
		}
	})
}

// TestStreamingRefusalReachesClient pins that a begin-stage verdict (here:
// rows sealed for a foreign contract) travels back to the producer as a
// refusal instead of a hang.
func TestStreamingRefusalReachesClient(t *testing.T) {
	svc, pA := newUploadFixture(t, 0, 0)
	rel := relation.GenKeyed(relation.NewRand(6), 4, 5)
	srvErr, cliErr := uploadOnce(t, svc, pA, "some-other-contract", rel, 2)
	if srvErr == nil || !strings.Contains(srvErr.Error(), "foreign contract") {
		t.Fatalf("server = %v", srvErr)
	}
	if cliErr == nil || !strings.Contains(cliErr.Error(), "foreign contract") {
		t.Fatalf("client = %v", cliErr)
	}
}

// TestFailedUploadReleasesSlot is the retry half of the reservation
// protocol: a refused upload must free the party's slot so the provider can
// reconnect, and the retry must commit.
func TestFailedUploadReleasesSlot(t *testing.T) {
	svc, pA := newUploadFixture(t, 0, 0)
	rel := relation.GenKeyed(relation.NewRand(7), 5, 5)
	if srvErr, _ := uploadOnce(t, svc, pA, "wrong-contract", rel, 2); srvErr == nil {
		t.Fatal("foreign-contract upload accepted")
	}
	if srvErr, cliErr := uploadOnce(t, svc, pA, svc.Contract.ID, rel, 2); srvErr != nil || cliErr != nil {
		t.Fatalf("retry failed: server=%v client=%v", srvErr, cliErr)
	}
	svc.mu.Lock()
	up := svc.uploads[pA.name]
	svc.mu.Unlock()
	if up == nil || up.pending || up.rel.Len() != rel.Len() {
		t.Fatalf("committed upload = %+v", up)
	}
}

// TestConcurrentUploadReservesSlot is the duplicate-race regression: the
// party's slot is claimed before any ciphertext is read, so a second stream
// racing a still-running first one fails immediately — it can never burn a
// decrypt pass or clobber the committed relation.
func TestConcurrentUploadReservesSlot(t *testing.T) {
	svc, pA := newUploadFixture(t, 0, 0)
	rel := relation.GenKeyed(relation.NewRand(8), 6, 5)

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.chunkConsumeHook = func(int) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}

	sess1, cs1, _ := dialProvider(t, svc, pA)
	first := make(chan error, 1)
	go func() { first <- svc.ReceiveUpload(pA.name, sess1) }()
	go cs1.SubmitRelationOpts(svc.Contract.ID, rel, UploadOptions{ChunkRows: 2})
	<-entered

	// First stream is parked mid-chunk: its reservation must already hold.
	svc.mu.Lock()
	up := svc.uploads[pA.name]
	pending := up != nil && up.pending
	svc.mu.Unlock()
	if !pending {
		t.Fatal("no pending reservation while first stream is mid-flight")
	}

	sess2, cs2, _ := dialProvider(t, svc, pA)
	go cs2.SubmitRelationOpts(svc.Contract.ID, rel, UploadOptions{ChunkRows: 2})
	if err := svc.ReceiveUpload(pA.name, sess2); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("concurrent duplicate = %v", err)
	}

	close(release)
	if err := <-first; err != nil {
		t.Fatalf("first upload: %v", err)
	}
	svc.mu.Lock()
	up = svc.uploads[pA.name]
	svc.mu.Unlock()
	if up == nil || up.pending || up.rel.Len() != rel.Len() {
		t.Fatalf("committed upload = %+v", up)
	}

	// And a third attempt after commit still reads as a duplicate.
	sess3, cs3, _ := dialProvider(t, svc, pA)
	go cs3.SubmitRelation(svc.Contract.ID, rel)
	if err := svc.ReceiveUpload(pA.name, sess3); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("post-commit duplicate = %v", err)
	}
}

// uploadedRows returns a committed upload's rows re-encoded via the schema.
func uploadedRows(t *testing.T, svc *Service, party string) [][]byte {
	t.Helper()
	svc.mu.Lock()
	up := svc.uploads[party]
	svc.mu.Unlock()
	if up == nil || up.pending {
		t.Fatalf("no committed upload for %s", party)
	}
	encs, err := up.rel.EncodeAll()
	if err != nil {
		t.Fatal(err)
	}
	return encs
}

// TestFrameSizeIndependentOfCRC pins the fixed-width CRC encoding: a
// frame's wire size must not shrink when its running CRC happens to start
// with zero bytes (gob's native uint encoding would drop them), or the
// byte-size trace of a stream would vary from run to run with the session
// key.
func TestFrameSizeIndependentOfCRC(t *testing.T) {
	size := func(crc wireCRC) int {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		// The first message carries gob's type descriptors; measure the second.
		for i := 0; i < 2; i++ {
			buf.Reset()
			if err := enc.Encode(uploadFrameMsg{Chunk: &uploadChunkMsg{Seq: 1, Rows: [][]byte{{1, 2, 3}}, CRC: crc}}); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Len()
	}
	want := size(0xffffffff)
	for _, crc := range []wireCRC{1, 0x7f, 0x80, 0xffff, 0x00ffffff, 0x01000000} {
		if got := size(crc); got != want {
			t.Errorf("frame with CRC %#x is %d bytes, with CRC 0xffffffff %d", uint32(crc), got, want)
		}
	}
}
