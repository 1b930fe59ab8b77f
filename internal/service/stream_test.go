package service

import (
	"bytes"
	"encoding/gob"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"ppj/internal/relation"
	"ppj/internal/sim"
)

// beginFrame is either direction's begin frame.
type beginFrame interface{ digest() []byte }

// streamScript plays the sending side of one chunk stream by hand against
// a real receiver: ReceiveUpload with the script as the provider, or
// FetchResult with the script as the server.
type streamScript struct {
	t      *testing.T
	dir    direction
	sess   *Session                        // the scripted sender's end
	peer   *Session                        // the receiver's end, for reflected ciphertexts
	beginf func(declared int64) beginFrame // the direction's begin frame
	bind   []byte                          // digest of the begin frame rows are sealed under
	cell   func(i int) []byte              // plaintext of stream row i
	hangUp func()                          // closes the sender's end of the wire
	recv   chan error                      // the receiver's verdict
	fetch  *ResultFetch                    // a delivery's fetch, read after the verdict
}

// framingRel is the relation the scripts stream rows of.
var framingRel = relation.GenKeyed(relation.NewRand(5), 8, 5)

// startUploadScript opens an upload stream into a fresh service's
// ReceiveUpload.
func startUploadScript(t *testing.T) *streamScript {
	t.Helper()
	svc, pA := newUploadFixture(t, 0, 0)
	sess, cs, clientEnd := dialProvider(t, svc, pA)
	sc := &streamScript{t: t, dir: uploadStream, sess: cs.sess, peer: sess, hangUp: func() { clientEnd.Close() }, recv: make(chan error, 1),
		beginf: func(declared int64) beginFrame {
			return &uploadBeginMsg{ContractID: svc.Contract.ID, Schema: toWire(framingRel.Schema), DeclaredRows: declared}
		},
		cell: func(i int) []byte { return framingRel.Schema.MustEncode(framingRel.Rows[i]) }}
	go func() { sc.recv <- svc.ReceiveUpload(pA.name, sess) }()
	return sc
}

// startDeliveryScript opens a delivery stream into a recipient's
// FetchResult, the two session ends deriving their keys from one fixed
// secret without a handshake. The rows are decoys, which the recipient
// opens and drops, unless the script replaces cell.
func startDeliveryScript(t *testing.T) *streamScript {
	t.Helper()
	serverEnd, clientEnd := net.Pipe()
	t.Cleanup(func() { serverEnd.Close(); clientEnd.Close() })
	srv, cli := newSession(serverEnd), newSession(clientEnd)
	var err error
	if srv.sealer, srv.opener, err = sessionSealers(make([]byte, 32), nil, nil, dirServer, dirClient); err != nil {
		t.Fatal(err)
	}
	if cli.sealer, cli.opener, err = sessionSealers(make([]byte, 32), nil, nil, dirClient, dirServer); err != nil {
		t.Fatal(err)
	}
	sc := &streamScript{t: t, dir: deliveryStream, sess: srv, peer: cli, hangUp: func() { serverEnd.Close() }, recv: make(chan error, 1),
		beginf: func(declared int64) beginFrame {
			return &resultBeginMsg{ContractID: "fz", Schema: toWire(framingRel.Schema),
				TotalChunks: 2, StreamRows: declared}
		},
		cell:  func(int) []byte { return make([]byte, 1+framingRel.Schema.TupleSize()) },
		fetch: &ResultFetch{}}
	go func() { sc.recv <- (&ClientSession{sess: cli}).FetchResult(sc.fetch) }()
	return sc
}

func (sc *streamScript) send(v any) {
	sc.t.Helper()
	if err := sc.sess.enc.Encode(v); err != nil {
		sc.t.Fatalf("sending %T: %v", v, err)
	}
}

func (sc *streamScript) ack() ackMsg {
	sc.t.Helper()
	var a ackMsg
	if err := sc.sess.dec.Decode(&a); err != nil {
		sc.t.Fatalf("reading ack: %v", err)
	}
	return a
}

// begin opens the stream with a begin frame declaring the given rows,
// seals the rows under the same frame, and consumes the credit grant.
func (sc *streamScript) begin(declared int64) {
	sc.t.Helper()
	sc.relayBegin(sc.beginf(declared), sc.beginf(declared))
}

// relayBegin forwards sent as the begin frame while the rows are sealed
// under sealed, and consumes the credit grant.
func (sc *streamScript) relayBegin(sent, sealed beginFrame) {
	sc.t.Helper()
	sc.bind = sealed.digest()
	sc.send(sent)
	if a := sc.ack(); a.Err != "" {
		sc.t.Fatalf("begin refused: %s", a.Err)
	}
}

// end closes the stream ck numbered with its totals, sealed under the
// session key and the bound begin frame.
func (sc *streamScript) end(ck *chunker, rows int64) *endMsg {
	e := ck.endFrame(rows)
	e.Tag = sc.sess.sealer.seal(e.totals(), sc.bind)
	return e
}

// seal seals rows [lo, hi) under the session key and the bound begin frame.
func (sc *streamScript) seal(lo, hi int) [][]byte {
	out := make([][]byte, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, sc.sess.sealer.seal(sc.cell(i), sc.bind))
	}
	return out
}

// verdict waits for the receiver's return. The refusal nack travels over a
// synchronous pipe, so a drainer keeps reading acks — the verdict must not
// deadlock behind its own nack write. No script touches the sender's
// decoder after calling verdict.
func (sc *streamScript) verdict() error {
	sc.t.Helper()
	go func() {
		for {
			var a ackMsg
			if sc.sess.dec.Decode(&a) != nil {
				return
			}
		}
	}()
	select {
	case err := <-sc.recv:
		return err
	case <-time.After(10 * time.Second):
		sc.t.Fatal("receiver never returned a verdict")
		return nil
	}
}

// framingScripts walk every way a chunk stream can lie — a corrupted
// ciphertext, skewed or replayed sequence numbers, empty chunks and
// envelopes, totals that disagree with the declaration — each pinning the
// receiving direction's typed verdict.
var framingScripts = []struct {
	name string
	run  func(t *testing.T, sc *streamScript)
}{
	{"crc corruption", func(t *testing.T, sc *streamScript) {
		sc.begin(8)
		var ck chunker
		rows := sc.seal(0, 4)
		rows[1][len(rows[1])/2] ^= 1
		sc.send(frameMsg{Chunk: ck.frame(rows)})
		if err := sc.verdict(); !errors.Is(err, sc.dir.frame) || !errors.Is(err, sim.ErrTamper) {
			t.Fatalf("verdict = %v, want %v wrapping sim.ErrTamper", err, sc.dir.frame)
		}
	}},
	{"sequence skew", func(t *testing.T, sc *streamScript) {
		sc.begin(8)
		var ck chunker
		f := ck.frame(sc.seal(0, 4))
		f.Seq = 3
		sc.send(frameMsg{Chunk: f})
		err := sc.verdict()
		if !errors.Is(err, sc.dir.frame) || !strings.Contains(err.Error(), "reordered") {
			t.Fatalf("verdict = %v", err)
		}
	}},
	{"replayed chunk", func(t *testing.T, sc *streamScript) {
		sc.begin(8)
		var ck chunker
		f := ck.frame(sc.seal(0, 4))
		sc.send(frameMsg{Chunk: f})
		if a := sc.ack(); a.Err != "" {
			t.Fatalf("first copy refused: %s", a.Err)
		}
		sc.send(frameMsg{Chunk: f})
		if err := sc.verdict(); !errors.Is(err, sc.dir.frame) {
			t.Fatalf("verdict = %v", err)
		}
	}},
	{"rows exceed declaration", func(t *testing.T, sc *streamScript) {
		sc.begin(2)
		var ck chunker
		sc.send(frameMsg{Chunk: ck.frame(sc.seal(0, 4))})
		if err := sc.verdict(); !errors.Is(err, sc.dir.tooLarge) {
			t.Fatalf("verdict = %v", err)
		}
	}},
	{"end short of declaration", func(t *testing.T, sc *streamScript) {
		sc.begin(8)
		var ck chunker
		sc.send(frameMsg{Chunk: ck.frame(sc.seal(0, 4))})
		if a := sc.ack(); a.Err != "" {
			t.Fatalf("chunk refused: %s", a.Err)
		}
		sc.send(frameMsg{End: sc.end(&ck, 4)})
		err := sc.verdict()
		if !errors.Is(err, sc.dir.truncated) || !strings.Contains(err.Error(), "4 of 8") {
			t.Fatalf("verdict = %v", err)
		}
	}},
	{"end frame totals lie", func(t *testing.T, sc *streamScript) {
		sc.begin(4)
		var ck chunker
		sc.send(frameMsg{Chunk: ck.frame(sc.seal(0, 4))})
		if a := sc.ack(); a.Err != "" {
			t.Fatalf("chunk refused: %s", a.Err)
		}
		e := sc.end(&ck, 4)
		e.Frames = 5
		sc.send(frameMsg{End: e})
		if err := sc.verdict(); !errors.Is(err, sc.dir.frame) {
			t.Fatalf("verdict = %v", err)
		}
	}},
	{"eof mid-stream", func(t *testing.T, sc *streamScript) {
		sc.begin(8)
		var ck chunker
		sc.send(frameMsg{Chunk: ck.frame(sc.seal(0, 4))})
		if a := sc.ack(); a.Err != "" {
			t.Fatalf("chunk refused: %s", a.Err)
		}
		sc.hangUp()
		if err := sc.verdict(); !errors.Is(err, sc.dir.truncated) {
			t.Fatalf("verdict = %v", err)
		}
	}},
	{"empty chunk", func(t *testing.T, sc *streamScript) {
		sc.begin(8)
		var ck chunker
		sc.send(frameMsg{Chunk: ck.frame(nil)})
		if err := sc.verdict(); !errors.Is(err, sc.dir.frame) {
			t.Fatalf("verdict = %v", err)
		}
	}},
	{"empty envelope", func(t *testing.T, sc *streamScript) {
		sc.begin(8)
		sc.send(frameMsg{})
		if err := sc.verdict(); !errors.Is(err, sc.dir.frame) {
			t.Fatalf("verdict = %v", err)
		}
	}},
	{"envelope carrying both frames", func(t *testing.T, sc *streamScript) {
		sc.begin(8)
		var ck chunker
		f := ck.frame(sc.seal(0, 4))
		sc.send(frameMsg{Chunk: f, End: ck.endFrame(4)})
		if err := sc.verdict(); !errors.Is(err, sc.dir.frame) {
			t.Fatalf("verdict = %v", err)
		}
	}},
	{"negative declaration", func(t *testing.T, sc *streamScript) {
		sc.send(sc.beginf(-1))
		// The upload receiver nacks a refused begin frame; a recipient
		// refuses a delivery's by returning, as for every begin-frame
		// verdict.
		if sc.dir == uploadStream {
			if a := sc.ack(); a.Err == "" {
				t.Fatal("negative declaration granted credit")
			}
		}
		if err := sc.verdict(); !errors.Is(err, sc.dir.frame) {
			t.Fatalf("verdict = %v", err)
		}
	}},
}

// TestChunkedFramingViolations runs the framing scripts against the upload
// receiver, plus the refusal text reaching the producer.
func TestChunkedFramingViolations(t *testing.T) {
	for _, s := range framingScripts {
		t.Run(s.name, func(t *testing.T) { s.run(t, startUploadScript(t)) })
	}
}

// TestResultFramingViolations runs the same scripts against a recipient's
// FetchResult, which must answer each with the delivery sentinel, and
// pins that frames in the shapes of the separate result frame types a
// ProtoVersion 2 server sent before upload and delivery shared one stream
// still decode into a completed fetch, the end frame with the tag every
// stream has ended with since version 6.
func TestResultFramingViolations(t *testing.T) {
	for _, s := range framingScripts {
		t.Run(s.name, func(t *testing.T) { s.run(t, startDeliveryScript(t)) })
	}

	t.Run("result frame shapes on the wire", func(t *testing.T) {
		type resultChunkMsg struct {
			Seq  uint32
			Rows [][]byte
		}
		type resultEndMsg struct {
			Frames uint32
			Rows   int64
			Tag    []byte
		}
		type resultFrameMsg struct {
			Chunk *resultChunkMsg
			End   *resultEndMsg
		}
		type resultAckMsg struct {
			Seq    uint32
			Window int
			Done   bool
			Err    string
		}
		sc := startDeliveryScript(t)
		ack := func() resultAckMsg {
			var a resultAckMsg
			if err := sc.sess.dec.Decode(&a); err != nil {
				t.Fatalf("reading ack: %v", err)
			}
			if a.Err != "" {
				t.Fatalf("refused: %s", a.Err)
			}
			return a
		}
		b := sc.beginf(8)
		sc.bind = b.digest()
		sc.send(b)
		if a := ack(); a.Window != DefaultResultWindow {
			t.Fatalf("grant = %+v", a)
		}
		var ck chunker
		for lo := 0; lo < 8; lo += 4 {
			c := ck.frame(sc.seal(lo, lo+4))
			sc.send(resultFrameMsg{Chunk: &resultChunkMsg{Seq: c.Seq, Rows: c.Rows}})
			if a := ack(); a.Seq != c.Seq+1 {
				t.Fatalf("ack after chunk %d = %+v", c.Seq, a)
			}
		}
		e := sc.end(&ck, 8)
		sc.send(resultFrameMsg{End: &resultEndMsg{Frames: e.Frames, Rows: e.Rows, Tag: e.Tag}})
		if a := ack(); !a.Done || a.Seq != 2 {
			t.Fatalf("done ack = %+v", a)
		}
		if err := sc.verdict(); err != nil {
			t.Fatalf("fetch of result-shaped frames: %v", err)
		}

		// And frame for frame: each shape decodes into the stream's type.
		var buf bytes.Buffer
		enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
		for _, tc := range []struct{ old, want any }{
			{resultFrameMsg{Chunk: &resultChunkMsg{Seq: 7, Rows: [][]byte{{1}, {2, 3}}}},
				frameMsg{Chunk: &chunkMsg{Seq: 7, Rows: [][]byte{{1}, {2, 3}}}}},
			{resultFrameMsg{End: &resultEndMsg{Frames: 3, Rows: 130}},
				frameMsg{End: &endMsg{Frames: 3, Rows: 130}}},
			{resultAckMsg{Seq: 4, Window: 8, Done: true}, ackMsg{Seq: 4, Window: 8, Done: true}},
			{resultAckMsg{Err: "refused"}, ackMsg{Err: "refused"}},
		} {
			if err := enc.Encode(tc.old); err != nil {
				t.Fatal(err)
			}
			got := reflect.New(reflect.TypeOf(tc.want))
			if err := dec.Decode(got.Interface()); err != nil {
				t.Fatalf("decoding %T into %T: %v", tc.old, tc.want, err)
			}
			if !reflect.DeepEqual(got.Elem().Interface(), tc.want) {
				t.Fatalf("%+v decoded as %+v", tc.old, got.Elem().Interface())
			}
		}
	})
}

func TestChunkAssemblerTerminalState(t *testing.T) {
	asm, err := newChunkAssembler(2, 0, uploadStream)
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

// TestFrameSizeIndependentOfCRC pins that a frame's wire size is a
// function of its public fields only — a chunk's sequence number and row
// lengths (an end frame carries nothing but its totals) — and never of the
// sealed bytes it carries, or the byte-size trace of a stream would vary from run to run
// with the session key. (Frames once carried a running CRC, which gob's
// native unsigned encoding shortened by a byte whenever it began with a
// zero byte.)
func TestFrameSizeIndependentOfCRC(t *testing.T) {
	size := func(f frameMsg) int {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		// The first message carries gob's type descriptors; measure the second.
		for i := 0; i < 2; i++ {
			buf.Reset()
			if err := enc.Encode(f); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Len()
	}
	chunk := func(fill byte) frameMsg {
		rows := make([][]byte, 3)
		for i := range rows {
			rows[i] = bytes.Repeat([]byte{fill}, 40)
			rows[i][i] = ^fill
		}
		return frameMsg{Chunk: &chunkMsg{Seq: 1, Rows: rows}}
	}
	want := size(chunk(0xff))
	for _, fill := range []byte{0x00, 0x01, 0x7f, 0x80} {
		if got := size(chunk(fill)); got != want {
			t.Errorf("chunk frame of %#x-filled rows is %d bytes, of 0xff-filled rows %d", fill, got, want)
		}
	}
}
