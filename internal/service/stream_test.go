package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"ppj/internal/relation"
	"ppj/internal/secop"
	"ppj/internal/sim"
)

// beginFrame is either direction's begin frame.
type beginFrame interface {
	wireMsg
	digest() []byte
}

// rawFrame is a frame of any type and body, for the scripts that break the
// framing itself.
type rawFrame struct {
	typ  byte
	body []byte
}

func (f rawFrame) frameType() byte            { return f.typ }
func (f rawFrame) appendBody(b []byte) []byte { return append(b, f.body...) }
func (f rawFrame) decode([]byte) error        { return errors.New("rawFrame is write-only") }

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

func (sc *streamScript) send(m wireMsg) {
	sc.t.Helper()
	if err := sc.sess.send(m); err != nil {
		sc.t.Fatalf("sending %T: %v", m, err)
	}
}

func (sc *streamScript) ack() ackMsg {
	sc.t.Helper()
	var a ackMsg
	if err := sc.sess.read(&a); err != nil {
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
			if sc.sess.read(&a) != nil {
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
// ciphertext, skewed or replayed sequence numbers, empty chunks, frames
// that are neither chunk nor end or carry more than one, totals that
// disagree with the declaration — each pinning the receiving direction's
// typed verdict. The two "envelope" scripts keep the names they had when
// chunk and end rode in one envelope type.
var framingScripts = []struct {
	name string
	run  func(t *testing.T, sc *streamScript)
}{
	{"crc corruption", func(t *testing.T, sc *streamScript) {
		sc.begin(8)
		var ck chunker
		rows := sc.seal(0, 4)
		rows[1][len(rows[1])/2] ^= 1
		sc.send(ck.frame(rows))
		if err := sc.verdict(); !errors.Is(err, sc.dir.frame) || !errors.Is(err, sim.ErrTamper) {
			t.Fatalf("verdict = %v, want %v wrapping sim.ErrTamper", err, sc.dir.frame)
		}
	}},
	{"sequence skew", func(t *testing.T, sc *streamScript) {
		sc.begin(8)
		var ck chunker
		f := ck.frame(sc.seal(0, 4))
		f.Seq = 3
		sc.send(f)
		err := sc.verdict()
		if !errors.Is(err, sc.dir.frame) || !strings.Contains(err.Error(), "reordered") {
			t.Fatalf("verdict = %v", err)
		}
	}},
	{"replayed chunk", func(t *testing.T, sc *streamScript) {
		sc.begin(8)
		var ck chunker
		f := ck.frame(sc.seal(0, 4))
		sc.send(f)
		if a := sc.ack(); a.Err != "" {
			t.Fatalf("first copy refused: %s", a.Err)
		}
		sc.send(f)
		if err := sc.verdict(); !errors.Is(err, sc.dir.frame) {
			t.Fatalf("verdict = %v", err)
		}
	}},
	{"rows exceed declaration", func(t *testing.T, sc *streamScript) {
		sc.begin(2)
		var ck chunker
		sc.send(ck.frame(sc.seal(0, 4)))
		if err := sc.verdict(); !errors.Is(err, sc.dir.tooLarge) {
			t.Fatalf("verdict = %v", err)
		}
	}},
	{"end short of declaration", func(t *testing.T, sc *streamScript) {
		sc.begin(8)
		var ck chunker
		sc.send(ck.frame(sc.seal(0, 4)))
		if a := sc.ack(); a.Err != "" {
			t.Fatalf("chunk refused: %s", a.Err)
		}
		sc.send(sc.end(&ck, 4))
		err := sc.verdict()
		if !errors.Is(err, sc.dir.truncated) || !strings.Contains(err.Error(), "4 of 8") {
			t.Fatalf("verdict = %v", err)
		}
	}},
	{"end frame totals lie", func(t *testing.T, sc *streamScript) {
		sc.begin(4)
		var ck chunker
		sc.send(ck.frame(sc.seal(0, 4)))
		if a := sc.ack(); a.Err != "" {
			t.Fatalf("chunk refused: %s", a.Err)
		}
		e := sc.end(&ck, 4)
		e.Frames = 5
		sc.send(e)
		if err := sc.verdict(); !errors.Is(err, sc.dir.frame) {
			t.Fatalf("verdict = %v", err)
		}
	}},
	{"eof mid-stream", func(t *testing.T, sc *streamScript) {
		sc.begin(8)
		var ck chunker
		sc.send(ck.frame(sc.seal(0, 4)))
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
		sc.send(ck.frame(nil))
		if err := sc.verdict(); !errors.Is(err, sc.dir.frame) {
			t.Fatalf("verdict = %v", err)
		}
	}},
	{"empty envelope", func(t *testing.T, sc *streamScript) {
		// An ack frame in the chunk stream is neither chunk nor end.
		sc.begin(8)
		sc.send(&ackMsg{})
		if err := sc.verdict(); !errors.Is(err, sc.dir.frame) || !errors.Is(err, errFrameType) {
			t.Fatalf("verdict = %v", err)
		}
	}},
	{"envelope carrying both frames", func(t *testing.T, sc *streamScript) {
		// One chunk frame whose body also carries the end frame's.
		sc.begin(4)
		var ck chunker
		chunk := ck.frame(sc.seal(0, 4))
		both := rawFrame{frameChunk, sc.end(&ck, 4).appendBody(chunk.appendBody(nil))}
		sc.send(both)
		err := sc.verdict()
		if !errors.Is(err, sc.dir.frame) || !strings.Contains(err.Error(), "after the last field") {
			t.Fatalf("verdict = %v", err)
		}
	}},
	{"unknown frame type", func(t *testing.T, sc *streamScript) {
		sc.begin(8)
		sc.send(rawFrame{typ: numFrameTypes})
		if err := sc.verdict(); !errors.Is(err, sc.dir.frame) {
			t.Fatalf("verdict = %v", err)
		}
	}},
	{"body over the chunk cap", func(t *testing.T, sc *streamScript) {
		// The header alone: the receiver refuses it without waiting for
		// a body that never comes.
		sc.begin(8)
		if _, err := sc.sess.w.Write([]byte{frameChunk, 0xff, 0xff, 0xff, 0xff}); err != nil {
			t.Fatal(err)
		}
		if err := sc.verdict(); !errors.Is(err, sc.dir.frame) || !strings.Contains(err.Error(), "cap") {
			t.Fatalf("verdict = %v", err)
		}
	}},
	{"chunk row count the body cannot hold", func(t *testing.T, sc *streamScript) {
		sc.begin(8)
		sc.send(rawFrame{frameChunk, []byte{0, 0, 0, 0, 0x7f, 0xff, 0xff, 0xff}})
		if err := sc.verdict(); !errors.Is(err, sc.dir.frame) || !strings.Contains(err.Error(), "overrun") {
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
// pins the byte layout of the stream's frames (DESIGN §9's table) with
// frames built by hand rather than by the codec: a begin frame, two chunk
// frames and the end frame so written complete the fetch, and every ack
// the recipient writes back is the documented bytes.
func TestResultFramingViolations(t *testing.T) {
	for _, s := range framingScripts {
		t.Run(s.name, func(t *testing.T) { s.run(t, startDeliveryScript(t)) })
	}

	t.Run("result frame shapes on the wire", func(t *testing.T) {
		u32 := func(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }
		u64 := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
		str := func(b []byte) []byte { return append(u32(uint32(len(b))), b...) }
		frame := func(typ byte, fields ...[]byte) []byte {
			body := bytes.Join(fields, nil)
			return append(append([]byte{typ}, u32(uint32(len(body)))...), body...)
		}
		ack := func(seq uint32, done byte) []byte {
			return frame(8, u32(seq), u32(DefaultResultWindow), []byte{done}, u32(0))
		}
		sc := startDeliveryScript(t)
		write := func(b []byte) {
			if _, err := sc.sess.w.Write(b); err != nil {
				t.Fatal(err)
			}
		}
		readAck := func(want []byte) {
			got := make([]byte, len(want))
			if _, err := io.ReadFull(sc.sess.r, got); err != nil {
				t.Fatalf("reading ack: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("ack on the wire %x, want %x", got, want)
			}
		}

		b := sc.beginf(8).(*resultBeginMsg)
		sc.bind = b.digest()
		begin := [][]byte{str([]byte(b.ContractID)), u32(uint32(len(b.Schema.Attrs)))}
		for _, a := range b.Schema.Attrs {
			begin = append(begin, str([]byte(a.Name)), []byte{byte(a.Type)}, u64(uint64(a.Width)))
		}
		begin = append(begin, str(nil), u32(b.TotalChunks), u32(b.StartChunk), u64(uint64(b.StreamRows)))
		if want := frame(5, begin...); !bytes.Equal(appendFrame(nil, b), want) {
			t.Fatalf("begin frame %x, want %x", appendFrame(nil, b), want)
		}
		write(frame(5, begin...))
		readAck(ack(0, 0))
		var ck chunker
		for lo := 0; lo < 8; lo += 4 {
			c := ck.frame(sc.seal(lo, lo+4))
			chunk := [][]byte{u32(c.Seq), u32(uint32(len(c.Rows)))}
			for _, r := range c.Rows {
				chunk = append(chunk, str(r))
			}
			write(frame(6, chunk...))
			readAck(ack(c.Seq+1, 0))
		}
		e := sc.end(&ck, 8)
		write(frame(7, u32(e.Frames), u64(uint64(e.Rows)), str(e.Tag)))
		readAck(ack(2, 1))
		if err := sc.verdict(); err != nil {
			t.Fatalf("fetch of hand-built frames: %v", err)
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

// TestFrameSizeIndependentOfCRC pins that every frame's wire size is a
// function of its public fields only — the lengths of its strings and
// byte strings and the number of its rows and links — and never of an
// integer's value or of the bytes a field carries, or the byte-size trace
// of a session would vary with the session key, the sequence numbers or a
// row count. Each of the eight frame types is encoded with every integer
// field at 0, 1, 255, 2^31 and the maximum, and every byte field filled
// five ways; the length must not move. Under gob, which wrote integers in
// as few bytes as their value needs, this failed; its name is for the
// running CRC that gob once shortened by a byte whenever it began with a
// zero byte.
func TestFrameSizeIndependentOfCRC(t *testing.T) {
	msgs := func(v uint64, fill byte) []wireMsg {
		b := func(n int) []byte {
			out := bytes.Repeat([]byte{fill}, n)
			out[n/2] = ^fill
			return out
		}
		s := func(n int) string { return string(b(n)) }
		attr := func(n int) relation.Attr {
			return relation.Attr{Name: s(n), Type: relation.AttrType(v), Width: int(v)}
		}
		schema := schemaWire{Attrs: []relation.Attr{attr(3), attr(5)}}
		cert := secop.Certificate{SubjectLayer: secop.Layer(v), SubjectName: s(9), SubjectDigest: [32]byte(b(32)),
			SubjectKey: b(32), SignerKey: b(32), Signature: b(64)}
		return []wireMsg{
			&Hello{Party: s(5), Role: Role(s(8)), Challenge: b(32), ContractID: s(12), Proto: byte(v),
				ResumeChunks: uint32(v), JobID: s(14)},
			&serverAuthMsg{Att: secop.Attestation{Chain: []secop.Certificate{cert, cert, cert}, Challenge: b(32),
				Signature: b(64)}, ECDHPub: b(32), Sig: b(64)},
			&clientKeyMsg{ECDHPub: b(32), Sig: b(64)},
			&uploadBeginMsg{ContractID: s(12), Schema: schema, DeclaredRows: int64(v)},
			&resultBeginMsg{ContractID: s(12), Schema: schema, Err: s(20), TotalChunks: uint32(v),
				StartChunk: uint32(v), StreamRows: int64(v)},
			&chunkMsg{Seq: uint32(v), Rows: [][]byte{b(40), b(40), b(41)}},
			&endMsg{Frames: uint32(v), Rows: int64(v), Tag: b(40)},
			&ackMsg{Seq: uint32(v), Window: uint32(v), Done: v&1 == 1, Err: s(17)},
		}
	}
	want := msgs(0, 0)
	seen := map[byte]bool{}
	for _, m := range want {
		seen[m.frameType()] = true
	}
	if len(seen) != int(numFrameTypes)-1 {
		t.Fatalf("the test covers %d frame types, the codec has %d", len(seen), numFrameTypes-1)
	}
	for _, v := range []uint64{0, 1, 255, 1 << 31, math.MaxUint32, math.MaxUint64} {
		for _, fill := range []byte{0x00, 0x01, 0x7f, 0x80, 0xff} {
			for i, m := range msgs(v, fill) {
				if got, w := len(appendFrame(nil, m)), len(appendFrame(nil, want[i])); got != w {
					t.Errorf("%T with integers %d and bytes %#x is %d bytes, with zeros %d", m, v, fill, got, w)
				}
			}
		}
	}
}
