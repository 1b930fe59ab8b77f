package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"ppj/internal/frame"
	"ppj/internal/secop"
)

// Every session message travels as one frame of internal/frame's format,
// unchecked: the session AEAD covers what it carries. Each frame type has
// a fixed body cap; a hello, the one frame read before anyone is
// authenticated, may be a few KiB.
const (
	frameHello byte = 1 + iota
	frameServerAuth
	frameClientKey
	frameUploadBegin
	frameResultBegin
	frameChunk
	frameEnd
	frameAck
	numFrameTypes
)

const frameHeaderLen = frame.HeaderLen

// frameCaps is the largest body each frame type may declare.
var frameCaps = frame.Caps{
	frameHello:       4 << 10,
	frameServerAuth:  4 << 10,
	frameClientKey:   4 << 10,
	frameUploadBegin: 64 << 10,
	frameResultBegin: 64 << 10,
	frameChunk:       16 << 20,
	frameEnd:         1 << 10,
	frameAck:         4 << 10,
}

// maxVerdictLen bounds the refusal text an ack carries and the failure
// verdict a result begin frame carries, so both fit their frame's cap.
const maxVerdictLen = 2 << 10

func truncateVerdict(s string) string { return s[:min(len(s), maxVerdictLen)] }

// errFrameType refuses a frame whose type is not the one the protocol
// expects next.
var errFrameType = errors.New("unexpected frame type")

// wireMsg is one session message: its frame type and its body's codec.
// decode may keep slices of body only where the message's comment says
// so; the session reuses body's bytes for its next read.
type wireMsg interface {
	frameType() byte
	appendBody(b []byte) []byte
	decode(body []byte) error
}

// appendFrame appends m's frame — header, then body — to b.
func appendFrame(b []byte, m wireMsg) []byte {
	start := len(b)
	return frame.Finish(m.appendBody(frame.Start(b, m.frameType())), start)
}

// Session is one end of a session's wire: frames are written with one
// Write each from a reused buffer and read through one frame.Reader, with
// the directional session sealers (sealer encrypts outgoing payloads,
// opener decrypts incoming). One goroutine at a time writes, and one at a
// time reads.
type Session struct {
	w      io.Writer
	r      *frame.Reader
	wbuf   []byte
	sealer *sessionSealer
	opener *sessionSealer
}

func newSession(rw io.ReadWriter) *Session {
	return &Session{w: rw, r: frame.NewReader(rw, frameCaps)}
}

// send writes m as one frame.
func (s *Session) send(m wireMsg) error {
	s.wbuf = appendFrame(s.wbuf[:0], m)
	_, err := s.w.Write(s.wbuf)
	return err
}

// read reads the next frame, which must be m's type, into m.
func (s *Session) read(m wireMsg) error { return readMsg(s.r.Next, m) }

// readMsg reads the next frame with read, which must be m's type, into m.
func readMsg(read func() (byte, []byte, error), m wireMsg) error {
	typ, body, err := read()
	if err != nil {
		return err
	}
	if typ != m.frameType() {
		return fmt.Errorf("%w: %d, want %d", errFrameType, typ, m.frameType())
	}
	return m.decode(body)
}

// ReadHello reads the opening message of a session without answering it.
// The caller routes on Hello.ContractID (and may then complete the
// handshake with the matching service's Handshake).
func ReadHello(conn io.ReadWriter) (*Session, Hello, error) {
	sess := newSession(conn)
	var hello Hello
	if err := sess.read(&hello); err != nil {
		return nil, Hello{}, fmt.Errorf("service: reading hello: %w", err)
	}
	return sess, hello, nil
}

// WriteHello opens a session on w with hello's frame.
func WriteHello(w io.Writer, hello Hello) error {
	_, err := w.Write(appendFrame(nil, &hello))
	return err
}

// --- Messages ---

func (*Hello) frameType() byte { return frameHello }

func (h *Hello) appendBody(b []byte) []byte {
	b = append(b, h.Proto)
	b = frame.AppendStr(b, h.Party)
	b = frame.AppendStr(b, h.Role)
	b = frame.AppendStr(b, h.Challenge)
	b = frame.AppendStr(b, h.ContractID)
	b = frame.AppendU32(b, h.ResumeChunks)
	return frame.AppendStr(b, h.JobID)
}

func (h *Hello) decode(body []byte) error {
	f := frame.NewFields(body)
	*h = Hello{Proto: f.U8(), Party: f.Str(), Role: Role(f.Str()), Challenge: bytes.Clone(f.Bytes()),
		ContractID: f.Str(), ResumeChunks: f.U32(), JobID: f.Str()}
	return f.End()
}

func (*serverAuthMsg) frameType() byte { return frameServerAuth }

func (m *serverAuthMsg) appendBody(b []byte) []byte {
	b = frame.AppendU32(b, uint32(len(m.Att.Chain)))
	for _, c := range m.Att.Chain {
		b = frame.AppendU32(b, uint32(c.SubjectLayer))
		b = frame.AppendStr(b, c.SubjectName)
		b = append(b, c.SubjectDigest[:]...)
		b = frame.AppendStr(b, c.SubjectKey)
		b = frame.AppendStr(b, c.SignerKey)
		b = frame.AppendStr(b, c.Signature)
	}
	b = frame.AppendStr(b, m.Att.Challenge)
	b = frame.AppendStr(b, m.Att.Signature)
	b = frame.AppendStr(b, m.ECDHPub)
	return frame.AppendStr(b, m.Sig)
}

// decode keeps nothing of body: the message outlives the next read.
func (m *serverAuthMsg) decode(body []byte) error {
	f := frame.NewFields(bytes.Clone(body))
	chain := make([]secop.Certificate, f.Count(4+4+32+4+4+4))
	for i := range chain {
		c := &chain[i]
		c.SubjectLayer = secop.Layer(f.U32())
		c.SubjectName = f.Str()
		copy(c.SubjectDigest[:], f.Take(32))
		c.SubjectKey, c.SignerKey, c.Signature = f.Bytes(), f.Bytes(), f.Bytes()
	}
	*m = serverAuthMsg{Att: secop.Attestation{Chain: chain, Challenge: f.Bytes(), Signature: f.Bytes()},
		ECDHPub: f.Bytes(), Sig: f.Bytes()}
	return f.End()
}

func (*clientKeyMsg) frameType() byte { return frameClientKey }

func (m *clientKeyMsg) appendBody(b []byte) []byte {
	return frame.AppendStr(frame.AppendStr(b, m.ECDHPub), m.Sig)
}

// decode keeps nothing of body.
func (m *clientKeyMsg) decode(body []byte) error {
	f := frame.NewFields(bytes.Clone(body))
	*m = clientKeyMsg{ECDHPub: f.Bytes(), Sig: f.Bytes()}
	return f.End()
}

func (*uploadBeginMsg) frameType() byte { return frameUploadBegin }

func (m *uploadBeginMsg) appendBody(b []byte) []byte {
	b = frame.AppendStr(b, m.ContractID)
	b = frame.AppendAttrs(b, m.Schema.Attrs)
	return frame.AppendU64(b, uint64(m.DeclaredRows))
}

func (m *uploadBeginMsg) decode(body []byte) error {
	f := frame.NewFields(body)
	*m = uploadBeginMsg{ContractID: f.Str(), Schema: schemaWire{Attrs: f.Attrs()}, DeclaredRows: int64(f.U64())}
	return f.End()
}

func (*resultBeginMsg) frameType() byte { return frameResultBegin }

func (m *resultBeginMsg) appendBody(b []byte) []byte {
	b = frame.AppendStr(b, m.ContractID)
	b = frame.AppendAttrs(b, m.Schema.Attrs)
	b = frame.AppendStr(b, m.Err)
	b = frame.AppendU32(b, m.TotalChunks)
	b = frame.AppendU32(b, m.StartChunk)
	return frame.AppendU64(b, uint64(m.StreamRows))
}

func (m *resultBeginMsg) decode(body []byte) error {
	f := frame.NewFields(body)
	*m = resultBeginMsg{ContractID: f.Str(), Schema: schemaWire{Attrs: f.Attrs()}, Err: f.Str(),
		TotalChunks: f.U32(), StartChunk: f.U32(), StreamRows: int64(f.U64())}
	return f.End()
}

func (*chunkMsg) frameType() byte { return frameChunk }

func (m *chunkMsg) appendBody(b []byte) []byte {
	b = frame.AppendU32(frame.AppendU32(b, m.Seq), uint32(len(m.Rows)))
	for _, r := range m.Rows {
		b = frame.AppendStr(b, r)
	}
	return b
}

// decode reuses m.Rows, and its rows alias body: a chunk is consumed
// before the session's next read. A row count the body cannot hold at the
// smallest sealed row apiece is refused before the rows are allocated.
func (m *chunkMsg) decode(body []byte) error {
	f := frame.NewFields(body)
	m.Seq = f.U32()
	n := f.Count(4 + int(minSealedRowBytes))
	m.Rows = m.Rows[:0]
	for i := 0; i < n; i++ {
		m.Rows = append(m.Rows, f.Bytes())
	}
	return f.End()
}

func (*endMsg) frameType() byte { return frameEnd }

func (m *endMsg) appendBody(b []byte) []byte {
	return frame.AppendStr(frame.AppendU64(frame.AppendU32(b, m.Frames), uint64(m.Rows)), m.Tag)
}

// decode's Tag aliases body.
func (m *endMsg) decode(body []byte) error {
	f := frame.NewFields(body)
	*m = endMsg{Frames: f.U32(), Rows: int64(f.U64()), Tag: f.Bytes()}
	return f.End()
}

func (*ackMsg) frameType() byte { return frameAck }

func (m *ackMsg) appendBody(b []byte) []byte {
	b = frame.AppendU32(frame.AppendU32(b, m.Seq), m.Window)
	if m.Done {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return frame.AppendStr(b, truncateVerdict(m.Err))
}

func (m *ackMsg) decode(body []byte) error {
	f := frame.NewFields(body)
	*m = ackMsg{Seq: f.U32(), Window: f.U32(), Done: f.Flag(), Err: f.Str()}
	return f.End()
}
