package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ppj/internal/relation"
	"ppj/internal/secop"
)

// Every session message travels as one frame: a 1-byte type, the body's
// length as a 4-byte big-endian integer, then the body. In a body an
// integer is fixed-width big-endian and a byte string is its u32 length
// and then its bytes, so a frame's length is a function of its public
// fields (the lengths of its strings, the number of its rows) and never
// of an integer's value or a byte's content. Each frame type has a fixed
// body cap, checked before the body is read or allocated; a hello, the
// one frame read before anyone is authenticated, may be a few KiB.
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

const frameHeaderLen = 5

// frameCaps is the largest body each frame type may declare.
var frameCaps = [numFrameTypes]uint32{
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
	b = append(b, m.frameType(), 0, 0, 0, 0)
	b = m.appendBody(b)
	binary.BigEndian.PutUint32(b[start+1:], uint32(len(b)-start-frameHeaderLen))
	return b
}

// Session is one end of a session's wire: frames are written with one
// Write each from a reused buffer and read through one bufio.Reader, with
// the directional session sealers (sealer encrypts outgoing payloads,
// opener decrypts incoming). One goroutine at a time writes, and one at a
// time reads.
type Session struct {
	w      io.Writer
	r      *bufio.Reader
	wbuf   []byte
	hdr    [frameHeaderLen]byte
	rbuf   []byte
	sealer *sessionSealer
	opener *sessionSealer
}

func newSession(rw io.ReadWriter) *Session {
	return &Session{w: rw, r: bufio.NewReader(rw)}
}

// send writes m as one frame.
func (s *Session) send(m wireMsg) error {
	s.wbuf = appendFrame(s.wbuf[:0], m)
	_, err := s.w.Write(s.wbuf)
	return err
}

// readFrame reads the next frame. A body over its type's cap is refused
// before any of it is read. The body is valid until the next read. A
// stream that ends at a frame boundary reads io.EOF, one that ends inside
// a frame io.ErrUnexpectedEOF.
func (s *Session) readFrame() (typ byte, body []byte, err error) {
	if _, err := io.ReadFull(s.r, s.hdr[:]); err != nil {
		return 0, nil, err
	}
	typ, n := s.hdr[0], binary.BigEndian.Uint32(s.hdr[1:])
	if typ == 0 || typ >= numFrameTypes {
		return 0, nil, fmt.Errorf("unknown frame type %d", typ)
	}
	if n > frameCaps[typ] {
		return 0, nil, fmt.Errorf("frame type %d declares a %d-byte body, cap %d", typ, n, frameCaps[typ])
	}
	if uint32(cap(s.rbuf)) < n {
		s.rbuf = make([]byte, n)
	}
	body = s.rbuf[:n]
	if _, err := io.ReadFull(s.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return typ, body, nil
}

// read reads the next frame, which must be m's type, into m.
func (s *Session) read(m wireMsg) error { return readMsg(s.readFrame, m) }

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

// --- Field codec ---

func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// appendStr appends a byte string: its u32 length, then its bytes.
func appendStr[T ~string | ~[]byte](b []byte, v T) []byte {
	return append(appendU32(b, uint32(len(v))), v...)
}

func appendSchema(b []byte, s schemaWire) []byte {
	b = appendU32(b, uint32(len(s.Attrs)))
	for _, a := range s.Attrs {
		b = append(appendStr(b, a.Name), byte(a.Type))
		b = appendU64(b, uint64(a.Width))
	}
	return b
}

// fields reads a body's fields in order. The first field that overruns
// the body sticks as err, and every later read returns zero.
type fields struct {
	b   []byte
	err error
}

func (f *fields) take(n uint64) []byte {
	if f.err == nil && n > uint64(len(f.b)) {
		f.err = fmt.Errorf("field of %d bytes overruns the %d left", n, len(f.b))
	}
	if f.err != nil {
		return nil
	}
	v := f.b[:n:n]
	f.b = f.b[n:]
	return v
}

var zeros [8]byte

// fixed takes an n-byte fixed-width field, n ≤ 8: zeros after an overrun.
func (f *fields) fixed(n int) []byte {
	if v := f.take(uint64(n)); v != nil {
		return v
	}
	return zeros[:n]
}

func (f *fields) u8() byte    { return f.fixed(1)[0] }
func (f *fields) u32() uint32 { return binary.BigEndian.Uint32(f.fixed(4)) }
func (f *fields) u64() uint64 { return binary.BigEndian.Uint64(f.fixed(8)) }

// bytes returns a byte string aliasing the body.
func (f *fields) bytes() []byte { return f.take(uint64(f.u32())) }
func (f *fields) str() string   { return string(f.bytes()) }

// flag reads a boolean byte, which must be 0 or 1.
func (f *fields) flag() bool {
	v := f.u8()
	if v > 1 && f.err == nil {
		f.err = fmt.Errorf("boolean byte %d", v)
	}
	return v == 1
}

// count reads an element count and refuses one the bytes left cannot hold
// at minBytes an element, before anything is allocated for them.
func (f *fields) count(minBytes int) int {
	n := uint64(f.u32())
	if f.err == nil && n*uint64(minBytes) > uint64(len(f.b)) {
		f.err = fmt.Errorf("%d elements of at least %d bytes overrun the %d left", n, minBytes, len(f.b))
	}
	if f.err != nil {
		return 0
	}
	return int(n)
}

func (f *fields) schema() schemaWire {
	n := f.count(4 + 1 + 8)
	s := schemaWire{Attrs: make([]relation.Attr, n)}
	for i := range s.Attrs {
		s.Attrs[i] = relation.Attr{Name: f.str(), Type: relation.AttrType(f.u8()), Width: int(f.u64())}
	}
	return s
}

// end reports the first overrun, or bytes left over after the last field.
func (f *fields) end() error {
	if f.err == nil && len(f.b) > 0 {
		f.err = fmt.Errorf("%d bytes after the last field", len(f.b))
	}
	return f.err
}

// --- Messages ---

func (*Hello) frameType() byte { return frameHello }

func (h *Hello) appendBody(b []byte) []byte {
	b = append(b, h.Proto)
	b = appendStr(b, h.Party)
	b = appendStr(b, h.Role)
	b = appendStr(b, h.Challenge)
	b = appendStr(b, h.ContractID)
	b = appendU32(b, h.ResumeChunks)
	return appendStr(b, h.JobID)
}

func (h *Hello) decode(body []byte) error {
	f := fields{b: body}
	*h = Hello{Proto: f.u8(), Party: f.str(), Role: Role(f.str()), Challenge: bytes.Clone(f.bytes()),
		ContractID: f.str(), ResumeChunks: f.u32(), JobID: f.str()}
	return f.end()
}

func (*serverAuthMsg) frameType() byte { return frameServerAuth }

func (m *serverAuthMsg) appendBody(b []byte) []byte {
	b = appendU32(b, uint32(len(m.Att.Chain)))
	for _, c := range m.Att.Chain {
		b = appendU32(b, uint32(c.SubjectLayer))
		b = appendStr(b, c.SubjectName)
		b = append(b, c.SubjectDigest[:]...)
		b = appendStr(b, c.SubjectKey)
		b = appendStr(b, c.SignerKey)
		b = appendStr(b, c.Signature)
	}
	b = appendStr(b, m.Att.Challenge)
	b = appendStr(b, m.Att.Signature)
	b = appendStr(b, m.ECDHPub)
	return appendStr(b, m.Sig)
}

// decode keeps nothing of body: the message outlives the next read.
func (m *serverAuthMsg) decode(body []byte) error {
	f := fields{b: bytes.Clone(body)}
	chain := make([]secop.Certificate, f.count(4+4+32+4+4+4))
	for i := range chain {
		c := &chain[i]
		c.SubjectLayer = secop.Layer(f.u32())
		c.SubjectName = f.str()
		copy(c.SubjectDigest[:], f.take(32))
		c.SubjectKey, c.SignerKey, c.Signature = f.bytes(), f.bytes(), f.bytes()
	}
	*m = serverAuthMsg{Att: secop.Attestation{Chain: chain, Challenge: f.bytes(), Signature: f.bytes()},
		ECDHPub: f.bytes(), Sig: f.bytes()}
	return f.end()
}

func (*clientKeyMsg) frameType() byte { return frameClientKey }

func (m *clientKeyMsg) appendBody(b []byte) []byte {
	return appendStr(appendStr(b, m.ECDHPub), m.Sig)
}

// decode keeps nothing of body.
func (m *clientKeyMsg) decode(body []byte) error {
	f := fields{b: bytes.Clone(body)}
	*m = clientKeyMsg{ECDHPub: f.bytes(), Sig: f.bytes()}
	return f.end()
}

func (*uploadBeginMsg) frameType() byte { return frameUploadBegin }

func (m *uploadBeginMsg) appendBody(b []byte) []byte {
	b = appendStr(b, m.ContractID)
	b = appendSchema(b, m.Schema)
	return appendU64(b, uint64(m.DeclaredRows))
}

func (m *uploadBeginMsg) decode(body []byte) error {
	f := fields{b: body}
	*m = uploadBeginMsg{ContractID: f.str(), Schema: f.schema(), DeclaredRows: int64(f.u64())}
	return f.end()
}

func (*resultBeginMsg) frameType() byte { return frameResultBegin }

func (m *resultBeginMsg) appendBody(b []byte) []byte {
	b = appendStr(b, m.ContractID)
	b = appendSchema(b, m.Schema)
	b = appendStr(b, m.Err)
	b = appendU32(b, m.TotalChunks)
	b = appendU32(b, m.StartChunk)
	return appendU64(b, uint64(m.StreamRows))
}

func (m *resultBeginMsg) decode(body []byte) error {
	f := fields{b: body}
	*m = resultBeginMsg{ContractID: f.str(), Schema: f.schema(), Err: f.str(),
		TotalChunks: f.u32(), StartChunk: f.u32(), StreamRows: int64(f.u64())}
	return f.end()
}

func (*chunkMsg) frameType() byte { return frameChunk }

func (m *chunkMsg) appendBody(b []byte) []byte {
	b = appendU32(appendU32(b, m.Seq), uint32(len(m.Rows)))
	for _, r := range m.Rows {
		b = appendStr(b, r)
	}
	return b
}

// decode reuses m.Rows, and its rows alias body: a chunk is consumed
// before the session's next read. A row count the body cannot hold at the
// smallest sealed row apiece is refused before the rows are allocated.
func (m *chunkMsg) decode(body []byte) error {
	f := fields{b: body}
	m.Seq = f.u32()
	n := f.count(4 + int(minSealedRowBytes))
	m.Rows = m.Rows[:0]
	for i := 0; i < n; i++ {
		m.Rows = append(m.Rows, f.bytes())
	}
	return f.end()
}

func (*endMsg) frameType() byte { return frameEnd }

func (m *endMsg) appendBody(b []byte) []byte {
	return appendStr(appendU64(appendU32(b, m.Frames), uint64(m.Rows)), m.Tag)
}

// decode's Tag aliases body.
func (m *endMsg) decode(body []byte) error {
	f := fields{b: body}
	*m = endMsg{Frames: f.u32(), Rows: int64(f.u64()), Tag: f.bytes()}
	return f.end()
}

func (*ackMsg) frameType() byte { return frameAck }

func (m *ackMsg) appendBody(b []byte) []byte {
	b = appendU32(appendU32(b, m.Seq), m.Window)
	if m.Done {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return appendStr(b, truncateVerdict(m.Err))
}

func (m *ackMsg) decode(body []byte) error {
	f := fields{b: body}
	*m = ackMsg{Seq: f.u32(), Window: f.u32(), Done: f.flag(), Err: f.str()}
	return f.end()
}
