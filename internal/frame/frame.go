// Package frame is the one byte format of everything the system sends or
// keeps: session messages on the wire, and the write-ahead log's records
// and the result segments on the host's disk.
//
//	frame := type(u8) || length(u32 BE) || body || crc32c(u32 BE)?
//
// A body is a sequence of fields: an integer is fixed-width big-endian and
// a byte string is its u32 length and then its bytes, so a frame's length
// is a function of its strings' lengths and its element counts, never of
// an integer's value or a byte's content. Each format gives every frame
// type a body cap, checked from the header before the body is read or
// allocated. A checked frame, the kind kept on disk, ends in a CRC-32C
// (Castagnoli) over its header and body, because no tag covers those bytes:
// the log is plaintext, and a segment's header is read before any tag is
// checked. Session frames carry none; the session AEAD covers them.
package frame

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"ppj/internal/relation"
)

// HeaderLen is a frame's type byte and body length; CRCLen its checksum
// trailer, on checked frames only.
const (
	HeaderLen = 5
	CRCLen    = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Caps is a format's largest body per frame type, indexed by type. A type
// whose cap is 0 is not one of the format's.
type Caps []uint32

// header reads a frame header: a type of the format and a body length
// within the type's cap.
func (c Caps) header(h []byte) (typ byte, n uint32, err error) {
	typ, n = h[0], binary.BigEndian.Uint32(h[1:])
	if int(typ) >= len(c) || c[typ] == 0 {
		return 0, 0, fmt.Errorf("unknown frame type %d", typ)
	}
	if n > c[typ] {
		return 0, 0, fmt.Errorf("frame type %d declares a %d-byte body, cap %d", typ, n, c[typ])
	}
	return typ, n, nil
}

// Start appends the header of a typ frame; Finish or FinishChecked fills
// in its length once the body has been appended after it.
func Start(b []byte, typ byte) []byte { return append(b, typ, 0, 0, 0, 0) }

// Finish completes the frame that begins at b[start].
func Finish(b []byte, start int) []byte {
	binary.BigEndian.PutUint32(b[start+1:], uint32(len(b)-start-HeaderLen))
	return b
}

// FinishChecked completes the frame that begins at b[start] and appends
// its CRC.
func FinishChecked(b []byte, start int) []byte {
	b = Finish(b, start)
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b[start:], castagnoli))
}

// Cut splits the first checked frame off b. A short header, an unknown
// type, a body over its cap or beyond the bytes left, and a CRC mismatch
// are errors, found before anything is allocated. The body aliases b.
func (c Caps) Cut(b []byte) (typ byte, body, rest []byte, err error) {
	if len(b) < HeaderLen {
		return 0, nil, nil, fmt.Errorf("%d-byte frame header", len(b))
	}
	typ, n, err := c.header(b)
	if err != nil {
		return 0, nil, nil, err
	}
	end := HeaderLen + int(n)
	if len(b)-CRCLen < end {
		return 0, nil, nil, fmt.Errorf("frame of %d bytes beyond the %d left", end+CRCLen, len(b))
	}
	if crc32.Checksum(b[:end], castagnoli) != binary.BigEndian.Uint32(b[end:]) {
		return 0, nil, nil, fmt.Errorf("frame checksum mismatch")
	}
	return typ, b[HeaderLen:end], b[end+CRCLen:], nil
}

// Reader reads unchecked frames from a stream into one reused buffer. It
// is also an io.Reader of the stream's raw bytes.
type Reader struct {
	r    *bufio.Reader
	caps Caps
	hdr  [HeaderLen]byte
	buf  []byte
}

// NewReader reads frames of the format caps describes from r.
func NewReader(r io.Reader, caps Caps) *Reader { return &Reader{r: bufio.NewReader(r), caps: caps} }

func (r *Reader) Read(p []byte) (int, error) { return r.r.Read(p) }

// Next reads the next frame. A body over its type's cap is refused before
// any of it is read. The body is valid until the next call. A stream that
// ends at a frame boundary reads io.EOF, one that ends inside a frame
// io.ErrUnexpectedEOF.
func (r *Reader) Next() (typ byte, body []byte, err error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		return 0, nil, err
	}
	typ, n, err := r.caps.header(r.hdr[:])
	if err != nil {
		return 0, nil, err
	}
	if uint32(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	body = r.buf[:n]
	if _, err := io.ReadFull(r.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return typ, body, nil
}

// --- Fields ---

func AppendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendStr appends a byte string: its u32 length, then its bytes.
func AppendStr[T ~string | ~[]byte](b []byte, v T) []byte {
	return append(AppendU32(b, uint32(len(v))), v...)
}

// AppendAttrs appends a schema's attribute list: a count, then each
// attribute's name, type byte and u64 width.
func AppendAttrs(b []byte, attrs []relation.Attr) []byte {
	b = AppendU32(b, uint32(len(attrs)))
	for _, a := range attrs {
		b = append(AppendStr(b, a.Name), byte(a.Type))
		b = AppendU64(b, uint64(a.Width))
	}
	return b
}

// Fields reads a body's fields in order. The first field that overruns
// the body sticks as the error End reports, and every later read returns
// zero.
type Fields struct {
	b   []byte
	err error
}

// NewFields reads the fields of body.
func NewFields(body []byte) Fields { return Fields{b: body} }

// Take takes the next n bytes, aliasing the body.
func (f *Fields) Take(n uint64) []byte {
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
func (f *Fields) fixed(n int) []byte {
	if v := f.Take(uint64(n)); v != nil {
		return v
	}
	return zeros[:n]
}

func (f *Fields) U8() byte    { return f.fixed(1)[0] }
func (f *Fields) U32() uint32 { return binary.BigEndian.Uint32(f.fixed(4)) }
func (f *Fields) U64() uint64 { return binary.BigEndian.Uint64(f.fixed(8)) }

// Bytes returns a byte string aliasing the body.
func (f *Fields) Bytes() []byte { return f.Take(uint64(f.U32())) }
func (f *Fields) Str() string   { return string(f.Bytes()) }

// Flag reads a boolean byte, which must be 0 or 1.
func (f *Fields) Flag() bool {
	v := f.U8()
	if v > 1 && f.err == nil {
		f.err = fmt.Errorf("boolean byte %d", v)
	}
	return v == 1
}

// Count reads an element count and refuses one the bytes left cannot hold
// at minBytes an element, before anything is allocated for them.
func (f *Fields) Count(minBytes int) int {
	n := uint64(f.U32())
	if f.err == nil && n*uint64(minBytes) > uint64(len(f.b)) {
		f.err = fmt.Errorf("%d elements of at least %d bytes overrun the %d left", n, minBytes, len(f.b))
	}
	if f.err != nil {
		return 0
	}
	return int(n)
}

// Attrs reads an attribute list AppendAttrs wrote.
func (f *Fields) Attrs() []relation.Attr {
	attrs := make([]relation.Attr, f.Count(4+1+8))
	for i := range attrs {
		attrs[i] = relation.Attr{Name: f.Str(), Type: relation.AttrType(f.U8()), Width: int(f.U64())}
	}
	return attrs
}

// End reports the first overrun, or bytes left over after the last field.
func (f *Fields) End() error {
	if f.err == nil && len(f.b) > 0 {
		f.err = fmt.Errorf("%d bytes after the last field", len(f.b))
	}
	return f.err
}
