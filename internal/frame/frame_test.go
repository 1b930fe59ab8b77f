package frame

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

var testCaps = Caps{1: 16, 2: 1 << 10}

func checked(typ byte, body []byte) []byte {
	return FinishChecked(append(Start(nil, typ), body...), 0)
}

// TestCutRefusesEveryTornOrFlippedFrame: Cut returns a checked frame's
// type, body and the bytes after it, and refuses the frame cut short
// anywhere or with any one bit flipped, an unknown type, and a body over
// its type's cap.
func TestCutRefusesEveryTornOrFlippedFrame(t *testing.T) {
	f := checked(2, []byte("body"))
	typ, body, rest, err := testCaps.Cut(append(bytes.Clone(f), 9))
	if err != nil || typ != 2 || string(body) != "body" || !bytes.Equal(rest, []byte{9}) {
		t.Fatalf("Cut = %d %q %x %v", typ, body, rest, err)
	}
	for n := range len(f) {
		if _, _, _, err := testCaps.Cut(f[:n]); err == nil {
			t.Errorf("a frame cut to %d of %d bytes read", n, len(f))
		}
	}
	for i := range len(f) * 8 {
		g := bytes.Clone(f)
		g[i/8] ^= 1 << (i % 8)
		if _, _, _, err := testCaps.Cut(g); err == nil {
			t.Errorf("a frame with bit %d flipped read", i)
		}
	}
	for _, g := range [][]byte{checked(0, nil), checked(3, nil), checked(1, make([]byte, 17))} {
		if _, _, _, err := testCaps.Cut(g); err == nil {
			t.Errorf("frame %x read", g)
		}
	}
}

// TestReaderEnds: a stream that ends at a frame boundary reads io.EOF,
// one that ends inside a frame io.ErrUnexpectedEOF, and a header over its
// type's cap is refused before its body is read.
func TestReaderEnds(t *testing.T) {
	f := Finish(append(Start(nil, 1), "abc"...), 0)
	r := NewReader(bytes.NewReader(append(bytes.Clone(f), f[:6]...)), testCaps)
	if typ, body, err := r.Next(); err != nil || typ != 1 || string(body) != "abc" {
		t.Fatalf("Next = %d %q %v", typ, body, err)
	}
	if _, _, err := r.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a frame cut short read %v, want io.ErrUnexpectedEOF", err)
	}
	if _, _, err := NewReader(bytes.NewReader(f), testCaps).Next(); err != nil {
		t.Fatal(err)
	}
	r = NewReader(bytes.NewReader(nil), testCaps)
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("an empty stream read %v, want io.EOF", err)
	}
	r = NewReader(bytes.NewReader([]byte{1, 0, 0, 0, 17}), testCaps)
	if _, _, err := r.Next(); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a header over the cap read %v, want the cap's refusal", err)
	}
}

// TestFieldsOverrun: the first field that overruns the body sticks, later
// reads return zero, and End reports it, or bytes left after the last
// field, or a count the bytes left cannot hold.
func TestFieldsOverrun(t *testing.T) {
	b := AppendU64(AppendStr(AppendU32(nil, 7), "ab"), 9)
	f := NewFields(b)
	if f.U32() != 7 || f.Str() != "ab" || f.U64() != 9 || f.End() != nil {
		t.Fatal("fields did not read back")
	}
	f = NewFields(b[:9])
	if f.U32() != 7 || f.Str() != "" || f.U64() != 0 || f.End() == nil {
		t.Fatal("an overrun string read")
	}
	if f = NewFields(b); f.U32() != 7 || f.End() == nil {
		t.Fatal("bytes after the last field went unreported")
	}
	if f = NewFields(AppendU32(nil, 3)); f.Count(1) != 0 || f.End() == nil {
		t.Fatal("a count of 3 elements in no bytes read")
	}
}
