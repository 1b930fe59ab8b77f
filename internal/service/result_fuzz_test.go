package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"ppj/internal/relation"
)

// fuzzResultWire frames a sequence of server-side delivery messages into
// one raw byte stream — the shape FetchResult reads off the session.
func fuzzResultWire(frames ...wireMsg) []byte {
	var raw []byte
	for _, fr := range frames {
		raw = appendFrame(raw, fr)
	}
	return raw
}

// rawConn reads r and discards what is written to it.
type rawConn struct{ io.Reader }

func (rawConn) Write(p []byte) (int, error) { return len(p), nil }

// wireRecipient is a recipient session that reads raw and discards what it
// writes.
func wireRecipient(t testing.TB, raw []byte) *ClientSession {
	t.Helper()
	_, opener, err := sessionSealers(nil, nil, nil, dirClient, dirServer)
	if err != nil {
		t.Fatal(err)
	}
	sess := newSession(rawConn{bytes.NewReader(raw)})
	sess.opener = opener
	return &ClientSession{sess: sess}
}

// TestResumeRefusesChangedSchema: a resumed stream appends to the rows the
// fetch already holds, so a begin frame naming another schema — even one of
// the same row size — is malformed framing, refused before any chunk.
func TestResumeRefusesChangedSchema(t *testing.T) {
	held := relation.MustSchema(relation.Attr{Name: "key", Type: relation.Int64})
	other := relation.MustSchema(relation.Attr{Name: "key", Type: relation.Float64})
	raw := fuzzResultWire(&resultBeginMsg{ContractID: "fz", Schema: toWire(other), StartChunk: 1, TotalChunks: 2, StreamRows: 1})
	f := &ResultFetch{Chunks: 1, Rows: relation.NewRelation(held)}
	if err := wireRecipient(t, raw).FetchResult(f); !errors.Is(err, ErrResultFrame) {
		t.Fatalf("resume under a changed schema: %v, want ErrResultFrame", err)
	}
}

// FuzzResultStream aims hostile bytes at the recipient side of streamed
// delivery: FetchResult reads a begin frame and then chunk and end frames
// from an attacker-controlled byte stream. Whatever arrives — truncated
// frames, lying body lengths, skewed resume offsets, chunk frames full of
// garbage ciphertext, frames that are neither chunk nor end — the fetch
// must terminate in an error without panicking, and the only way it may
// report success is a verified, completed stream (Done set, totals
// checked).
func FuzzResultStream(f *testing.F) {
	schema, err := relation.NewSchema(relation.Attr{Name: "key", Type: relation.Int64})
	if err != nil {
		f.Fatal(err)
	}
	begin := func(m resultBeginMsg) *resultBeginMsg { m.ContractID = "fz"; return &m }
	// Seeds straddle the interesting frontiers: an in-band failure verdict,
	// a valid empty stream, a resume-offset mismatch, a chunk of garbage
	// ciphertext, a frame that is neither chunk nor end, a begin frame
	// without a schema, a chunk whose header declares more body than
	// follows, one over the chunk cap, and plain rubble.
	f.Add(uint32(0), fuzzResultWire(begin(resultBeginMsg{Err: "join blew up"})))
	f.Add(uint32(0), fuzzResultWire(begin(resultBeginMsg{Schema: toWire(schema)}), &endMsg{}))
	f.Add(uint32(3), fuzzResultWire(begin(resultBeginMsg{Schema: toWire(schema), StartChunk: 1, TotalChunks: 4})))
	oneRow := begin(resultBeginMsg{Schema: toWire(schema), TotalChunks: 1, StreamRows: 1})
	f.Add(uint32(0), fuzzResultWire(oneRow, &chunkMsg{Rows: [][]byte{bytes.Repeat([]byte{3}, 40)}}))
	f.Add(uint32(0), fuzzResultWire(oneRow, &ackMsg{}))
	f.Add(uint32(0), fuzzResultWire(begin(resultBeginMsg{})))
	lying := fuzzResultWire(oneRow, &chunkMsg{Rows: [][]byte{bytes.Repeat([]byte{3}, 40)}})
	binary.BigEndian.PutUint32(lying[len(lying)-4-40-4-4-4:], 1000)
	f.Add(uint32(0), lying)
	f.Add(uint32(0), append(fuzzResultWire(oneRow), frameChunk, 0xff, 0xff, 0xff, 0xff))
	f.Add(uint32(1), []byte{0x42, 0x00, 0xff})
	f.Add(uint32(0), []byte{})

	f.Fuzz(func(t *testing.T, resume uint32, raw []byte) {
		fetch := &ResultFetch{Chunks: resume % 8}
		if err := wireRecipient(t, raw).FetchResult(fetch); err == nil {
			// The stream was admitted: that is only legitimate for a
			// completed, totals-verified fetch.
			if !fetch.Done {
				t.Fatal("fetch returned nil without completing")
			}
			if fetch.Rows == nil || fetch.Rows.Schema == nil {
				t.Fatal("completed fetch carries no rows of a schema")
			}
		}
	})
}
