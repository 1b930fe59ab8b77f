package service

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"testing"

	"ppj/internal/relation"
)

// fuzzResultWire gob-encodes a sequence of server-side delivery frames into
// one raw byte stream — the shape FetchResult reads off the session.
func fuzzResultWire(t testing.TB, frames ...interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, fr := range frames {
		if err := enc.Encode(fr); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// wireRecipient is a recipient session that reads raw and discards what it
// writes.
func wireRecipient(t testing.TB, raw []byte) *ClientSession {
	t.Helper()
	_, opener, err := sessionSealers(nil, nil, nil, dirClient, dirServer)
	if err != nil {
		t.Fatal(err)
	}
	return &ClientSession{sess: &Session{
		enc:    gob.NewEncoder(io.Discard),
		dec:    gob.NewDecoder(bytes.NewReader(raw)),
		opener: opener,
	}}
}

// TestResumeRefusesChangedSchema: a resumed stream appends to the rows the
// fetch already holds, so a begin frame naming another schema — even one of
// the same row size — is malformed framing, refused before any chunk.
func TestResumeRefusesChangedSchema(t *testing.T) {
	held := relation.MustSchema(relation.Attr{Name: "key", Type: relation.Int64})
	other := relation.MustSchema(relation.Attr{Name: "key", Type: relation.Float64})
	raw := fuzzResultWire(t, resultBeginMsg{ContractID: "fz", Schema: toWire(other), StartChunk: 1, TotalChunks: 2, StreamRows: 1})
	f := &ResultFetch{Chunks: 1, Rows: relation.NewRelation(held)}
	if err := wireRecipient(t, raw).FetchResult(f); !errors.Is(err, ErrResultFrame) {
		t.Fatalf("resume under a changed schema: %v, want ErrResultFrame", err)
	}
}

// FuzzResultStream aims hostile bytes at the recipient side of streamed
// delivery: FetchResult decodes a begin frame and then chunk/end envelopes
// from an attacker-controlled gob stream. Whatever arrives — truncated
// gobs, skewed resume offsets, chunk frames full of garbage ciphertext,
// envelopes carrying both or neither of chunk and end — the fetch must
// terminate in an error without panicking, and the only way it may report
// success is a verified, completed stream (Done set, totals checked).
func FuzzResultStream(f *testing.F) {
	schema, err := relation.NewSchema(relation.Attr{Name: "key", Type: relation.Int64})
	if err != nil {
		f.Fatal(err)
	}
	// Seeds straddle the interesting frontiers: an in-band failure verdict,
	// a valid empty stream, a resume-offset mismatch, a chunk of garbage
	// ciphertext, a malformed envelope, a begin frame without a schema, and
	// plain gob rubble.
	f.Add(uint32(0), fuzzResultWire(f, resultBeginMsg{ContractID: "fz", Err: "join blew up"}))
	f.Add(uint32(0), fuzzResultWire(f,
		resultBeginMsg{ContractID: "fz", Schema: toWire(schema)},
		frameMsg{End: &endMsg{}}))
	f.Add(uint32(3), fuzzResultWire(f, resultBeginMsg{ContractID: "fz", Schema: toWire(schema), StartChunk: 1, TotalChunks: 4}))
	f.Add(uint32(0), fuzzResultWire(f,
		resultBeginMsg{ContractID: "fz", Schema: toWire(schema), TotalChunks: 1, StreamRows: 1},
		frameMsg{Chunk: &chunkMsg{Rows: [][]byte{{1, 2, 3}}}}))
	f.Add(uint32(0), fuzzResultWire(f,
		resultBeginMsg{ContractID: "fz", Schema: toWire(schema), TotalChunks: 1, StreamRows: 1},
		frameMsg{}))
	f.Add(uint32(0), fuzzResultWire(f, resultBeginMsg{ContractID: "fz"}))
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
