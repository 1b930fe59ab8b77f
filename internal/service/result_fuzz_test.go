package service

import (
	"bytes"
	"encoding/gob"
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
	// ciphertext, a malformed envelope, and plain gob rubble.
	f.Add(uint32(0), fuzzResultWire(f, resultBeginMsg{ContractID: "fz", Err: "join blew up"}))
	f.Add(uint32(0), fuzzResultWire(f,
		resultBeginMsg{ContractID: "fz", Schema: toWire(schema)},
		frameMsg{End: &endMsg{}}))
	f.Add(uint32(3), fuzzResultWire(f, resultBeginMsg{ContractID: "fz", Schema: toWire(schema), StartChunk: 1, TotalChunks: 4}))
	f.Add(uint32(0), fuzzResultWire(f,
		resultBeginMsg{ContractID: "fz", Schema: toWire(schema), TotalChunks: 1, TotalRows: 1, StreamRows: 1},
		frameMsg{Chunk: &chunkMsg{Rows: [][]byte{{1, 2, 3}}}}))
	f.Add(uint32(0), fuzzResultWire(f,
		resultBeginMsg{ContractID: "fz", Schema: toWire(schema), TotalChunks: 1, TotalRows: 1, StreamRows: 1},
		frameMsg{}))
	f.Add(uint32(0), fuzzResultWire(f, resultBeginMsg{ContractID: "fz", Agg: []byte{0xde, 0xad}}))
	f.Add(uint32(1), []byte{0x42, 0x00, 0xff})
	f.Add(uint32(0), []byte{})

	f.Fuzz(func(t *testing.T, resume uint32, raw []byte) {
		_, opener, err := sessionSealers(nil, nil, nil, dirClient, dirServer)
		if err != nil {
			t.Fatal(err)
		}
		sess := &Session{
			enc:    gob.NewEncoder(io.Discard),
			dec:    gob.NewDecoder(bytes.NewReader(raw)),
			opener: opener,
		}
		cs := &ClientSession{sess: sess}
		fetch := &ResultFetch{Chunks: resume % 8}
		if err := cs.FetchResult(fetch); err == nil {
			// The stream was admitted: that is only legitimate for a
			// completed, totals-verified fetch.
			if !fetch.Done {
				t.Fatal("fetch returned nil without completing")
			}
			if fetch.Agg == nil && fetch.Rows == nil {
				t.Fatal("completed fetch carries neither rows nor aggregate")
			}
		}
	})
}
