package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"

	"ppj/internal/ocb"
	"ppj/internal/relation"
)

// ProtoVersion is the one wire protocol version served, carried in the
// hello: a provider's relation travels as a chunked stream — uploadBeginMsg,
// then fixed-budget uploadChunkMsg frames under a credit window, then
// uploadEndMsg — so server memory per connection is bounded by window ×
// chunk bytes, and the result travels back as the resumable chunk stream of
// result.go. (Versions 0 and 1, the one-shot upload and the one-shot
// delivery, are no longer spoken; Handshake refuses them.)
const ProtoVersion byte = 2

// ErrUnsupportedProto refuses a hello whose version byte is not
// ProtoVersion, before any attestation signing or key agreement.
var ErrUnsupportedProto = errors.New("service: unsupported protocol version")

const (
	// DefaultChunkRows is the producer's default chunk size in rows.
	DefaultChunkRows = 64
	// DefaultUploadWindow is the default credit window W: a provider may
	// have at most W unacknowledged chunks in flight, so the server never
	// buffers more than W·chunkBytes per connection.
	DefaultUploadWindow = 8
)

// Typed ingest errors. They are produced before a job leaves Uploading, so a
// refused upload never reaches a worker.
var (
	// ErrUploadTooLarge refuses an upload whose sealed bytes exceed the
	// configured budget, or whose stream carries more rows than its begin
	// frame declared (a lie upward past the admitted size).
	ErrUploadTooLarge = errors.New("service: upload exceeds size limit")
	// ErrUploadTruncated reports a stream that ended before delivering the
	// declared rows: an early EOF, a stall past the upload deadline, or an
	// end frame closing short of the begin frame's declaration.
	ErrUploadTruncated = errors.New("service: upload truncated")
	// ErrUploadFrame reports malformed chunk framing: out-of-order,
	// duplicated or replayed sequence numbers, a broken running CRC, or a
	// frame that is neither chunk nor end.
	ErrUploadFrame = errors.New("service: malformed upload frame")
)

// crcTable is the Castagnoli table the running upload CRC chains over.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// wireCRC is a running CRC as it travels in a frame: four bytes whatever
// its value. gob's own unsigned encoding drops leading zero bytes, so one
// CRC in 256 would shorten its frame by a byte — and the size of every
// write on a session must be a function of public sizes only (the delivery
// invariance tests compare write sizes across runs).
type wireCRC uint32

// GobEncode implements gob.GobEncoder.
func (c wireCRC) GobEncode() ([]byte, error) {
	return binary.BigEndian.AppendUint32(nil, uint32(c)), nil
}

// GobDecode implements gob.GobDecoder.
func (c *wireCRC) GobDecode(b []byte) error {
	if len(b) != 4 {
		return fmt.Errorf("service: frame CRC is %d bytes, want 4", len(b))
	}
	*c = wireCRC(binary.BigEndian.Uint32(b))
	return nil
}

// minSealedRowBytes is the smallest wire size of one sealed row: nonce and
// tag plus at least one plaintext byte (every row carries the contract-ID
// prefix). Used to refuse impossible begin declarations before any chunk is
// read.
const minSealedRowBytes = int64(ocb.NonceSize + ocb.TagSize + 1)

// --- Wire frames (gob-encoded over the session connection) ---

// uploadBeginMsg opens a chunked upload: the contract binding and schema —
// checked before the first chunk is read — and the declared row count the
// stream commits to.
type uploadBeginMsg struct {
	ContractID   string
	Schema       schemaWire
	DeclaredRows int64
}

// uploadChunkMsg carries one chunk of sealed rows. Seq is the 0-based chunk
// sequence number; CRC is the running Castagnoli CRC over every sealed row
// byte up to and including this chunk, chaining the frames together so a
// dropped, duplicated or reordered chunk is caught before any row is opened.
type uploadChunkMsg struct {
	Seq  uint32
	Rows [][]byte
	CRC  wireCRC
}

// uploadEndMsg closes the stream with the totals the receiver must agree
// with: frame count, row count, and the final running CRC.
type uploadEndMsg struct {
	Frames uint32
	Rows   int64
	CRC    wireCRC
}

// uploadFrameMsg is the stream envelope: exactly one of Chunk or End is set.
// (gob needs a single concrete type per Decode; the envelope keeps the
// frame stream self-describing.)
type uploadFrameMsg struct {
	Chunk *uploadChunkMsg
	End   *uploadEndMsg
}

// uploadAckMsg flows server → provider. The first ack after the begin frame
// is the credit grant (Window = W); each later ack reports the cumulative
// count of consumed chunks, returning credit. Done confirms a completed
// upload; a non-empty Err refuses the stream with the server's verdict so
// the producer fails fast instead of pushing rows at a dead session.
type uploadAckMsg struct {
	Seq    uint32
	Window int
	Done   bool
	Err    string
}

// --- Framing state machine ---

// chunkAssembler validates the chunk framing of one upload stream: strict
// sequence numbers, the running CRC chain, the byte budget, and the
// declared-vs-actual row accounting. It is deliberately crypto-free and
// I/O-free so the fuzzer can drive it directly; the consumer feeds it frames
// in arrival order and opens rows only after a chunk passes.
type chunkAssembler struct {
	declared int64 // rows the begin frame committed to
	maxBytes int64 // sealed-byte budget; 0 = unbounded
	next     uint32
	rows     int64
	bytes    int64
	crc      uint32
	done     bool
}

// newChunkAssembler starts the state machine for a validated begin frame.
func newChunkAssembler(declaredRows, maxBytes int64) (*chunkAssembler, error) {
	if declaredRows < 0 {
		return nil, fmt.Errorf("%w: negative declared row count %d", ErrUploadFrame, declaredRows)
	}
	if maxBytes > 0 && declaredRows > maxBytes/minSealedRowBytes {
		return nil, fmt.Errorf("%w: %d declared rows cannot fit %d bytes", ErrUploadTooLarge, declaredRows, maxBytes)
	}
	return &chunkAssembler{declared: declaredRows, maxBytes: maxBytes}, nil
}

// chunk admits one chunk frame. On nil error the caller may open and append
// the chunk's rows; any error terminates the stream.
func (a *chunkAssembler) chunk(c *uploadChunkMsg) error {
	if a.done {
		return fmt.Errorf("%w: chunk %d after end frame", ErrUploadFrame, c.Seq)
	}
	if c.Seq != a.next {
		return fmt.Errorf("%w: chunk seq %d, want %d (duplicated, dropped or reordered frame)", ErrUploadFrame, c.Seq, a.next)
	}
	if len(c.Rows) == 0 {
		return fmt.Errorf("%w: chunk %d carries no rows", ErrUploadFrame, c.Seq)
	}
	for _, row := range c.Rows {
		a.bytes += int64(len(row))
		a.crc = crc32.Update(a.crc, crcTable, row)
	}
	a.rows += int64(len(c.Rows))
	if a.rows > a.declared {
		return fmt.Errorf("%w: %d rows exceed the %d declared", ErrUploadTooLarge, a.rows, a.declared)
	}
	if a.maxBytes > 0 && a.bytes > a.maxBytes {
		return fmt.Errorf("%w: %d sealed bytes exceed the %d-byte budget", ErrUploadTooLarge, a.bytes, a.maxBytes)
	}
	if uint32(c.CRC) != a.crc {
		return fmt.Errorf("%w: chunk %d running CRC %08x, want %08x", ErrUploadFrame, c.Seq, c.CRC, a.crc)
	}
	a.next++
	return nil
}

// end closes the stream, checking the end frame's totals against what
// actually arrived and the actual rows against the declaration.
func (a *chunkAssembler) end(e *uploadEndMsg) error {
	if a.done {
		return fmt.Errorf("%w: second end frame", ErrUploadFrame)
	}
	if e.Frames != a.next {
		return fmt.Errorf("%w: end frame counts %d chunks, received %d", ErrUploadFrame, e.Frames, a.next)
	}
	if e.Rows != a.rows {
		return fmt.Errorf("%w: end frame counts %d rows, received %d", ErrUploadFrame, e.Rows, a.rows)
	}
	if uint32(e.CRC) != a.crc {
		return fmt.Errorf("%w: final CRC %08x, want %08x", ErrUploadFrame, e.CRC, a.crc)
	}
	if a.rows < a.declared {
		return fmt.Errorf("%w: stream ended after %d of %d declared rows", ErrUploadTruncated, a.rows, a.declared)
	}
	a.done = true
	return nil
}

// --- Producer-side framing ---

// chunker emits the frames of one upload stream, maintaining the running
// CRC and sequence numbering the assembler verifies.
type chunker struct {
	seq uint32
	crc uint32
}

// frame wraps one chunk of sealed rows.
func (c *chunker) frame(rows [][]byte) *uploadChunkMsg {
	for _, r := range rows {
		c.crc = crc32.Update(c.crc, crcTable, r)
	}
	m := &uploadChunkMsg{Seq: c.seq, Rows: rows, CRC: wireCRC(c.crc)}
	c.seq++
	return m
}

// endFrame closes the stream.
func (c *chunker) endFrame(rows int64) *uploadEndMsg {
	return &uploadEndMsg{Frames: c.seq, Rows: rows, CRC: wireCRC(c.crc)}
}

// ackTracker accumulates the producer's view of the ack stream. A dedicated
// reader goroutine (run) decodes acks off the wire and publishes cumulative
// credit under the lock; the producer waits on the condition variable for
// the grant, for window credit, and for the final confirmation. The reader
// itself never blocks on anything but the wire, so the server's ack writes
// always find a consumer — the invariant that keeps a fully synchronous
// transport (net.Pipe) deadlock-free.
type ackTracker struct {
	mu      sync.Mutex
	cond    *sync.Cond
	seq     uint32 // cumulative chunks the server has consumed
	window  int    // granted credit window (meaningful once granted)
	granted bool
	done    bool
	err     error
}

func newAckTracker() *ackTracker {
	st := &ackTracker{}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// run decodes acks until the stream terminates (confirmation, refusal, or a
// dead wire), publishing each under the lock. If the producer abandons the
// stream first, the reader stays blocked on the decoder until the caller
// closes the connection — the session is not reusable after a failed upload.
func (st *ackTracker) run(dec *gob.Decoder) {
	for {
		var a uploadAckMsg
		err := dec.Decode(&a)
		if st.publish(a, err, "upload") {
			return
		}
	}
}

// waitGrant blocks until the server grants credit or refuses the stream.
func (st *ackTracker) waitGrant() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for !st.granted && st.err == nil {
		st.cond.Wait()
	}
	return st.err
}

// waitCredit blocks until the window admits chunk seq (fewer than W chunks
// unacknowledged), or the stream has died.
func (st *ackTracker) waitCredit(seq uint32) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.err == nil && int(seq)-int(st.seq) >= st.window {
		st.cond.Wait()
	}
	return st.err
}

// waitDone blocks until the server confirms the completed upload.
func (st *ackTracker) waitDone() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.err == nil && !st.done {
		st.cond.Wait()
	}
	return st.err
}

// --- Server-side incremental consumer ---

// decodedFrame is one message pulled off the wire by the reader goroutine.
type decodedFrame struct {
	begin *uploadBeginMsg
	chunk *uploadChunkMsg
	end   *uploadEndMsg
	err   error
}

// mapDecodeErr classifies a wire decode failure: a vanished peer is a
// truncated stream, anything else is malformed framing.
func mapDecodeErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("%w: %v", ErrUploadTruncated, err)
	}
	return fmt.Errorf("%w: %v", ErrUploadFrame, err)
}

// readUploadFrames decodes the begin frame and then the chunk/end envelope
// stream, handing each to the consumer. It runs in its own goroutine so the
// consumer can abandon a stalled stream on context expiry; quit unblocks it
// if the consumer exits first (the decoder itself unblocks when the caller
// closes the connection).
func readUploadFrames(sess *Session, frames chan<- decodedFrame, quit <-chan struct{}) {
	send := func(d decodedFrame) bool {
		select {
		case frames <- d:
			return true
		case <-quit:
			return false
		}
	}
	var begin uploadBeginMsg
	if err := sess.dec.Decode(&begin); err != nil {
		send(decodedFrame{err: mapDecodeErr(err)})
		return
	}
	if !send(decodedFrame{begin: &begin}) {
		return
	}
	for {
		// A fresh envelope per decode: gob omits zero fields, so reusing one
		// would leak the previous frame's pointers into the next.
		var f uploadFrameMsg
		if err := sess.dec.Decode(&f); err != nil {
			send(decodedFrame{err: mapDecodeErr(err)})
			return
		}
		switch {
		case f.Chunk != nil && f.End == nil:
			if !send(decodedFrame{chunk: f.Chunk}) {
				return
			}
		case f.End != nil && f.Chunk == nil:
			send(decodedFrame{end: f.End})
			return
		default:
			send(decodedFrame{err: fmt.Errorf("%w: envelope must carry exactly one of chunk or end", ErrUploadFrame)})
			return
		}
	}
}

// uploadWindow resolves the credit window this service grants.
func (s *Service) uploadWindow() int {
	if s.UploadWindow > 0 {
		return s.UploadWindow
	}
	return DefaultUploadWindow
}

// receiveChunked ingests one upload stream: contract and schema are
// checked at the begin frame before any chunk is read, then rows are opened,
// contract-bound and appended chunk by chunk, with a cumulative ack after
// each consumed chunk returning window credit to the producer. The server
// holds at most one chunk of sealed rows at a time; the credit window bounds
// what the transport can pile up behind it. A context that expires
// mid-stream abandons the upload as truncated.
func (s *Service) receiveChunked(ctx context.Context, sess *Session) (*relation.Relation, error) {
	quit := make(chan struct{})
	defer close(quit)
	frames := make(chan decodedFrame)
	go readUploadFrames(sess, frames, quit)

	next := func() (decodedFrame, error) {
		select {
		case d := <-frames:
			return d, d.err
		case <-ctx.Done():
			return decodedFrame{}, fmt.Errorf("%w: %v", ErrUploadTruncated, ctx.Err())
		}
	}
	// nack tells the producer why the stream died (best effort — the peer
	// may already be gone) and returns the verdict.
	nack := func(err error) error {
		_ = sess.enc.Encode(uploadAckMsg{Err: err.Error()})
		return err
	}

	d, err := next()
	if err != nil {
		return nil, nack(err)
	}
	begin := d.begin
	if begin == nil {
		return nil, nack(fmt.Errorf("%w: stream must open with a begin frame", ErrUploadFrame))
	}
	if begin.ContractID != s.Contract.ID {
		return nil, nack(fmt.Errorf("upload for foreign contract %q", begin.ContractID))
	}
	schema, err := begin.Schema.schema()
	if err != nil {
		return nil, nack(err)
	}
	asm, err := newChunkAssembler(begin.DeclaredRows, s.MaxUploadBytes)
	if err != nil {
		return nil, nack(err)
	}
	window := s.uploadWindow()
	if err := sess.enc.Encode(uploadAckMsg{Seq: 0, Window: window}); err != nil {
		return nil, fmt.Errorf("%w: sending credit grant: %v", ErrUploadTruncated, err)
	}

	rel := relation.NewRelation(schema)
	for {
		d, err := next()
		if err != nil {
			return nil, nack(err)
		}
		switch {
		case d.chunk != nil:
			if s.chunkConsumeHook != nil {
				s.chunkConsumeHook(int(d.chunk.Seq))
			}
			if err := asm.chunk(d.chunk); err != nil {
				return nil, nack(err)
			}
			if err := appendSealedRows(sess, s.Contract.ID, rel, d.chunk.Rows); err != nil {
				return nil, nack(err)
			}
			// Cumulative ack: credit returns only after the rows are opened
			// and appended, so a slow consumer throttles the producer.
			_ = sess.enc.Encode(uploadAckMsg{Seq: asm.next, Window: window})
		case d.end != nil:
			if err := asm.end(d.end); err != nil {
				return nil, nack(err)
			}
			_ = sess.enc.Encode(uploadAckMsg{Seq: asm.next, Window: window, Done: true})
			return rel, nil
		default:
			return nil, nack(fmt.Errorf("%w: empty frame", ErrUploadFrame))
		}
	}
}

// appendSealedRows is the row-validation core of ingest: every sealed row
// is opened with the session key inside T, checked for the contract binding
// ("Each party prepends its relation with the contract ID and encrypts the
// two together as one message", §3.3.3 — here per row, binding every
// ciphertext to the contract), decoded against the schema, and appended.
func appendSealedRows(sess *Session, contractID string, rel *relation.Relation, rows [][]byte) error {
	prefix := []byte(contractID)
	base := rel.Len()
	for i, ct := range rows {
		pt, err := sess.opener.open(ct)
		if err != nil {
			return fmt.Errorf("row %d: %w", base+i, err)
		}
		if !bytes.HasPrefix(pt, prefix) {
			return fmt.Errorf("row %d not bound to contract", base+i)
		}
		row, err := rel.Schema.Decode(pt[len(prefix):])
		if err != nil {
			return fmt.Errorf("row %d: %w", base+i, err)
		}
		if err := rel.Append(row); err != nil {
			return err
		}
	}
	return nil
}
