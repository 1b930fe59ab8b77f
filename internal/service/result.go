package service

import (
	"encoding/gob"
	"errors"
	"fmt"

	"ppj/internal/core"
	"ppj/internal/relation"
)

// Result delivery mirrors the chunked upload protocol on the way out: the
// server streams resultBeginMsg, then fixed-size resultChunkMsg frames
// chained by a running CRC-32C under a recipient-granted credit window,
// then resultEndMsg with the totals, so the host never holds the whole
// sealed result for the slowest reader. The hello carries a resume offset
// in whole chunks, so a recipient can disconnect — or outlive a server
// restart — and re-fetch only what it is missing; rows are re-sealed under
// the new session key, and the byte identity the property tests pin is of
// the reassembled plaintext.

const (
	// ResultChunkRows is the fixed rows-per-chunk of streamed delivery. It
	// is deliberately not negotiable: the chunk sequence of a delivery must
	// be a function of public sizes only (chunk count = ceil(rows/64)), so
	// framing can never leak anything content-dependent, and a resume
	// offset recorded against one connection means the same rows on the
	// next.
	ResultChunkRows = DefaultChunkRows
	// DefaultResultWindow is the credit window a recipient grants the
	// server: at most W unacknowledged chunks in flight, bounding what a
	// slow recipient forces the transport to buffer.
	DefaultResultWindow = 8
)

// Typed delivery errors, the outbound mirror of the upload verdicts.
var (
	// ErrResultFrame reports malformed result framing: out-of-order or
	// replayed sequence numbers, a broken CRC chain, an envelope carrying
	// neither chunk nor end.
	ErrResultFrame = errors.New("service: malformed result frame")
	// ErrResultTruncated reports a result stream that died before the end
	// frame — the peer vanished or the connection broke. The fetch is
	// resumable from ResultFetch.Chunks.
	ErrResultTruncated = errors.New("service: result stream truncated")
	// ErrFetchPaused reports a fetch deliberately stopped after
	// ResultFetch.PauseAfter chunks; reconnect with the fetch's Chunks
	// offset to continue.
	ErrFetchPaused = errors.New("service: result fetch paused")
)

// --- Wire frames (gob-encoded over the session connection) ---

// resultBeginMsg opens a streamed delivery: the contract binding, the
// result schema, the aggregate or failure verdict when there are no rows
// to stream, and the stream geometry — total chunks and rows of the whole
// result, the resume offset the server honoured, and the rows this stream
// will actually carry (the assembler's declaration).
type resultBeginMsg struct {
	ContractID string
	Schema     schemaWire
	Padded     bool
	// Agg is the sealed aggregate cell for "aggregate" contracts; such a
	// delivery streams zero chunks.
	Agg []byte
	// Err is the join failure verdict; nothing follows a non-empty Err.
	Err string
	// TotalChunks and TotalRows describe the complete result.
	TotalChunks uint32
	TotalRows   int64
	// StartChunk is the resume offset this stream starts at (0 on a fresh
	// fetch); chunk sequence numbers on the wire are relative to it.
	StartChunk uint32
	// StreamRows is the row count this stream declares, i.e. the rows of
	// chunks StartChunk..TotalChunks.
	StreamRows int64
}

// resultChunkMsg carries one chunk of rows sealed under the recipient's
// session key. Seq is 0-based relative to the begin frame's StartChunk;
// CRC is the running Castagnoli CRC over every sealed row byte of this
// stream so far — the same chaining as the upload path, restarted per
// stream because rows are re-sealed per session.
type resultChunkMsg struct {
	Seq  uint32
	Rows [][]byte
	CRC  wireCRC
}

// resultEndMsg closes the stream with the totals the recipient must agree
// with.
type resultEndMsg struct {
	Frames uint32
	Rows   int64
	CRC    wireCRC
}

// resultFrameMsg is the stream envelope: exactly one of Chunk or End set.
type resultFrameMsg struct {
	Chunk *resultChunkMsg
	End   *resultEndMsg
}

// resultAckMsg flows recipient → server. The first ack after the begin
// frame is the credit grant; later acks report the cumulative count of
// consumed chunks. Done confirms the completed fetch; a non-empty Err
// aborts the stream with the recipient's verdict.
type resultAckMsg struct {
	Seq    uint32
	Window int
	Done   bool
	Err    string
}

// publish folds one decoded ack (or its decode error) into the tracker,
// waking waiters; it returns true when the stream is terminal. Shared by
// the upload ack reader and the result ack reader — the credit protocol is
// identical in both directions.
func (st *ackTracker) publish(a uploadAckMsg, err error, what string) bool {
	st.mu.Lock()
	switch {
	case err != nil:
		st.err = fmt.Errorf("service: reading %s ack: %w", what, err)
	case a.Err != "":
		st.err = fmt.Errorf("service: %s refused: %s", what, a.Err)
	default:
		if !st.granted {
			st.granted = true
			st.window = a.Window
			if st.window < 1 {
				st.window = 1
			}
		}
		if a.Seq > st.seq {
			st.seq = a.Seq
		}
		if a.Done {
			st.done = true
		}
	}
	terminal := st.err != nil || st.done
	st.cond.Broadcast()
	st.mu.Unlock()
	return terminal
}

// runResult decodes result acks until the stream terminates, publishing
// each — the server-side twin of the upload ack reader, and under the same
// invariant: never stop consuming the wire, so the recipient's ack writes
// always find a reader even on a fully synchronous transport.
func (st *ackTracker) runResult(dec *gob.Decoder) {
	for {
		var a resultAckMsg
		err := dec.Decode(&a)
		if st.publish(uploadAckMsg{Seq: a.Seq, Window: a.Window, Done: a.Done, Err: a.Err}, err, "delivery") {
			return
		}
	}
}

// mapResultDecodeErr classifies a wire decode failure on the result
// stream: a vanished peer is a truncated (resumable) stream, anything else
// is malformed framing.
func mapResultDecodeErr(err error) error {
	if errors.Is(mapDecodeErr(err), ErrUploadTruncated) {
		return fmt.Errorf("%w: %v", ErrResultTruncated, err)
	}
	return fmt.Errorf("%w: %v", ErrResultFrame, err)
}

// DeliverStream seals an outcome under a recipient session and streams it
// from startChunk: begin frame, credit grant, chunk frames under the
// window, end frame, done ack. Failure verdicts and aggregate results
// travel in the begin frame (zero chunks follow an aggregate; nothing
// follows a failure). Rows are re-sealed per session, so a resumed stream
// is fresh ciphertext over the same plaintext suffix.
func (s *Service) DeliverStream(sess *Session, out Outcome, startChunk uint32) error {
	begin := resultBeginMsg{ContractID: s.Contract.ID, Padded: out.Padded}
	if out.Err != nil {
		begin.Err = out.Err.Error()
		if err := sess.enc.Encode(begin); err != nil {
			return fmt.Errorf("service: sending result begin: %w", err)
		}
		return nil // the verdict is the delivery
	}
	total := uint32((len(out.Rows) + ResultChunkRows - 1) / ResultChunkRows)
	if startChunk > total {
		begin.Err = fmt.Sprintf("resume offset %d beyond the result's %d chunks", startChunk, total)
		_ = sess.enc.Encode(begin)
		return fmt.Errorf("service: %s", begin.Err)
	}
	if out.Agg != nil {
		begin.Agg = sess.sealer.seal(out.Agg)
	} else {
		begin.Schema = toWire(out.Schema)
	}
	// startChunk == total is a legal resume point (every chunk consumed,
	// end frame lost); with a partial last chunk the row offset must clamp
	// to the row count or the declared stream length goes negative.
	startRow := int(startChunk) * ResultChunkRows
	if startRow > len(out.Rows) {
		startRow = len(out.Rows)
	}
	begin.TotalChunks = total
	begin.TotalRows = int64(len(out.Rows))
	begin.StartChunk = startChunk
	begin.StreamRows = int64(len(out.Rows) - startRow)
	if err := sess.enc.Encode(begin); err != nil {
		return fmt.Errorf("service: sending result begin: %w", err)
	}

	st := newAckTracker()
	go st.runResult(sess.dec)
	if err := st.waitGrant(); err != nil {
		return err
	}
	var ck chunker
	for off := startRow; off < len(out.Rows); off += ResultChunkRows {
		if err := st.waitCredit(ck.seq); err != nil {
			return err
		}
		hi := off + ResultChunkRows
		if hi > len(out.Rows) {
			hi = len(out.Rows)
		}
		sealed := make([][]byte, 0, hi-off)
		for _, r := range out.Rows[off:hi] {
			sealed = append(sealed, sess.sealer.seal(r))
		}
		c := ck.frame(sealed)
		if err := sess.enc.Encode(resultFrameMsg{Chunk: &resultChunkMsg{Seq: c.Seq, Rows: c.Rows, CRC: c.CRC}}); err != nil {
			return fmt.Errorf("service: sending result chunk %d: %w", c.Seq, err)
		}
	}
	e := ck.endFrame(begin.StreamRows)
	if err := sess.enc.Encode(resultFrameMsg{End: &resultEndMsg{Frames: e.Frames, Rows: e.Rows, CRC: e.CRC}}); err != nil {
		return fmt.Errorf("service: sending result end: %w", err)
	}
	return st.waitDone()
}

// ResultFetch accumulates one recipient's fetch of a result across any
// number of connections. Zero value starts a fresh fetch; after a broken
// or paused stream, reconnect with ConnectContractResume(..., f.Chunks)
// and call FetchResult with the same value to fetch only the remainder.
type ResultFetch struct {
	// Chunks counts whole result chunks consumed so far — the resume
	// offset to put in the next hello.
	Chunks uint32
	// Rows accumulates the decrypted, decoy-filtered join rows.
	Rows *relation.Relation
	// Agg holds the aggregate outcome once an "aggregate" contract's
	// delivery completes.
	Agg *AggOutcome
	// Done reports that the end frame was verified and acknowledged.
	Done bool
	// PauseAfter, when positive, stops the fetch with ErrFetchPaused after
	// that many additional chunks, leaving it resumable — the deliberate
	// disconnect the resume tests drive, usable by real clients as a flow
	// valve.
	PauseAfter uint32
}

// FetchResult runs the recipient side of one streamed delivery: read the
// begin frame, grant credit, verify and decrypt each chunk against the
// running CRC chain, acknowledge it, and verify the end totals. The fetch
// state lands in f.
func (cs *ClientSession) FetchResult(f *ResultFetch) error {
	sess := cs.sess
	var begin resultBeginMsg
	if err := sess.dec.Decode(&begin); err != nil {
		return mapResultDecodeErr(err)
	}
	if begin.Err != "" {
		return fmt.Errorf("service: join failed: %s", begin.Err)
	}
	if begin.StartChunk != f.Chunks {
		return fmt.Errorf("%w: server resumed at chunk %d, want %d", ErrResultFrame, begin.StartChunk, f.Chunks)
	}
	var schema *relation.Schema
	if begin.Agg != nil {
		cell, err := sess.opener.open(begin.Agg)
		if err != nil {
			return fmt.Errorf("service: aggregate cell: %w", err)
		}
		agg, err := decodeAggCell(cell)
		if err != nil {
			return err
		}
		f.Agg = &agg
	} else {
		var err error
		schema, err = begin.Schema.schema()
		if err != nil {
			return err
		}
		if f.Rows == nil {
			f.Rows = relation.NewRelation(schema)
		}
	}
	asm, err := newChunkAssembler(begin.StreamRows, 0)
	if err != nil {
		return err
	}
	// nack tells the server why the fetch died (best effort) and returns
	// the verdict.
	nack := func(err error) error {
		_ = sess.enc.Encode(resultAckMsg{Err: err.Error()})
		return err
	}
	// The grant: the server streams nothing until the recipient commits to
	// consuming.
	if err := sess.enc.Encode(resultAckMsg{Window: DefaultResultWindow}); err != nil {
		return fmt.Errorf("%w: sending credit grant: %v", ErrResultTruncated, err)
	}
	var fetched uint32
	for {
		// Fresh envelope per decode: gob omits zero fields, so a reused one
		// would leak the previous frame's pointers into the next.
		var frame resultFrameMsg
		if err := sess.dec.Decode(&frame); err != nil {
			return mapResultDecodeErr(err)
		}
		switch {
		case frame.Chunk != nil && frame.End == nil:
			if schema == nil {
				return nack(fmt.Errorf("%w: chunk frame on an aggregate delivery", ErrResultFrame))
			}
			c := uploadChunkMsg{Seq: frame.Chunk.Seq, Rows: frame.Chunk.Rows, CRC: frame.Chunk.CRC}
			if err := asm.chunk(&c); err != nil {
				return nack(resultVerdict(err))
			}
			for i, ct := range frame.Chunk.Rows {
				cell, err := sess.opener.open(ct)
				if err != nil {
					return nack(fmt.Errorf("service: result row %d: %w", i, err))
				}
				if !core.IsReal(cell) {
					continue // decoy: "decrypted and filtered out by the recipient" (§4.3)
				}
				row, err := schema.Decode(core.Payload(cell))
				if err != nil {
					return nack(fmt.Errorf("service: result row %d: %w", i, err))
				}
				if err := f.Rows.Append(row); err != nil {
					return nack(err)
				}
			}
			f.Chunks = begin.StartChunk + asm.next
			fetched++
			_ = sess.enc.Encode(resultAckMsg{Seq: asm.next, Window: DefaultResultWindow})
			if f.PauseAfter > 0 && fetched >= f.PauseAfter && f.Chunks < begin.TotalChunks {
				return ErrFetchPaused
			}
		case frame.End != nil && frame.Chunk == nil:
			e := uploadEndMsg{Frames: frame.End.Frames, Rows: frame.End.Rows, CRC: frame.End.CRC}
			if err := asm.end(&e); err != nil {
				return nack(resultVerdict(err))
			}
			_ = sess.enc.Encode(resultAckMsg{Seq: asm.next, Done: true})
			f.Chunks = begin.TotalChunks
			f.Done = true
			return nil
		default:
			return nack(fmt.Errorf("%w: envelope must carry exactly one of chunk or end", ErrResultFrame))
		}
	}
}

// resultVerdict maps the shared assembler's upload-typed verdicts onto the
// result-stream sentinels, so callers match on delivery errors without
// knowing the state machine is shared.
func resultVerdict(err error) error {
	switch {
	case errors.Is(err, ErrUploadFrame), errors.Is(err, ErrUploadTooLarge):
		return fmt.Errorf("%w: %v", ErrResultFrame, err)
	case errors.Is(err, ErrUploadTruncated):
		return fmt.Errorf("%w: %v", ErrResultTruncated, err)
	}
	return err
}
