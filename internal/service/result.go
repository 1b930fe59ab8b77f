package service

import (
	"errors"
	"fmt"

	"ppj/internal/core"
	"ppj/internal/relation"
)

// Result delivery is the chunk stream of stream.go run outward: the server
// sends resultBeginMsg, then the result in fixed 64-row chunks under a
// recipient-granted credit window, so the host never holds the whole sealed
// result for the slowest reader. The hello carries a resume offset in
// whole chunks, so a recipient can disconnect — or outlive a server
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

// Typed delivery errors: the verdicts of the chunk stream's receiver when
// the recipient is the one receiving.
var (
	// ErrResultFrame reports malformed result framing: out-of-order or
	// replayed sequence numbers, a frame that is neither chunk nor end;
	// or a sealed row that fails to open, which also matches
	// sim.ErrTamper.
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

// resultBeginMsg opens a streamed delivery: the contract binding, the
// result schema, the failure verdict when there are no rows to stream, and
// the stream geometry — total chunks of the whole result, the resume
// offset the server honoured, and the rows this stream will actually carry
// (the assembler's declaration). An aggregate's result is one row of
// core.AggSchema, delivered like any other. The host relays the frame
// unsealed; every row's associated data and the end frame's tag carry its
// digest.
type resultBeginMsg struct {
	ContractID string
	Schema     schemaWire
	// Err is the join failure verdict. A stream under a non-empty Err
	// carries no rows: only its end frame, whose tag vouches for the
	// verdict.
	Err string
	// TotalChunks counts the chunks of the complete result.
	TotalChunks uint32
	// StartChunk is the resume offset this stream starts at (0 on a fresh
	// fetch); chunk sequence numbers on the wire are relative to it.
	StartChunk uint32
	// StreamRows is the row count this stream declares, i.e. the rows of
	// chunks StartChunk..TotalChunks.
	StreamRows int64
}

func (b *resultBeginMsg) digest() []byte {
	f := beginDigest("result", b.ContractID, b.Schema)
	f.str(b.Err)
	f.u64(uint64(b.TotalChunks))
	f.u64(uint64(b.StartChunk))
	f.u64(uint64(b.StreamRows))
	return f.Sum(nil)
}

// DeliverStream seals an outcome under a recipient session and streams it
// from startChunk: begin frame, credit grant, chunk frames under the
// window, end frame, done ack. A failure verdict travels in the begin
// frame of a stream without rows. Rows are re-sealed per session, so a
// resumed stream is fresh ciphertext over the same plaintext suffix.
func (s *Service) DeliverStream(sess *Session, out Outcome, startChunk uint32) error {
	begin := resultBeginMsg{ContractID: s.Contract.ID}
	var (
		rows    [][]byte
		refused error // a resume this outcome cannot honour, answered in-band
	)
	total := uint32((len(out.Rows) + ResultChunkRows - 1) / ResultChunkRows)
	switch {
	case out.Err != nil:
		begin.Err = truncateVerdict(out.Err.Error())
	case startChunk > total:
		refused = fmt.Errorf("resume offset %d beyond the result's %d chunks", startChunk, total)
		begin.Err = truncateVerdict(refused.Error())
	default:
		// startChunk == total is a legal resume point (every chunk
		// consumed, end frame lost); with a partial last chunk the row
		// offset must clamp to the row count or the declared stream length
		// goes negative.
		rows = out.Rows[min(int(startChunk)*ResultChunkRows, len(out.Rows)):]
		begin.TotalChunks = total
		begin.StartChunk = startChunk
		begin.StreamRows = int64(len(rows))
		begin.Schema = toWire(out.Schema)
	}
	if err := sess.send(&begin); err != nil {
		return fmt.Errorf("service: sending result begin: %w", err)
	}
	bind := begin.digest()
	err := deliveryStream.send(sess, bind, len(rows), ResultChunkRows, func(lo, hi int) ([][]byte, error) {
		sealed := make([][]byte, 0, hi-lo)
		for _, r := range rows[lo:hi] {
			sealed = append(sealed, sess.sealer.seal(r, bind))
		}
		return sealed, nil
	})
	if err == nil && refused != nil {
		err = fmt.Errorf("service: %w", refused)
	}
	return err
}

// ResultFetch accumulates one recipient's fetch of a result across any
// number of connections. Zero value starts a fresh fetch; after a broken
// or paused stream, reconnect with ConnectJobResume(..., f.Chunks)
// and call FetchResult with the same value to fetch only the remainder.
type ResultFetch struct {
	// Chunks counts whole result chunks consumed so far — the resume
	// offset to put in the next hello.
	Chunks uint32
	// Rows accumulates the decrypted, decoy-filtered result rows.
	Rows *relation.Relation
	// Done reports that the end frame was verified and acknowledged.
	Done bool
	// PauseAfter, when positive, stops the fetch with ErrFetchPaused after
	// that many additional chunks, leaving it resumable — the deliberate
	// disconnect the resume tests drive, usable by real clients as a flow
	// valve.
	PauseAfter uint32
}

// FetchResult runs the recipient side of one streamed delivery: read the
// begin frame, grant credit, open each chunk's rows under the begin frame's
// digest, acknowledge it, and verify the end totals and their tag. No row
// of a chunk is appended unless every row of it opens, so a fetch that
// fails on a tampered row resumes from f without repeating rows. A failure
// verdict is returned once its stream's tag opens under it. The fetch
// state lands in f.
func (cs *ClientSession) FetchResult(f *ResultFetch) error {
	sess := cs.sess
	var begin resultBeginMsg
	if err := sess.read(&begin); err != nil {
		return deliveryStream.decodeErr(err)
	}
	if begin.Err != "" {
		if begin.StreamRows != 0 {
			return fmt.Errorf("%w: a failure verdict declaring %d rows", ErrResultFrame, begin.StreamRows)
		}
	} else {
		if begin.StartChunk != f.Chunks {
			return fmt.Errorf("%w: server resumed at chunk %d, want %d", ErrResultFrame, begin.StartChunk, f.Chunks)
		}
		schema, err := begin.Schema.schema()
		if err != nil {
			return err
		}
		if f.Rows == nil {
			f.Rows = relation.NewRelation(schema)
		} else if !f.Rows.Schema.Equal(schema) {
			return fmt.Errorf("%w: resumed stream changed the result schema", ErrResultFrame)
		}
	}
	asm, err := newChunkAssembler(begin.StreamRows, 0, deliveryStream)
	if err != nil {
		return err
	}
	bind := begin.digest()
	r := receiver{sess: sess, dir: deliveryStream, read: sess.r.Next, asm: asm, bind: bind,
		window: DefaultResultWindow, pauseAfter: f.PauseAfter,
		consume: func(c *chunkMsg) error {
			cells := make([][]byte, len(c.Rows))
			for i, ct := range c.Rows {
				cell, err := sess.opener.open(ct, bind)
				if err != nil {
					return fmt.Errorf("%w: result row %d: %w", ErrResultFrame, i, err)
				}
				cells[i] = cell
			}
			for i, cell := range cells {
				if !core.IsReal(cell) {
					continue // decoy: "decrypted and filtered out by the recipient" (§4.3)
				}
				if err := f.Rows.AppendEncoded(core.Payload(cell)); err != nil {
					return fmt.Errorf("service: result row %d: %w", i, err)
				}
			}
			f.Chunks = begin.StartChunk + c.Seq + 1
			return nil
		}}
	if err := r.run(); err != nil {
		return err
	}
	if begin.Err != "" {
		return fmt.Errorf("service: join failed: %s", begin.Err)
	}
	f.Chunks = begin.TotalChunks
	f.Done = true
	return nil
}
