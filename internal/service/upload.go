package service

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ppj/internal/relation"
	"ppj/internal/sim"
)

// ProtoVersion is the one wire protocol version served, carried in the
// hello: every session message is a fixed-width frame (frame.go); a
// provider's relation travels in as the chunk stream of stream.go after
// an uploadBeginMsg — so server memory per connection is bounded by
// window × chunk bytes — and the result, an aggregate's one row included,
// travels back out as the same stream after a resultBeginMsg, resumable
// (result.go); every sealed row is AES-GCM under its direction's key,
// bound by associated data to its place in the direction and to a digest
// of its stream's begin frame (protocol.go), and every stream ends with
// its totals sealed the same way (stream.go). (Versions 0 and 1, the
// one-shot upload and the one-shot delivery; version 2, sealed with OCB
// and no associated data; version 3, whose aggregate cell rode in the
// result begin frame and whose attestation was gob nested in gob; version
// 4, whose frames carried a running CRC, whose rows carried the contract
// ID and whose begin frames no tag covered; version 5, whose streams
// without rows, failure verdicts included, carried no tag; and version 6,
// the same messages as gob values, are no longer spoken; Handshake refuses
// them, and a version 6 hello does not parse as a frame.)
const ProtoVersion byte = 7

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
	// duplicated or replayed sequence numbers, or a frame that is neither
	// chunk nor end; or a sealed row that fails to open, which also
	// matches sim.ErrTamper.
	ErrUploadFrame = errors.New("service: malformed upload frame")
)

// minSealedRowBytes is the smallest wire size of one sealed row: the
// sealer's overhead plus at least one plaintext byte (every schema has an
// attribute, and every attribute encodes to at least one byte). Used to
// refuse impossible begin declarations before any chunk is read.
var minSealedRowBytes = int64(new(sim.GCMSealer).Overhead() + 1)

// uploadBeginMsg opens a chunked upload: the contract binding and schema —
// checked before the first chunk is read — and the declared row count the
// stream commits to. The host relays it unsealed; every row's associated
// data carries its digest.
type uploadBeginMsg struct {
	ContractID   string
	Schema       schemaWire
	DeclaredRows int64
}

func (b *uploadBeginMsg) digest() []byte {
	f := beginDigest("upload", b.ContractID, b.Schema)
	f.u64(uint64(b.DeclaredRows))
	return f.Sum(nil)
}

// receiveChunked ingests one upload stream: contract and schema are
// checked at the begin frame before any chunk is read, then rows are
// opened under the begin frame's digest and appended chunk by chunk. The
// server holds at most one chunk of sealed rows at a time; the credit
// window bounds what the transport can pile up behind it. Every read, the begin frame's included,
// runs in its own goroutine, so a ctx that expires mid-stream abandons the
// upload as truncated (the abandoned read unblocks when the caller closes
// the connection).
func (s *Service) receiveChunked(ctx context.Context, sess *Session) (*relation.Relation, error) {
	read := func() (byte, []byte, error) {
		type frame struct {
			typ  byte
			body []byte
			err  error
		}
		done := make(chan frame, 1)
		go func() {
			typ, body, err := sess.r.Next()
			done <- frame{typ, body, err}
		}()
		select {
		case f := <-done:
			return f.typ, f.body, f.err
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
	}
	var begin uploadBeginMsg
	if err := readMsg(read, &begin); err != nil {
		return nil, sess.nack(uploadStream.decodeErr(err))
	}
	if begin.ContractID != s.Contract.ID {
		return nil, sess.nack(fmt.Errorf("upload for foreign contract %q", begin.ContractID))
	}
	schema, err := begin.Schema.schema()
	if err != nil {
		return nil, sess.nack(err)
	}
	asm, err := newChunkAssembler(begin.DeclaredRows, s.MaxUploadBytes, uploadStream)
	if err != nil {
		return nil, sess.nack(err)
	}
	rel, bind, window := relation.NewRelation(schema), begin.digest(), uint32(DefaultUploadWindow)
	if s.UploadWindow > 0 {
		window = uint32(min(int64(s.UploadWindow), math.MaxUint32))
	}
	r := receiver{sess: sess, dir: uploadStream, read: read, asm: asm, bind: bind, window: window,
		consume: func(c *chunkMsg) error {
			if s.chunkConsumeHook != nil {
				s.chunkConsumeHook(int(c.Seq))
			}
			return appendSealedRows(sess.opener, bind, rel, c.Rows)
		}}
	if err := r.run(); err != nil {
		return nil, err
	}
	return rel, nil
}

// appendSealedRows is the row-validation core of ingest: every sealed row
// is opened with the session key inside T, under associated data that
// binds it to its place in the stream and to the begin frame that digests
// to bind — and through it to the contract ID ("Each party prepends its
// relation with the contract ID and encrypts the two together as one
// message", §3.3.3) — then decoded against the schema and appended.
func appendSealedRows(opener *sessionSealer, bind []byte, rel *relation.Relation, rows [][]byte) error {
	base := rel.Len()
	for i, ct := range rows {
		pt, err := opener.open(ct, bind)
		if err != nil {
			return fmt.Errorf("%w: row %d: %w", ErrUploadFrame, base+i, err)
		}
		if err := rel.AppendEncoded(pt); err != nil {
			return fmt.Errorf("row %d: %w", base+i, err)
		}
	}
	return nil
}
