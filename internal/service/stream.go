package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"ppj/internal/sim"
)

// One chunk stream carries relations both ways over a session: a provider's
// upload into T and the result's delivery out to a recipient. After a
// begin frame of its own, each direction runs the same protocol: the
// receiver grants a credit window, the sender streams sequence-numbered
// chunkMsg frames with at most W of them unacknowledged, then an endMsg
// with the totals; the receiver acks every consumed chunk and confirms the
// stream, or refuses it with a nack. Every sealed row, and the end frame's
// sealed totals after them, is bound to its place in the direction and to
// the stream's begin frame by its associated data (protocol.go), so the
// session tag is the stream's one integrity check, and a stream without
// rows carries one tag too. Only the begin frames and what each side does
// with an admitted chunk differ per direction.

// direction is one way a chunk stream runs: the name its sender reports
// under, and the typed verdicts its receiver returns.
type direction struct {
	name string
	// frame is malformed framing or a row that fails to open; tooLarge an
	// overrun of the declared rows or the byte budget; truncated a stream that ended early; paused a
	// deliberate stop after receiver.pauseAfter chunks.
	frame, tooLarge, truncated, paused error
}

var (
	uploadStream   = direction{"upload", ErrUploadFrame, ErrUploadTooLarge, ErrUploadTruncated, nil}
	deliveryStream = direction{"delivery", ErrResultFrame, ErrResultFrame, ErrResultTruncated, ErrFetchPaused}
)

// --- Stream frames (frame.go carries them) ---

// chunkMsg carries one chunk of sealed rows. Seq is the 0-based chunk
// sequence number within this stream, so a dropped, duplicated or
// reordered chunk is caught before any of its rows is opened.
type chunkMsg struct {
	Seq  uint32
	Rows [][]byte
}

// endMsg closes the stream with the totals the receiver must agree with:
// frame count and row count. Tag is the totals sealed under the begin
// frame's digest at the direction's next sequence number: the last
// message of every stream, so a stream that carries no rows still proves
// its begin frame.
type endMsg struct {
	Frames uint32
	Rows   int64
	Tag    []byte
}

// totals is the plaintext Tag seals.
func (e *endMsg) totals() []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(nil, e.Frames), uint64(e.Rows))
}

// ackMsg flows receiver → sender. The first ack after the begin frame is
// the credit grant (Window = W); each later ack reports the cumulative
// count of consumed chunks, returning credit. Done confirms a completed
// stream; a non-empty Err refuses it with the receiver's verdict so the
// sender fails fast instead of pushing rows at a dead session.
type ackMsg struct {
	Seq    uint32
	Window uint32
	Done   bool
	Err    string
}

// --- Framing state machine ---

// chunkAssembler validates the chunk framing of one stream: strict sequence
// numbers, the byte budget, and the declared-vs-actual row accounting. It is deliberately crypto-free and
// I/O-free so the fuzzer can drive it directly; the receiver feeds it
// frames in arrival order and opens rows only after a chunk passes.
type chunkAssembler struct {
	dir      direction
	declared int64 // rows the begin frame committed to
	maxBytes int64 // sealed-byte budget; 0 = unbounded
	next     uint32
	rows     int64
	bytes    int64
	done     bool
}

// newChunkAssembler starts the state machine for a validated begin frame.
func newChunkAssembler(declaredRows, maxBytes int64, dir direction) (*chunkAssembler, error) {
	if declaredRows < 0 {
		return nil, fmt.Errorf("%w: negative declared row count %d", dir.frame, declaredRows)
	}
	if maxBytes > 0 && declaredRows > maxBytes/minSealedRowBytes {
		return nil, fmt.Errorf("%w: %d declared rows cannot fit %d bytes", dir.tooLarge, declaredRows, maxBytes)
	}
	return &chunkAssembler{dir: dir, declared: declaredRows, maxBytes: maxBytes}, nil
}

// chunk admits one chunk frame. On nil error the caller may open and append
// the chunk's rows; any error terminates the stream.
func (a *chunkAssembler) chunk(c *chunkMsg) error {
	if a.done {
		return fmt.Errorf("%w: chunk %d after end frame", a.dir.frame, c.Seq)
	}
	if c.Seq != a.next {
		return fmt.Errorf("%w: chunk seq %d, want %d (duplicated, dropped or reordered frame)", a.dir.frame, c.Seq, a.next)
	}
	if len(c.Rows) == 0 {
		return fmt.Errorf("%w: chunk %d carries no rows", a.dir.frame, c.Seq)
	}
	for _, row := range c.Rows {
		a.bytes += int64(len(row))
	}
	a.rows += int64(len(c.Rows))
	if a.rows > a.declared {
		return fmt.Errorf("%w: %d rows exceed the %d declared", a.dir.tooLarge, a.rows, a.declared)
	}
	if a.maxBytes > 0 && a.bytes > a.maxBytes {
		return fmt.Errorf("%w: %d sealed bytes exceed the %d-byte budget", a.dir.tooLarge, a.bytes, a.maxBytes)
	}
	a.next++
	return nil
}

// end closes the stream, checking the end frame's totals against what
// actually arrived and the actual rows against the declaration.
func (a *chunkAssembler) end(e *endMsg) error {
	if a.done {
		return fmt.Errorf("%w: second end frame", a.dir.frame)
	}
	if e.Frames != a.next {
		return fmt.Errorf("%w: end frame counts %d chunks, received %d", a.dir.frame, e.Frames, a.next)
	}
	if e.Rows != a.rows {
		return fmt.Errorf("%w: end frame counts %d rows, received %d", a.dir.frame, e.Rows, a.rows)
	}
	if a.rows < a.declared {
		return fmt.Errorf("%w: stream ended after %d of %d declared rows", a.dir.truncated, a.rows, a.declared)
	}
	a.done = true
	return nil
}

// decodeErr classifies a wire read failure: a vanished peer or an expired
// context is a truncated stream, anything else is malformed framing.
func (d direction) decodeErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return fmt.Errorf("%w: %v", d.truncated, err)
	}
	return fmt.Errorf("%w: %v", d.frame, err)
}

// readFrame reads one stream frame with read: a chunk into c, or the end
// frame into e, reporting which. A frame of any other type is malformed
// framing.
func (d direction) readFrame(read func() (byte, []byte, error), c *chunkMsg, e *endMsg) (end bool, err error) {
	typ, body, err := read()
	if err != nil {
		return false, d.decodeErr(err)
	}
	switch typ {
	case frameChunk:
		err = c.decode(body)
	case frameEnd:
		end, err = true, e.decode(body)
	default:
		err = fmt.Errorf("%w: %d is neither chunk nor end", errFrameType, typ)
	}
	if err != nil {
		return false, fmt.Errorf("%w: %w", d.frame, err)
	}
	return end, nil
}

// nack tells the sender why the stream died (best effort — the peer may
// already be gone) and returns the verdict.
func (s *Session) nack(err error) error {
	_ = s.send(&ackMsg{Err: err.Error()})
	return err
}

// --- Sender ---

// chunker emits the frames of one stream, numbering them as the assembler
// verifies.
type chunker struct{ seq uint32 }

// frame wraps one chunk of sealed rows.
func (c *chunker) frame(rows [][]byte) *chunkMsg {
	m := &chunkMsg{Seq: c.seq, Rows: rows}
	c.seq++
	return m
}

// endFrame closes the stream.
func (c *chunker) endFrame(rows int64) *endMsg {
	return &endMsg{Frames: c.seq, Rows: rows}
}

// send streams n rows after the caller's begin frame, in chunks of size
// rows under the receiver's credit window, then the end frame with its
// totals sealed under bind, the begin frame's digest. Rows are sealed
// lazily — seal returns rows [lo, hi) sealed, called once the window
// admits their chunk — so sender memory is one chunk beyond what it
// already holds. It returns once the receiver confirms the completed
// stream, or with its refusal.
//
// The ack stream is drained by a dedicated reader that publishes cumulative
// credit into an ackTracker: the reader must never stop consuming the wire,
// or a synchronous transport deadlocks three ways at once (receiver blocked
// writing an ack, reader blocked handing it over, sender blocked writing a
// chunk the receiver will never read).
func (d direction) send(sess *Session, bind []byte, n, size int, seal func(lo, hi int) ([][]byte, error)) error {
	st := newAckTracker()
	go st.run(sess, d.name)
	// The first ack is the credit grant (and the receiver's chance to refuse
	// the stream before any row is sealed).
	if err := st.wait(func() bool { return st.granted }); err != nil {
		return err
	}
	var ck chunker
	for lo := 0; lo < n; lo += size {
		// Block until the window admits this chunk; a refusal that already
		// arrived fails fast instead of pushing more rows at a dead stream.
		if err := st.wait(func() bool { return int(ck.seq)-int(st.seq) < st.window }); err != nil {
			return err
		}
		rows, err := seal(lo, min(lo+size, n))
		if err != nil {
			return err
		}
		if err := sess.send(ck.frame(rows)); err != nil {
			return fmt.Errorf("service: sending %s chunk %d: %w", d.name, ck.seq-1, err)
		}
	}
	end := ck.endFrame(int64(n))
	end.Tag = sess.sealer.seal(end.totals(), bind)
	if err := sess.send(end); err != nil {
		return fmt.Errorf("service: sending %s end: %w", d.name, err)
	}
	return st.wait(func() bool { return st.done })
}

// ackTracker accumulates the sender's view of the ack stream. The reader
// goroutine (run) decodes acks off the wire and publishes cumulative credit
// under the lock; the sender waits on the condition variable for the grant,
// for window credit, and for the final confirmation. The reader never
// blocks on anything but the wire, so the receiver's ack writes always find
// a consumer — the invariant that keeps a fully synchronous transport
// (net.Pipe) deadlock-free.
type ackTracker struct {
	mu      sync.Mutex
	cond    *sync.Cond
	seq     uint32 // cumulative chunks the receiver has consumed
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
// dead wire), publishing each under the lock and waking waiters. If the
// sender abandons the stream first, the reader stays blocked on the wire
// until the caller closes the connection — the session is not reusable
// after a failed stream.
func (st *ackTracker) run(sess *Session, what string) {
	var a ackMsg
	for terminal := false; !terminal; {
		err := sess.read(&a)
		st.mu.Lock()
		switch {
		case err != nil:
			st.err = fmt.Errorf("service: reading %s ack: %w", what, err)
		case a.Err != "":
			st.err = fmt.Errorf("service: %s refused: %s", what, a.Err)
		default:
			if !st.granted {
				st.granted = true
				st.window = max(int(a.Window), 1)
			}
			st.seq = max(st.seq, a.Seq)
			st.done = st.done || a.Done
		}
		terminal = st.err != nil || st.done
		st.cond.Broadcast()
		st.mu.Unlock()
	}
}

// wait blocks until ready holds, checked under the lock, or the stream has
// died.
func (st *ackTracker) wait(ready func() bool) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.err == nil && !ready() {
		st.cond.Wait()
	}
	return st.err
}

// --- Receiver ---

// receiver is the receiving end of one stream whose begin frame has been
// read and accepted.
type receiver struct {
	sess   *Session
	dir    direction
	read   func() (byte, []byte, error) // reads one frame off the wire
	asm    *chunkAssembler
	bind   []byte // the begin frame's digest, which the end frame's tag is sealed under
	window uint32
	// consume handles one verified chunk, its rows still sealed; an error
	// refuses the stream.
	consume func(*chunkMsg) error
	// pauseAfter, when positive, stops the stream with dir.paused right
	// after acknowledging that many chunks, if rows remain.
	pauseAfter uint32
}

// run grants the credit window, then verifies, consumes and acknowledges
// chunk after chunk — credit returns only after consume, so a slow
// consumer throttles the sender — and confirms the end frame's totals
// once its tag opens over them. Every refusal is nacked back to the
// sender.
func (r *receiver) run() error {
	if err := r.sess.send(&ackMsg{Window: r.window}); err != nil {
		return fmt.Errorf("%w: sending credit grant: %v", r.dir.truncated, err)
	}
	var (
		c chunkMsg
		e endMsg
	)
	for n := uint32(1); ; n++ {
		end, err := r.dir.readFrame(r.read, &c, &e)
		if err != nil {
			return r.sess.nack(err)
		}
		if end {
			if err := r.asm.end(&e); err != nil {
				return r.sess.nack(err)
			}
			if err := r.openTag(&e); err != nil {
				return r.sess.nack(err)
			}
			_ = r.sess.send(&ackMsg{Seq: r.asm.next, Window: r.window, Done: true})
			return nil
		}
		if err := r.asm.chunk(&c); err != nil {
			return r.sess.nack(err)
		}
		if err := r.consume(&c); err != nil {
			return r.sess.nack(err)
		}
		_ = r.sess.send(&ackMsg{Seq: r.asm.next, Window: r.window})
		if r.pauseAfter > 0 && n >= r.pauseAfter && r.asm.rows < r.asm.declared {
			return r.dir.paused
		}
	}
}

// openTag opens the end frame's tag under the begin frame's digest and
// checks that it seals the totals the assembler accepted.
func (r *receiver) openTag(e *endMsg) error {
	pt, err := r.sess.opener.open(e.Tag, r.bind)
	if err == nil && !bytes.Equal(pt, e.totals()) {
		err = sim.ErrTamper
	}
	if err != nil {
		return fmt.Errorf("%w: end frame: %w", r.dir.frame, err)
	}
	return nil
}
