package service

import (
	"bytes"
	"errors"
	"testing"
)

// requireTypedUploadErr asserts an ingest failure carries one of the three
// typed verdicts — the conformance contract of the framing layer.
func requireTypedUploadErr(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrUploadFrame) && !errors.Is(err, ErrUploadTooLarge) && !errors.Is(err, ErrUploadTruncated) {
		t.Fatalf("untyped upload error: %v", err)
	}
}

// FuzzUploadStream fuzzes the chunk framing layer from two sides.
//
// Part 1 interprets the input as a script of producer actions — well-formed
// chunks, empty chunks, sequence skew, frame replay, (possibly mutated) end
// frames — against a chunkAssembler. Every violation must surface as a
// typed error, every mutated frame must be caught, and an accepted stream
// must have admitted exactly the declared rows and bytes that were sent, in
// as many frames, and re-chunk canonically to the same totals. (Whether a
// row's bytes survived the trip is the session tag's to say, not the
// assembler's.)
//
// Part 2 feeds the same raw bytes straight into the stream-frame reader as
// a hostile byte stream: whatever garbage arrives — a lying body length, a
// row count the body cannot hold, an unknown frame type — the outcome is a
// typed verdict (usually a truncated or malformed frame), never a panic.
func FuzzUploadStream(f *testing.F) {
	f.Add(int64(4), int64(0), []byte{0, 2, 1, 3, 5, 0})
	f.Add(int64(0), int64(64), []byte{5, 0})
	f.Add(int64(100), int64(100), []byte{0, 9})
	f.Add(int64(-1), int64(0), []byte{})
	f.Add(int64(6), int64(1024), []byte{2, 0xff})
	f.Add(int64(9), int64(0), []byte{0, 5, 4, 0, 3, 2})
	f.Add(int64(3), int64(0), []byte{1, 6, 5, 1})
	f.Add(int64(8), int64(256), []byte{0, 3, 5, 3})
	// Frames for part 2: an honest chunk and end, a chunk whose header
	// declares more body than follows, and a header over the chunk cap.
	honest := appendFrame(appendFrame(nil, &chunkMsg{Rows: [][]byte{bytes.Repeat([]byte{7}, 40)}}), &endMsg{Frames: 1, Rows: 1})
	f.Add(int64(1), int64(0), honest)
	f.Add(int64(1), int64(0), append([]byte{frameChunk, 0, 0, 0x10, 0}, honest[frameHeaderLen:]...))
	f.Add(int64(1), int64(0), []byte{frameChunk, 0xff, 0xff, 0xff, 0xff, 0})

	f.Fuzz(func(t *testing.T, declared, maxBytes int64, script []byte) {
		fuzzAssembler(t, declared, maxBytes, script)
		fuzzFrameReader(t, script)
	})
}

// fuzzAssembler drives the framing state machine with a scripted mix of
// honest and corrupted frames.
func fuzzAssembler(t *testing.T, declared, maxBytes int64, script []byte) {
	asm, err := newChunkAssembler(declared, maxBytes, uploadStream)
	if err != nil {
		requireTypedUploadErr(t, err)
		return
	}
	var (
		ck       chunker
		received [][]byte  // rows of every admitted chunk, in order
		sent     int64     // bytes of those rows
		lastGood *chunkMsg // most recent admitted frame, for replay
		rowByte  byte      = 1
	)
	mkRows := func(n, size int) [][]byte {
		rows := make([][]byte, n)
		for i := range rows {
			r := make([]byte, size)
			for j := range r {
				r[j] = rowByte
			}
			rowByte++
			rows[i] = r
		}
		return rows
	}
	for i, steps := 0, 0; i < len(script) && steps < 256; steps++ {
		op := script[i]
		i++
		arg := byte(0)
		if i < len(script) {
			arg = script[i]
			i++
		}
		switch op % 6 {
		case 0, 1: // honest next chunk
			c := ck.frame(mkRows(int(arg%4)+1, int(arg%7)))
			if err := asm.chunk(c); err != nil {
				// Budget or declaration overruns are legitimate refusals of
				// honest frames; either way the stream is over.
				requireTypedUploadErr(t, err)
				return
			}
			received = append(received, c.Rows...)
			for _, r := range c.Rows {
				sent += int64(len(r))
			}
			lastGood = c
		case 2: // empty chunk
			err := asm.chunk(ck.frame(nil))
			if err == nil {
				t.Fatal("empty chunk admitted")
			}
			requireTypedUploadErr(t, err)
			return
		case 3: // skewed sequence number
			c := *ck.frame(mkRows(1, int(arg%7)))
			c.Seq += uint32(arg%5) + 1
			err := asm.chunk(&c)
			if err == nil {
				t.Fatal("skewed sequence number admitted")
			}
			requireTypedUploadErr(t, err)
			return
		case 4: // replay the previous frame
			if lastGood == nil {
				continue
			}
			err := asm.chunk(lastGood)
			if err == nil {
				t.Fatal("replayed chunk admitted")
			}
			requireTypedUploadErr(t, err)
			return
		case 5: // end frame, possibly with mutated totals
			e := ck.endFrame(int64(len(received)))
			mut := arg % 4
			switch mut {
			case 1:
				e.Frames++
			case 2:
				e.Rows++
			case 3:
				e.Rows--
			}
			err := asm.end(e)
			if mut != 0 {
				if err == nil {
					t.Fatal("mutated end frame admitted")
				}
				requireTypedUploadErr(t, err)
				return
			}
			if err != nil {
				// The only legitimate refusal of truthful totals is closing
				// short of the declaration.
				if !errors.Is(err, ErrUploadTruncated) {
					t.Fatalf("truthful end frame refused: %v", err)
				}
				return
			}
			// Accepted: exactly the declared rows and the bytes sent arrived in
			// the frames sent, and a canonical re-chunking of what was admitted
			// is accepted with the same totals.
			if int64(len(received)) != declared || asm.rows != declared || asm.bytes != sent || asm.next != ck.seq {
				t.Fatalf("stream accepted with %d rows, %d bytes in %d frames; sent %d declared rows, %d bytes in %d frames",
					asm.rows, asm.bytes, asm.next, len(received), sent, ck.seq)
			}
			var ck2 chunker
			asm2, err := newChunkAssembler(int64(len(received)), maxBytes, uploadStream)
			if err != nil {
				t.Fatalf("canonical re-encode refused at begin: %v", err)
			}
			for start := 0; start < len(received); start += 3 {
				end := start + 3
				if end > len(received) {
					end = len(received)
				}
				if err := asm2.chunk(ck2.frame(received[start:end])); err != nil {
					t.Fatalf("canonical re-encode refused chunk: %v", err)
				}
			}
			if err := asm2.end(ck2.endFrame(int64(len(received)))); err != nil {
				t.Fatalf("canonical re-encode refused end: %v", err)
			}
			if asm2.rows != asm.rows || asm2.bytes != asm.bytes {
				t.Fatalf("canonical re-chunking admitted %d rows, %d bytes; the stream %d, %d", asm2.rows, asm2.bytes, asm.rows, asm.bytes)
			}
			return
		}
	}
	// Script exhausted mid-stream: an implicit truncation. Closing honestly
	// now must be refused iff the declaration is unmet.
	err = asm.end(ck.endFrame(int64(len(received))))
	if int64(len(received)) < declared {
		if !errors.Is(err, ErrUploadTruncated) {
			t.Fatalf("short stream closed with %v", err)
		}
	} else if err != nil {
		t.Fatalf("complete stream refused: %v", err)
	}
}

// fuzzFrameReader aims the raw fuzz bytes at the stream-frame reader: a
// hostile peer's byte stream must always terminate in a typed verdict.
func fuzzFrameReader(t *testing.T, raw []byte) {
	sess := newSession(rawConn{bytes.NewReader(raw)})
	var (
		c chunkMsg
		e endMsg
	)
	for n := 0; ; n++ {
		end, err := uploadStream.readFrame(sess.r.Next, &c, &e)
		if err != nil {
			requireTypedUploadErr(t, err)
			return
		}
		if end {
			return
		}
		if n > 1<<16 {
			t.Fatal("frame reader never terminated")
		}
	}
}
