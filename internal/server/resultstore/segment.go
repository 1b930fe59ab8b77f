package resultstore

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"

	"ppj/internal/frame"
	"ppj/internal/sim"
)

// Segment file layout — one file per stored result, in checked frames
// (internal/frame):
//
//	segment := magic(8) || header frame || row frame*
//	header  := contractID(str) || rowCount(u32) || salt(16) || sealed(meta)(str)
//	row     := sealed(row), the whole body
//
// The header's first three fields are plaintext (the contract ID and row
// count already appear in the WAL manifest). Meta and rows are sealed with
// AES-GCM under the segment's own subkey, SHA-256(label || store key ||
// salt)[:16], so the host's disk holds only ciphertext, exactly like the
// host's RAM during a join. The subkey is fresh per segment because the
// store key outlives the process while a sealer's nonce counter restarts
// at 1 in every process. The associated data of record i (meta is 0, row
// r is r+1) is those three fields followed by i, so a record opens only
// in its own segment, at its own place, under the row count and ID the
// header states. Each frame's CRC fails a torn write, a truncated tail or
// flipped bits before any ciphertext is opened, and lets the header's ID
// be read for tombstoning before any tag is checked.

// segMagic identifies a result segment and pins its format version. A
// segment of another version fails validation as torn.
var segMagic = []byte("PPJRES3\n")

// Segment frame types and their body caps: a header carries the same
// schema a result begin frame does, a row one sealed row.
const (
	segHeader byte = 1
	segRow    byte = 2
)

var segCaps = frame.Caps{segHeader: 1 << 20, segRow: 16 << 20}

// errSegment reports a torn, truncated, or corrupt segment.
var errSegment = errors.New("resultstore: torn segment")

// saltSize is the length of a segment's subkey salt.
const saltSize = 16

// sealOverhead is the sealed size of a record beyond its plaintext.
var sealOverhead = int64(new(sim.GCMSealer).Overhead())

// frameOverhead is a checked frame's header and CRC.
const frameOverhead = frame.HeaderLen + frame.CRCLen

// segmentSize computes a segment's exact on-disk size before writing it,
// so cap admission and LRU eviction run against the true byte cost.
func segmentSize(id string, meta []byte, rows [][]byte) int64 {
	size := int64(len(segMagic)) + frameOverhead + 4 + int64(len(id)) + 4 + saltSize + 4 + int64(len(meta)) + sealOverhead
	for _, r := range rows {
		size += frameOverhead + int64(len(r)) + sealOverhead
	}
	return size
}

// segmentSealer is the record sealer of the segment with this salt.
func segmentSealer(key, salt []byte) (*sim.GCMSealer, error) {
	h := sha256.New()
	h.Write([]byte("ppj-resultstore-segment-v2"))
	h.Write(key)
	h.Write(salt)
	return sim.NewGCMSealer(h.Sum(nil)[:16])
}

// headerAD is the header's plaintext fields, the associated data every
// record of the segment starts with.
func headerAD(id string, rows uint32, salt []byte) []byte {
	return append(frame.AppendU32(frame.AppendStr(nil, id), rows), salt...)
}

// recordAD writes the associated data of record i, the header's plaintext
// fields followed by i, into ad's storage.
func recordAD(ad, header []byte, i uint32) []byte {
	return frame.AppendU32(append(ad[:0], header...), i)
}

// writeSegment writes one result's segment under a fresh salt and fsyncs
// it: after return, the bytes a recovery scan will validate are on disk.
func writeSegment(path string, key []byte, id string, meta []byte, rows [][]byte) error {
	salt := make([]byte, saltSize)
	if _, err := rand.Read(salt); err != nil {
		return fmt.Errorf("resultstore: drawing salt: %w", err)
	}
	sealer, err := segmentSealer(key, salt)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	hdr := headerAD(id, uint32(len(rows)), salt)
	b := append(make([]byte, 0, segmentSize(id, meta, rows)), segMagic...)
	b = append(frame.Start(b, segHeader), hdr...)
	ad := recordAD(nil, hdr, 0)
	b = frame.AppendStr(b, sealer.SealAD(nil, meta, ad))
	if n := len(b) - len(segMagic) - frame.HeaderLen; n > int(segCaps[segHeader]) {
		return fmt.Errorf("resultstore: %d-byte segment header over the %d cap", n, segCaps[segHeader])
	}
	b = frame.FinishChecked(b, len(segMagic))
	for i, row := range rows {
		start := len(b)
		ad = recordAD(ad, hdr, uint32(i)+1)
		b = frame.FinishChecked(sealer.SealAD(frame.Start(b, segRow), row, ad), start)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	return f.Close()
}

// readSegment reads a segment file and parses it (parseSegment); size is
// the file's length, or 0 when it cannot be read.
func readSegment(path string, key []byte) (id string, meta []byte, rows [][]byte, size int64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", nil, nil, 0, fmt.Errorf("%w: %v", errSegment, err)
	}
	id, meta, rows, err = parseSegment(raw, key)
	return id, meta, rows, int64(len(raw)), err
}

// cutFrame splits the next frame, which must be of type want, off b.
func cutFrame(b []byte, want byte) (body, rest []byte, err error) {
	typ, body, rest, err := segCaps.Cut(b)
	if err == nil && typ != want {
		err = fmt.Errorf("frame type %d, want %d", typ, want)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errSegment, err)
	}
	return body, rest, nil
}

// parseSegment validates a whole segment's bytes and returns its contents.
// The contract ID is returned even when validation fails later in the
// file — the header frame is self-checksummed — so a torn segment can still
// be tombstoned under its ID; the ID is authentic only when err is nil.
func parseSegment(raw, key []byte) (id string, meta []byte, rows [][]byte, err error) {
	if !bytes.HasPrefix(raw, segMagic) {
		return "", nil, nil, fmt.Errorf("%w: bad magic", errSegment)
	}
	body, rest, err := cutFrame(raw[len(segMagic):], segHeader)
	if err != nil {
		return "", nil, nil, err
	}
	f := frame.NewFields(body)
	id, rowCount, salt, sealedMeta := f.Str(), f.U32(), f.Take(saltSize), f.Bytes()
	if err := f.End(); err != nil {
		return "", nil, nil, fmt.Errorf("%w: header: %v", errSegment, err)
	}
	sealer, err := segmentSealer(key, salt)
	if err != nil {
		return id, nil, nil, fmt.Errorf("%w: %v", errSegment, err)
	}
	// The meta tag covers the header, so a forged row count fails here,
	// before any row is allocated.
	hdr := headerAD(id, rowCount, salt)
	ad := recordAD(nil, hdr, 0)
	if meta, err = sealer.OpenAD(nil, sealedMeta, ad); err != nil {
		return id, nil, nil, fmt.Errorf("%w: meta: %v", errSegment, err)
	}
	rows = make([][]byte, 0, rowCount)
	for i := uint32(1); i <= rowCount; i++ {
		var sealed []byte
		if sealed, rest, err = cutFrame(rest, segRow); err != nil {
			return id, nil, nil, err
		}
		ad = recordAD(ad, hdr, i)
		row, err := sealer.OpenAD(nil, sealed, ad)
		if err != nil {
			return id, nil, nil, fmt.Errorf("%w: row %d: %v", errSegment, i-1, err)
		}
		rows = append(rows, row)
	}
	if len(rest) != 0 {
		return id, nil, nil, fmt.Errorf("%w: %d trailing bytes", errSegment, len(rest))
	}
	return id, meta, rows, nil
}
