package resultstore

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"ppj/internal/sim"
)

// Segment file layout — one file per stored result:
//
//	segment := magic(8) || header-frame || row-frame*
//	frame   := length(u32 BE) || crc32c(u32 BE) || payload
//
// The header frame's payload is
//
//	header := idLen(u16 BE) || contractID || rowCount(u32 BE) || salt(16)
//	payload := header || sealed(meta)
//
// and each row frame's payload is one sealed row. The header is plaintext
// (the contract ID and row count already appear in the WAL manifest). Meta
// and rows are sealed with AES-GCM under the segment's own subkey,
// SHA-256(label || store key || salt)[:16], so the host's disk holds only
// ciphertext, exactly like the host's RAM during a join. The subkey is
// fresh per segment because the store key outlives the process while a
// sealer's nonce counter restarts at 1 in every process. The associated
// data of record i (meta is 0, row r is r+1) is the header followed by i,
// so a record opens only in its own segment, at its own place, under the
// row count and ID the header states. The CRC (Castagnoli, the same
// polynomial as the wire protocol's chunk chain) covers the full payload,
// so a torn write, a truncated tail, or flipped bits all fail validation
// before any ciphertext is opened.

// segMagic identifies a result segment and pins its format version. A
// segment of another version fails validation as torn.
var segMagic = []byte("PPJRES2\n")

// segCRCTable is the Castagnoli table segment frames are checksummed with.
var segCRCTable = crc32.MakeTable(crc32.Castagnoli)

// errSegment reports a torn, truncated, or corrupt segment.
var errSegment = errors.New("resultstore: torn segment")

// saltSize is the length of a segment's subkey salt.
const saltSize = 16

// sealOverhead is the sealed size of a record beyond its plaintext.
var sealOverhead = int64(new(sim.GCMSealer).Overhead())

// segFrameOverhead is the per-frame framing cost (length + CRC).
const segFrameOverhead = 8

// segmentSize computes a segment's exact on-disk size before writing it,
// so cap admission and LRU eviction run against the true byte cost.
func segmentSize(id string, meta []byte, rows [][]byte) int64 {
	size := int64(len(segMagic))
	size += segFrameOverhead + 2 + int64(len(id)) + 4 + saltSize + int64(len(meta)) + sealOverhead
	for _, r := range rows {
		size += segFrameOverhead + int64(len(r)) + sealOverhead
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

// recordAD writes the associated data of record i, the header followed by
// i, into ad's storage.
func recordAD(ad, header []byte, i uint32) []byte {
	return binary.BigEndian.AppendUint32(append(ad[:0], header...), i)
}

// writeFrame appends one CRC frame to w.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [segFrameOverhead]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, segCRCTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame splits one verified CRC frame off the front of b. A length
// beyond the bytes left is refused before anything is allocated; the
// payload aliases b.
func readFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < segFrameOverhead {
		return nil, nil, fmt.Errorf("%w: %d-byte frame header", errSegment, len(b))
	}
	n, left := binary.BigEndian.Uint32(b[0:4]), b[segFrameOverhead:]
	if uint64(n) > uint64(len(left)) {
		return nil, nil, fmt.Errorf("%w: frame length %d beyond the %d bytes left", errSegment, n, len(left))
	}
	if crc32.Checksum(left[:n], segCRCTable) != binary.BigEndian.Uint32(b[4:8]) {
		return nil, nil, fmt.Errorf("%w: frame checksum mismatch", errSegment)
	}
	return left[:n], left[n:], nil
}

// writeSegment writes one result's segment under a fresh salt and fsyncs
// it: after return, the bytes a recovery scan will validate are on disk.
func writeSegment(path string, key []byte, id string, meta []byte, rows [][]byte) error {
	if len(id) > 0xffff {
		return fmt.Errorf("resultstore: contract id too long (%d bytes)", len(id))
	}
	hdr := make([]byte, 0, 2+len(id)+4+saltSize)
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(len(id)))
	hdr = append(hdr, id...)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(rows)))
	salt := make([]byte, saltSize)
	if _, err := rand.Read(salt); err != nil {
		return fmt.Errorf("resultstore: drawing salt: %w", err)
	}
	hdr = append(hdr, salt...)
	sealer, err := segmentSealer(key, salt)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	defer f.Close()
	w := bytes.NewBuffer(make([]byte, 0, segmentSize(id, meta, rows)))
	w.Write(segMagic)
	ad := recordAD(nil, hdr, 0)
	if err := writeFrame(w, sealer.SealAD(slices.Clone(hdr), meta, ad)); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	for i, row := range rows {
		ad = recordAD(ad, hdr, uint32(i)+1)
		if err := writeFrame(w, sealer.SealAD(nil, row, ad)); err != nil {
			return fmt.Errorf("resultstore: %w", err)
		}
	}
	if _, err := f.Write(w.Bytes()); err != nil {
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

// parseSegment validates a whole segment's bytes and returns its contents.
// The contract ID is returned even when validation fails later in the
// file — the header frame is self-checksummed — so a torn segment can still
// be tombstoned under its ID; the ID is authentic only when err is nil.
func parseSegment(raw, key []byte) (id string, meta []byte, rows [][]byte, err error) {
	if !bytes.HasPrefix(raw, segMagic) {
		return "", nil, nil, fmt.Errorf("%w: bad magic", errSegment)
	}
	payload, rest, err := readFrame(raw[len(segMagic):])
	if err != nil {
		return "", nil, nil, err
	}
	if len(payload) < 2 {
		return "", nil, nil, fmt.Errorf("%w: short header", errSegment)
	}
	idLen := int(binary.BigEndian.Uint16(payload[0:2]))
	hdrLen := 2 + idLen + 4 + saltSize
	if len(payload) < hdrLen {
		return "", nil, nil, fmt.Errorf("%w: short header", errSegment)
	}
	hdr := payload[:hdrLen]
	id = string(hdr[2 : 2+idLen])
	rowCount := binary.BigEndian.Uint32(hdr[2+idLen:])
	sealer, err := segmentSealer(key, hdr[hdrLen-saltSize:])
	if err != nil {
		return id, nil, nil, fmt.Errorf("%w: %v", errSegment, err)
	}
	// The meta tag covers the header, so a forged row count fails here,
	// before any row is allocated.
	ad := recordAD(nil, hdr, 0)
	if meta, err = sealer.OpenAD(nil, payload[hdrLen:], ad); err != nil {
		return id, nil, nil, fmt.Errorf("%w: meta: %v", errSegment, err)
	}
	rows = make([][]byte, 0, rowCount)
	for i := uint32(1); i <= rowCount; i++ {
		var sealed []byte
		if sealed, rest, err = readFrame(rest); err != nil {
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
