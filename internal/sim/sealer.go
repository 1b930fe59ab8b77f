package sim

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
)

// Sealer is the authenticated encryption used for every cell that leaves T.
// Implementations must be semantically secure in the sense the algorithms
// rely on (equal plaintexts sealed twice are indistinguishable) and must
// detect any tampering on OpenTo.
type Sealer interface {
	// SealTo appends the sealed plaintext to dst and returns the extended
	// slice (append semantics, like crypto/cipher AEADs). When dst has
	// sufficient capacity no allocation occurs, so steady-state sealing
	// through a reused buffer is allocation-free; a nil dst seals into a
	// fresh buffer.
	SealTo(dst, plaintext []byte) []byte
	// OpenTo verifies a SealTo output and appends its plaintext to dst,
	// returning the extended slice. The plaintext never aliases the
	// ciphertext, so a nil dst opens into a fresh buffer the caller owns. As
	// with SealTo, a reused dst makes steady-state opening allocation-free.
	OpenTo(dst, ciphertext []byte) ([]byte, error)
	// Overhead is the ciphertext expansion in bytes.
	Overhead() int
}

// ErrTamper is returned when an authenticated read fails verification; the
// coprocessor terminates the computation on it (§3.3.1).
var ErrTamper = errors.New("sim: ciphertext failed authentication, host tampering detected")

// GCMSealer seals each message as an independent AES-GCM message. Output
// layout: nonce(12) || ciphertext || tag(16); the nonce is four zero bytes
// and the sealer's 64-bit counter, so a key must back one GCMSealer only.
// Cells are sealed with no associated data; session messages and result
// records pass theirs through SealAD and OpenAD.
//
// The thesis instead chains all tuples of a sort round into one incremental
// OCB message to shave block-cipher calls on its crypto hardware (§4.4.1);
// per-cell sealing and the choice of AEAD change only that constant factor,
// never the host access pattern, and let cells be re-encrypted
// independently during oblivious sorting.
type GCMSealer struct {
	aead  cipher.AEAD
	nonce atomic.Uint64
}

const gcmNonceSize, gcmTagSize = 12, 16

// NewGCMSealer builds a sealer from a 16/24/32-byte AES key.
func NewGCMSealer(key []byte) (*GCMSealer, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &GCMSealer{aead: aead}, nil
}

// NewRandomGCMSealer builds a sealer with a fresh random 128-bit key.
func NewRandomGCMSealer() (*GCMSealer, error) {
	key := make([]byte, 16)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("sim: generating key: %w", err)
	}
	return NewGCMSealer(key)
}

// NewRandomOCBSealer returns NewRandomGCMSealer(). It is kept only because
// the benchmark module's OCB probe links against this name, and goes with
// the next benchmark change.
func NewRandomOCBSealer() (*GCMSealer, error) { return NewRandomGCMSealer() }

// Seal is SealTo into a fresh buffer. It is kept only because the
// benchmark module's seal probe calls it, and goes with the next benchmark
// change.
func (s *GCMSealer) Seal(plaintext []byte) []byte {
	return s.SealTo(nil, plaintext)
}

// SealTo implements Sealer: SealAD with no associated data.
func (s *GCMSealer) SealTo(dst, plaintext []byte) []byte {
	return s.SealAD(dst, plaintext, nil)
}

// SealAD appends the sealed plaintext to dst, authenticating ad with it:
// the ciphertext opens only under the same ad, which is not stored. The
// nonce is written into dst itself and the AEAD appends after it: a nonce
// array on the stack would escape through the cipher.AEAD interface and
// cost an allocation per message.
func (s *GCMSealer) SealAD(dst, plaintext, ad []byte) []byte {
	dst = slices.Grow(dst, gcmNonceSize+len(plaintext)+gcmTagSize)
	dst = binary.BigEndian.AppendUint64(append(dst, 0, 0, 0, 0), s.nonce.Add(1))
	return s.aead.Seal(dst, dst[len(dst)-gcmNonceSize:], plaintext, ad)
}

// OpenTo implements Sealer: OpenAD with no associated data.
func (s *GCMSealer) OpenTo(dst, ciphertext []byte) ([]byte, error) {
	return s.OpenAD(dst, ciphertext, nil)
}

// OpenAD appends the plaintext of a SealAD output to dst after verifying
// it, and ad, against the tag; any mismatch is ErrTamper.
func (s *GCMSealer) OpenAD(dst, ciphertext, ad []byte) ([]byte, error) {
	if len(ciphertext) < gcmNonceSize+gcmTagSize {
		return nil, fmt.Errorf("%w (short ciphertext)", ErrTamper)
	}
	pt, err := s.aead.Open(dst, ciphertext[:gcmNonceSize], ciphertext[gcmNonceSize:], ad)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTamper, err)
	}
	return pt, nil
}

// Overhead implements Sealer.
func (s *GCMSealer) Overhead() int { return gcmNonceSize + gcmTagSize }

// PlainSealer is a pass-through sealer used for full-scale cost measurement
// runs where billions of AES calls would dominate the wall clock. It still
// detects (unauthenticated) structural corruption via a marker byte, and is
// never used by the service layer.
type PlainSealer struct{}

const plainMarker = 0x5A

// SealTo implements Sealer.
func (PlainSealer) SealTo(dst, plaintext []byte) []byte {
	dst = append(dst, plainMarker)
	return append(dst, plaintext...)
}

// OpenTo implements Sealer.
func (PlainSealer) OpenTo(dst, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < 1 || ciphertext[0] != plainMarker {
		return nil, fmt.Errorf("%w (missing marker)", ErrTamper)
	}
	return append(dst, ciphertext[1:]...), nil
}

// Overhead implements Sealer.
func (PlainSealer) Overhead() int { return 1 }
