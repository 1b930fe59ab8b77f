package smc

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"math/big"
)

// This file implements the classic RSA-based 1-out-of-2 oblivious transfer
// (Even–Goldreich–Lempel). The §4.6.5 cost analysis counts "|B|·w 1-out-of-2
// oblivious transfers where each oblivious transfer uses one public key
// encryption"; this is that primitive, used to deliver the evaluator's
// input-wire labels without revealing the chosen bits to the garbler.
//
// The protocol (messages as big integers mod N):
//
//	Sender:   RSA key (N, e, d); random group elements x₀, x₁  → receiver
//	Receiver: secret bit b, random k; v = (x_b + k^e) mod N     → sender
//	Sender:   k_i = (v − x_i)^d; m'_i = m_i + k_i mod N         → receiver
//	Receiver: m_b = (m'_b − k) mod N
//
// The sender cannot tell which x_i was used (v is uniform either way); the
// receiver learns only m_b because k_{1−b} is an RSA preimage it cannot
// compute.

// OTSender holds the sender's per-transfer state.
type OTSender struct {
	key    *rsa.PrivateKey
	x0, x1 *big.Int
}

// OTOffer is the sender's first message.
type OTOffer struct {
	N      *big.Int
	E      int
	X0, X1 *big.Int
}

// OTResponse is the sender's final message: both messages blinded.
type OTResponse struct {
	M0, M1 *big.Int
}

// otKeyBits sizes the RSA modulus. 1024 bits keeps the toy benchmarks fast;
// a deployment would use ≥3072.
const otKeyBits = 1024

// Offer returns the sender's first message.
func (s *OTSender) Offer() OTOffer {
	return OTOffer{N: s.key.N, E: s.key.E, X0: s.x0, X1: s.x1}
}

// Respond blinds both messages given the receiver's v. Messages must be
// smaller than the modulus.
func (s *OTSender) Respond(v *big.Int, m0, m1 *big.Int) (OTResponse, error) {
	if m0.Cmp(s.key.N) >= 0 || m1.Cmp(s.key.N) >= 0 || m0.Sign() < 0 || m1.Sign() < 0 {
		return OTResponse{}, fmt.Errorf("smc: OT messages out of range")
	}
	d := s.key.D
	n := s.key.N
	k0 := new(big.Int).Exp(new(big.Int).Mod(new(big.Int).Sub(v, s.x0), n), d, n)
	k1 := new(big.Int).Exp(new(big.Int).Mod(new(big.Int).Sub(v, s.x1), n), d, n)
	r0 := new(big.Int).Mod(new(big.Int).Add(m0, k0), n)
	r1 := new(big.Int).Mod(new(big.Int).Add(m1, k1), n)
	return OTResponse{M0: r0, M1: r1}, nil
}

// OTReceiver holds the receiver's per-transfer state.
type OTReceiver struct {
	offer OTOffer
	b     int
	k     *big.Int
}

// NewOTReceiver starts a transfer for choice bit b against an offer.
func NewOTReceiver(offer OTOffer, b int) (*OTReceiver, error) {
	if b != 0 && b != 1 {
		return nil, fmt.Errorf("smc: choice bit %d", b)
	}
	k, err := rand.Int(rand.Reader, offer.N)
	if err != nil {
		return nil, err
	}
	return &OTReceiver{offer: offer, b: b, k: k}, nil
}

// Query computes v = (x_b + k^e) mod N.
func (r *OTReceiver) Query() *big.Int {
	ke := new(big.Int).Exp(r.k, big.NewInt(int64(r.offer.E)), r.offer.N)
	x := r.offer.X0
	if r.b == 1 {
		x = r.offer.X1
	}
	return new(big.Int).Mod(new(big.Int).Add(x, ke), r.offer.N)
}

// Recover extracts m_b from the response.
func (r *OTReceiver) Recover(resp OTResponse) *big.Int {
	m := resp.M0
	if r.b == 1 {
		m = resp.M1
	}
	return new(big.Int).Mod(new(big.Int).Sub(m, r.k), r.offer.N)
}

func bigLen(x *big.Int) int { return (x.BitLen() + 7) / 8 }

// OTBatch amortises the RSA key generation over many transfers, the way
// practical SMC systems do: one modulus, fresh random offers (x₀, x₁) and
// blinding per transfer, so individual choices remain unlinkable.
type OTBatch struct {
	key *rsa.PrivateKey
}

// NewOTBatch generates the shared RSA key.
func NewOTBatch() (*OTBatch, error) {
	key, err := rsa.GenerateKey(rand.Reader, otKeyBits)
	if err != nil {
		return nil, fmt.Errorf("smc: OT batch keygen: %w", err)
	}
	return &OTBatch{key: key}, nil
}

// Transfer runs one complete 1-out-of-2 OT under the shared key, returning
// the chosen label and the bytes exchanged.
func (b *OTBatch) Transfer(l0, l1 Label, choice int) (Label, int, error) {
	s, err := b.sender()
	if err != nil {
		return Label{}, 0, err
	}
	offer := s.Offer()
	r, err := NewOTReceiver(offer, choice)
	if err != nil {
		return Label{}, 0, err
	}
	v := r.Query()
	resp, err := s.Respond(v, new(big.Int).SetBytes(l0[:]), new(big.Int).SetBytes(l1[:]))
	if err != nil {
		return Label{}, 0, err
	}
	got := r.Recover(resp)
	var out Label
	gb := got.Bytes()
	if len(gb) > labelSize {
		return Label{}, 0, fmt.Errorf("smc: recovered label too long")
	}
	copy(out[labelSize-len(gb):], gb)
	// The modulus is sent once per session, not per transfer; count the
	// per-transfer traffic only.
	bytes := bigLen(offer.X0) + bigLen(offer.X1) + bigLen(v) + bigLen(resp.M0) + bigLen(resp.M1)
	return out, bytes, nil
}

// sender starts one transfer under the shared key: fresh random offers
// (x₀, x₁), so individual choices remain unlinkable.
func (b *OTBatch) sender() (*OTSender, error) {
	x0, err := rand.Int(rand.Reader, b.key.N)
	if err != nil {
		return nil, err
	}
	x1, err := rand.Int(rand.Reader, b.key.N)
	if err != nil {
		return nil, err
	}
	return &OTSender{key: b.key, x0: x0, x1: x1}, nil
}
