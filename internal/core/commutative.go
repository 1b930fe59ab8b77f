package core

import (
	"crypto/rand"
	"fmt"
	"math/big"

	"ppj/internal/relation"
	"ppj/internal/sim"
)

// This file implements the commutative-encryption false start of §4.5.1,
// inspired by [5, 10, 21]: T decrypts each tuple's join attribute and
// re-encrypts it with a Pohlig–Hellman/SRA-style deterministic cipher under
// one key shared across both relations, so the untrusted host can perform
// the sort-merge join on ciphertexts by itself. The adaptation is unsafe
// because determinism "leaks the distribution of the duplicates": equal join
// attributes produce equal tags, handing the host the full key histogram.

// rfc3526Prime1536 is the 1536-bit MODP group prime of RFC 3526, a safe
// prime (p = 2q+1), used as the fixed SRA group modulus.
const rfc3526Prime1536 = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1" +
	"29024E088A67CC74020BBEA63B139B22514A08798E3404DD" +
	"EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245" +
	"E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
	"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D" +
	"C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F" +
	"83655D23DCA3AD961C62F356208552BB9ED529077096966D" +
	"670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF"

// SRAKey is a Pohlig–Hellman exponentiation key over the fixed safe-prime
// group: Enc(m) = m^e mod p. Encryption under two keys commutes.
type SRAKey struct {
	p *big.Int
	e *big.Int
}

// NewSRAKey draws a random exponent coprime to p−1.
func NewSRAKey() (*SRAKey, error) {
	p, ok := new(big.Int).SetString(rfc3526Prime1536, 16)
	if !ok {
		panic("core: bad embedded prime")
	}
	pm1 := new(big.Int).Sub(p, big.NewInt(1))
	for {
		e, err := rand.Int(rand.Reader, pm1)
		if err != nil {
			return nil, fmt.Errorf("core: SRA key: %w", err)
		}
		if e.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, e, pm1).Cmp(big.NewInt(1)) == 0 {
			return &SRAKey{p: p, e: e}, nil
		}
	}
}

// Encrypt maps a 64-bit value into the group and exponentiates. The offset
// keeps the element out of the degenerate fixed points {0, 1, p−1}.
func (k *SRAKey) Encrypt(v int64) *big.Int {
	m := new(big.Int).SetUint64(uint64(v) + 2)
	return new(big.Int).Exp(m, k.e, k.p)
}

// CommutesWith checks the defining property against another key on a probe
// value (used by tests): Enc_a(Enc_b(m)) == Enc_b(Enc_a(m)).
func (k *SRAKey) CommutesWith(o *SRAKey, v int64) bool {
	inner := k.Encrypt(v)
	ab := new(big.Int).Exp(inner, o.e, o.p)
	inner2 := o.Encrypt(v)
	ba := new(big.Int).Exp(inner2, k.e, k.p)
	return ab.Cmp(ba) == 0
}

// UnsafeCommutativeJoin runs the §4.5.1 commutative-encryption adaptation on
// an integer equijoin. T re-encrypts every join attribute under one
// deterministic SRA key and writes the tags to the host, which then performs
// the join itself by tag equality. The paper's version additionally shuffles
// the relations first; that hides which original row a tag belongs to, but
// not the demonstrated leak — the duplicate distribution — so this
// implementation keeps the original order, which also lets tests check the
// host-computed pairs against the reference join. The tag regions remain
// inspectable so the adversary tests can extract the histogram.
func UnsafeCommutativeJoin(t *sim.Coprocessor, a, b sim.Table, pred *relation.Equi) (pairs [][2]int64, tagsA, tagsB sim.RegionID, err error) {
	t.ResetStats()

	key, err := NewSRAKey()
	if err != nil {
		return nil, 0, 0, err
	}
	host := t.Host()
	tagsA = host.FreshRegion("unsafe.comm.tagsA", int(a.N))
	tagsB = host.FreshRegion("unsafe.comm.tagsB", int(b.N))

	emit := func(tab sim.Table, keyIdx int, dst sim.RegionID) error {
		for i := int64(0); i < tab.N; i++ {
			row, err := getRow(t, tab, i)
			if err != nil {
				return err
			}
			tag := key.Encrypt(row.Int(keyIdx))
			// The tag is written in the clear for the host: determinism is
			// the mechanism (and the leak), not a bug in the simulator.
			host.Store(dst, i, tag.Bytes())
			t.ChargePredicate()
		}
		return nil
	}
	if err := emit(a, pred.KeyIndexA(), tagsA); err != nil {
		return nil, 0, 0, err
	}
	if err := emit(b, pred.KeyIndexB(), tagsB); err != nil {
		return nil, 0, 0, err
	}

	// Host-side join on ciphertext equality (no coprocessor involvement).
	index := make(map[string][]int64)
	for i := int64(0); i < a.N; i++ {
		index[string(host.Inspect(tagsA, i))] = append(index[string(host.Inspect(tagsA, i))], i)
	}
	for j := int64(0); j < b.N; j++ {
		for _, i := range index[string(host.Inspect(tagsB, j))] {
			pairs = append(pairs, [2]int64{i, j})
		}
	}
	return pairs, tagsA, tagsB, nil
}
