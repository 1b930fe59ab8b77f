// Package service implements the paper's secure information-sharing service
// (§3.2): a service provider consisting of an untrusted host H with an
// attached secure coprocessor T, and any number of service requestors —
// data owners who submit encrypted relations, and a designated recipient
// P_C who receives the join result. The only trusted component is the
// coprocessor: providers verify its outbound authentication (§2.2.2/§3.3.3)
// before releasing data, establish per-party session keys with it over
// X25519, and encrypt their tuples so the host never sees plaintext. A
// digital contract signed by all data owners prescribes what is joined, how,
// and who receives the result (§3.3.3); T is its arbiter.
package service

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"

	"ppj/internal/relation"
	"ppj/internal/secop"
	"ppj/internal/sim"
)

// Role distinguishes the two kinds of service requestors.
type Role string

const (
	// RoleProvider submits a relation.
	RoleProvider Role = "provider"
	// RoleRecipient receives the join result.
	RoleRecipient Role = "recipient"
)

// PredicateSpec names a join predicate in a contract. The coprocessor
// instantiates it against the submitted schemas.
type PredicateSpec struct {
	// Kind is one of "equi", "band", "lessthan", "jaccard".
	Kind string
	// AttrA and AttrB name the join attributes of the first and second
	// relation.
	AttrA, AttrB string
	// Param carries the band width or Jaccard threshold.
	Param float64
}

// predicateKinds instantiates each contract predicate kind for two
// schemas; admission refuses a kind that is not a key.
var predicateKinds = map[string]func(p PredicateSpec, sa, sb *relation.Schema) (relation.Predicate, error){
	"equi": func(p PredicateSpec, sa, sb *relation.Schema) (relation.Predicate, error) {
		return relation.NewEqui(sa, p.AttrA, sb, p.AttrB)
	},
	"band": func(p PredicateSpec, sa, sb *relation.Schema) (relation.Predicate, error) {
		return relation.NewBand(sa, p.AttrA, sb, p.AttrB, p.Param)
	},
	"lessthan": func(p PredicateSpec, sa, sb *relation.Schema) (relation.Predicate, error) {
		return relation.NewLessThan(sa, p.AttrA, sb, p.AttrB)
	},
	"jaccard": func(p PredicateSpec, sa, sb *relation.Schema) (relation.Predicate, error) {
		return relation.NewJaccard(sa, p.AttrA, sb, p.AttrB, p.Param)
	},
}

// Build instantiates the predicate for two schemas.
func (p PredicateSpec) Build(sa, sb *relation.Schema) (relation.Predicate, error) {
	build, ok := predicateKinds[p.Kind]
	if !ok {
		return nil, fmt.Errorf("service: unknown predicate kind %q", p.Kind)
	}
	return build(p, sa, sb)
}

// Party identifies a contract participant by name and ed25519 identity.
type Party struct {
	Name     string
	Identity ed25519.PublicKey
	Role     Role
}

// AggregateSpec names an aggregate computation in a contract: the
// statistic kind (COUNT, SUM, MIN, MAX, AVG), and for all but COUNT the
// provider index and attribute aggregated over.
type AggregateSpec struct {
	Kind  string
	Table int
	Attr  string
}

// Contract is the digital contract of §3.3.3 "prescribing what data can be
// shared and which computations are permissible". Data owners co-sign it;
// the coprocessor holds a copy and serves as its arbiter.
type Contract struct {
	ID        string
	Parties   []Party
	Predicate PredicateSpec
	// Algorithm selects the join algorithm: "alg1".."alg7", "auto" to let
	// the cost-model planner pick, or "aggregate" to compute only the
	// contracted statistic (the recipient then learns one number, never the
	// joined rows).
	Algorithm string
	// Epsilon is Algorithm 6's privacy trade-off parameter.
	Epsilon float64
	// Aggregate is required when Algorithm is "aggregate".
	Aggregate AggregateSpec
	// Tenant names the account the contract runs under, for per-tenant
	// admission quotas (max in-flight jobs, submission rate). Empty — the
	// value old encoders produce — selects the anonymous tenant.
	Tenant string
	// Signatures[i] is party i's signature over SigningPayload (data owners
	// must sign; the recipient's signature is optional).
	Signatures [][]byte
}

// SigningPayload serialises the signed portion of the contract: a digest
// of every field, each length-prefixed (fieldHash), so no two contracts
// that differ in any field — "ab"/"c" versus "a"/"bc" as the join
// attributes included — share a payload.
func (c *Contract) SigningPayload() []byte {
	f := newFieldHash("ppj-contract")
	f.str(c.ID)
	f.u64(uint64(len(c.Parties)))
	for _, p := range c.Parties {
		f.str(p.Name)
		f.str(string(p.Role))
		f.bytes(p.Identity)
	}
	f.str(c.Predicate.Kind)
	f.str(c.Predicate.AttrA)
	f.str(c.Predicate.AttrB)
	f.u64(math.Float64bits(c.Predicate.Param))
	f.str(c.Algorithm)
	f.u64(math.Float64bits(c.Epsilon))
	f.str(c.Aggregate.Kind)
	f.u64(uint64(c.Aggregate.Table))
	f.str(c.Aggregate.Attr)
	f.str(c.Tenant)
	return f.Sum(nil)
}

// Sign appends party i's signature.
func (c *Contract) Sign(i int, key ed25519.PrivateKey) {
	for len(c.Signatures) <= i {
		c.Signatures = append(c.Signatures, nil)
	}
	c.Signatures[i] = ed25519.Sign(key, c.SigningPayload())
}

// Verify checks that every data owner signed.
func (c *Contract) Verify() error {
	payload := c.SigningPayload()
	for i, p := range c.Parties {
		if p.Role != RoleProvider {
			continue
		}
		if i >= len(c.Signatures) || !ed25519.Verify(p.Identity, payload, c.Signatures[i]) {
			return fmt.Errorf("service: contract %s not signed by %s", c.ID, p.Name)
		}
	}
	return nil
}

// PartyIndex finds a named party.
func (c *Contract) PartyIndex(name string) int {
	for i, p := range c.Parties {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// --- Handshake messages (frame.go carries them) ---

// Hello opens a session. ContractID names the contract the requestor wants
// to act under, so one listener can serve many contracts (the multi-tenant
// server in internal/server routes sessions by it). An empty ContractID is
// accepted by single-contract services for backward compatibility.
type Hello struct {
	Party      string
	Role       Role
	Challenge  []byte // attestation nonce
	ContractID string
	// Proto is the protocol version the requestor speaks. Exactly one is
	// served — ProtoVersion; Handshake refuses every other value, including
	// the zero an encoder without the field produces.
	Proto byte
	// ResumeChunks is a recipient's resume offset in whole result chunks:
	// the server starts the result stream at this chunk instead of 0, so a
	// recipient that disconnected mid-delivery — even across a server
	// restart — fetches only what it is missing. Meaningful only for
	// RoleRecipient hellos.
	ResumeChunks uint32
	// JobID addresses one execution of the contract when the contract has
	// been resubmitted (see server.Resubmit). Empty — what every pre-job
	// client sends — routes to the contract's latest execution, so old
	// clients keep working against re-executed contracts.
	JobID string
}

// serverAuthMsg carries the device attestation and the service's ephemeral
// key-agreement public key, signed by the attested application layer so the
// session binds to the attested code.
type serverAuthMsg struct {
	Att     secop.Attestation
	ECDHPub []byte
	Sig     []byte // app-layer signature over Challenge || ECDHPub
}

// clientKeyMsg completes key agreement and authenticates the client.
type clientKeyMsg struct {
	ECDHPub []byte
	Sig     []byte // identity signature over serverECDHPub || clientECDHPub
}

// schemaWire transports a schema as its attribute list.
type schemaWire struct {
	Attrs []relation.Attr
}

func toWire(s *relation.Schema) schemaWire {
	attrs := make([]relation.Attr, s.NumAttrs())
	for i := range attrs {
		attrs[i] = s.Attr(i)
	}
	return schemaWire{Attrs: attrs}
}

func (w schemaWire) schema() (*relation.Schema, error) {
	return relation.NewSchema(w.Attrs...)
}

// fieldHash is SHA-256 over a labelled sequence of fields, each written as
// its 8-byte big-endian length and then its bytes, so two different field
// sequences never feed the hash the same input. It computes both the
// contract's signing payload and the begin-frame digests session rows are
// bound to.
type fieldHash struct{ hash.Hash }

func newFieldHash(label string) fieldHash {
	f := fieldHash{sha256.New()}
	f.str(label)
	return f
}

func (f fieldHash) bytes(b []byte) {
	f.Write(binary.BigEndian.AppendUint64(nil, uint64(len(b))))
	f.Write(b)
}

func (f fieldHash) str(s string) { f.bytes([]byte(s)) }
func (f fieldHash) u64(v uint64) { f.bytes(binary.BigEndian.AppendUint64(nil, v)) }

// beginDigest starts the digest a stream's rows and end tag are bound to:
// the direction, the contract ID, and each schema attribute's name, type
// and width. Each begin frame writes the rest of its fields (its counts;
// for a delivery, the failure verdict and the resume geometry) and sums.
func beginDigest(dir, contractID string, schema schemaWire) fieldHash {
	f := newFieldHash("ppj-" + dir + "-begin")
	f.str(contractID)
	f.u64(uint64(len(schema.Attrs)))
	for _, a := range schema.Attrs {
		f.str(a.Name)
		f.u64(uint64(a.Type))
		f.u64(uint64(a.Width))
	}
	return f
}

// sessionSealer is one direction of a session: AES-GCM under that
// direction's own key. A message's associated data is its sequence number
// in the direction and the digest of its stream's begin frame, so a
// duplicated, reordered or reflected message, or one relayed under a begin
// frame other than the one it was sealed under (another contract, schema,
// declaration or resume geometry), fails to open with sim.ErrTamper. Each
// direction's messages are opened exactly once, in send order; a resumed
// delivery is a new session with a new sequence.
type sessionSealer struct {
	g   *sim.GCMSealer
	seq uint64
	buf [8 + sha256.Size]byte // the AD; one goroutine seals or opens a direction
}

// ad returns the associated data of the direction's next message in the
// stream whose begin frame digests to begin.
func (s *sessionSealer) ad(begin []byte) []byte {
	s.seq++
	binary.BigEndian.PutUint64(s.buf[:8], s.seq)
	return append(s.buf[:8], begin...)
}

func (s *sessionSealer) seal(pt, begin []byte) []byte {
	return s.g.SealAD(nil, pt, s.ad(begin))
}

func (s *sessionSealer) open(ct, begin []byte) ([]byte, error) {
	return s.g.OpenAD(nil, ct, s.ad(begin))
}

// Session directions: the client seals with dirClient, the server with
// dirServer.
const dirClient, dirServer = 'c', 's'

// sessionSealers derives one end's two directions from the ECDH shared
// secret and the transcript: the sealer under sealDir's key and the opener
// under openDir's. The direction byte is hashed into each key because each
// direction's GCMSealer counts nonces from 1.
func sessionSealers(shared, serverPub, clientPub []byte, sealDir, openDir byte) (seal, open *sessionSealer, err error) {
	var dirs [2]*sessionSealer
	for i, dir := range [2]byte{sealDir, openDir} {
		h := sha256.New()
		h.Write(append([]byte("ppj-session-v3"), dir))
		h.Write(shared)
		h.Write(serverPub)
		h.Write(clientPub)
		g, err := sim.NewGCMSealer(h.Sum(nil)[:16])
		if err != nil {
			return nil, nil, err
		}
		dirs[i] = &sessionSealer{g: g}
	}
	return dirs[0], dirs[1], nil
}

// newECDHKey draws an ephemeral X25519 key.
func newECDHKey() (*ecdh.PrivateKey, error) {
	return ecdh.X25519().GenerateKey(rand.Reader)
}
