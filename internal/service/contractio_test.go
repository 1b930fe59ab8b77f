package service

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"ppj/internal/relation"
)

// TestContractJSONRoundTrip: a contract that sets every field survives
// its frame codec whole, signatures included, and encodes the same again.
func TestContractJSONRoundTrip(t *testing.T) {
	pA, pB, pC := newParty(t, "p1"), newParty(t, "p2"), newParty(t, "r")
	c := buildContract(t, "aggregate", pA, pB, pC,
		PredicateSpec{Kind: "band", AttrA: "x", AttrB: "y", Param: 2.5}, 1e-12)
	c.Aggregate, c.Tenant = AggregateSpec{Kind: "SUM", Table: 1, Attr: "y"}, "clinic-7"
	c.Sign(0, pA.priv)
	c.Sign(1, pB.priv)

	data := MarshalContract(c)
	back, err := UnmarshalContract(data)
	if err == nil {
		err = back.Verify()
	}
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, c) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", back, c)
	}
	if !bytes.Equal(MarshalContract(back), data) {
		t.Fatal("the decoded contract encodes to other bytes")
	}
}

// TestUnmarshalContractRejectsTampering: a contract whose bytes had any
// one byte flipped, or lost or gained a byte, fails to parse or fails its
// owners' signatures, and a well-formed contract whose signed fields
// changed after signing fails them.
func TestUnmarshalContractRejectsTampering(t *testing.T) {
	pA, pB, pC := newParty(t, "p1"), newParty(t, "p2"), newParty(t, "r")
	c := buildContract(t, "alg5", pA, pB, pC,
		PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"}, 0)
	accepted := func(data []byte) bool {
		back, err := UnmarshalContract(data)
		return err == nil && back.Verify() == nil
	}
	data := MarshalContract(c)
	if !accepted(data) {
		t.Fatal("the signed contract is refused")
	}
	for i := range data {
		tampered := bytes.Clone(data)
		tampered[i] ^= 0x01
		if accepted(tampered) {
			t.Fatalf("contract with byte %d of %d flipped accepted", i, len(data))
		}
	}
	if accepted(data[:len(data)-1]) || accepted(append(bytes.Clone(data), 0)) {
		t.Fatal("a contract a byte short or long accepted")
	}
	// Change the contracted algorithm: the owners' signatures must fail.
	c.Algorithm = "alg4"
	if accepted(MarshalContract(c)) {
		t.Fatal("contract re-encoded with another algorithm accepted")
	}
}

// TestContractSizeIndependentOfValues: an encoded contract's length is a
// function of its strings' lengths and its party and signature counts,
// never of its numbers (ε, the predicate parameter, the aggregate table).
func TestContractSizeIndependentOfValues(t *testing.T) {
	size := func(v uint64) int {
		c := &Contract{ID: "c", Parties: []Party{{Name: "p", Identity: make([]byte, 32), Role: RoleProvider}},
			Predicate: PredicateSpec{Kind: "band", AttrA: "a", AttrB: "b", Param: math.Float64frombits(v)},
			Algorithm: "alg5", Epsilon: math.Float64frombits(v),
			Aggregate: AggregateSpec{Kind: "SUM", Table: int(v), Attr: "a"}, Signatures: [][]byte{make([]byte, 64)}}
		return len(MarshalContract(c))
	}
	for _, v := range []uint64{1, 255, 1 << 31, math.MaxUint64} {
		if got, want := size(v), size(0); got != want {
			t.Errorf("with numbers %d a contract is %d bytes, with zeros %d", v, got, want)
		}
	}
}

func TestThreeProviderService(t *testing.T) {
	// Chapter 5 treats arbitrary numbers of providers; exercise a 3-way
	// equijoin through the full network service with Algorithm 5.
	parties := []testParty{
		newParty(t, "h1"), newParty(t, "h2"), newParty(t, "h3"), newParty(t, "res"),
	}
	c := &Contract{
		ID: "threeway-1",
		Parties: []Party{
			{Name: "h1", Identity: parties[0].pub, Role: RoleProvider},
			{Name: "h2", Identity: parties[1].pub, Role: RoleProvider},
			{Name: "h3", Identity: parties[2].pub, Role: RoleProvider},
			{Name: "res", Identity: parties[3].pub, Role: RoleRecipient},
		},
		Predicate: PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"},
		Algorithm: "alg5",
	}
	for i := 0; i < 3; i++ {
		c.Sign(i, parties[i].priv)
	}
	svc, err := NewService(c, 8, 3)
	if err != nil {
		t.Fatal(err)
	}

	mk := func(seed uint64, n int) *relation.Relation {
		return relation.GenKeyed(relation.NewRand(seed), n, 4)
	}
	rels := []*relation.Relation{mk(1, 5), mk(2, 6), mk(3, 4)}

	var result *relation.Relation
	if err := execute(svc, parties[:3], rels, parties[3], func(cs *ClientSession) (err error) {
		result, err = cs.ReceiveResult()
		return err
	}); err != nil {
		t.Fatal(err)
	}

	pred := relation.MultiPredicateFunc{
		Fn: func(rs []relation.Row) bool {
			return rs[0].Int(0) == rs[1].Int(0) && rs[1].Int(0) == rs[2].Int(0)
		},
		Desc: "all keys equal",
	}
	want := relation.ReferenceMultiJoin(rels, pred)
	if !relation.SameMultiset(result, want) {
		t.Fatalf("3-way service join: got %d rows, want %d", result.Len(), want.Len())
	}
}

// TestContractSigningPayloadKnownAnswer pins the bytes every owner signs.
// Recovery re-verifies each journaled contract against SigningPayload, so
// any change to what it hashes, or in which order, would orphan every
// signed contract already on disk. The payload is itself a SHA-256 digest
// of the length-prefixed signed fields; the test pins it as hex for one
// fixed contract that sets every hashed field.
func TestContractSigningPayloadKnownAnswer(t *testing.T) {
	identity := func(seed byte) ed25519.PublicKey {
		return ed25519.NewKeyFromSeed(bytes.Repeat([]byte{seed}, ed25519.SeedSize)).Public().(ed25519.PublicKey)
	}
	c := &Contract{
		ID: "contract-kat",
		Parties: []Party{
			{Name: "hospital", Identity: identity(1), Role: RoleProvider},
			{Name: "insurer", Identity: identity(2), Role: RoleProvider},
			{Name: "auditor", Identity: identity(3), Role: RoleRecipient},
		},
		Predicate: PredicateSpec{Kind: "equi", AttrA: "patient", AttrB: "patient"},
		Algorithm: "aggregate",
		Epsilon:   1e-6,
		Aggregate: AggregateSpec{Kind: "SUM", Table: 1, Attr: "claim"},
		Tenant:    "clinic-7",
	}
	const want = "0cc514ac645fc92aafbbc6cd982b626f63a85aa46bb1e29181ebef84060812d3"
	if got := hex.EncodeToString(c.SigningPayload()); got != want {
		t.Fatalf("SigningPayload = %s, want %s", got, want)
	}
}

// TestContractSigningPayloadUnambiguous: moving bytes across the boundary
// of two adjacent string fields changes the payload, so one owner
// signature never covers a join on another attribute pair, another
// aggregated attribute or another tenant.
func TestContractSigningPayloadUnambiguous(t *testing.T) {
	base := func() *Contract {
		return &Contract{ID: "c", Predicate: PredicateSpec{Kind: "equi"}, Algorithm: "aggregate"}
	}
	for name, pair := range map[string][2]func(*Contract){
		"join attributes": {
			func(c *Contract) { c.Predicate.AttrA, c.Predicate.AttrB = "ab", "c" },
			func(c *Contract) { c.Predicate.AttrA, c.Predicate.AttrB = "a", "bc" },
		},
		"aggregate attribute and tenant": {
			func(c *Contract) { c.Aggregate.Attr, c.Tenant = "ab", "c" },
			func(c *Contract) { c.Aggregate.Attr, c.Tenant = "a", "bc" },
		},
	} {
		a, b := base(), base()
		pair[0](a)
		pair[1](b)
		if bytes.Equal(a.SigningPayload(), b.SigningPayload()) {
			t.Errorf("%s: two contracts share a signing payload", name)
		}
	}
}
