package service

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"testing"

	"ppj/internal/relation"
)

func TestContractJSONRoundTrip(t *testing.T) {
	pA, pB, pC := newParty(t, "p1"), newParty(t, "p2"), newParty(t, "r")
	c := buildContract(t, "alg6", pA, pB, pC,
		PredicateSpec{Kind: "band", AttrA: "x", AttrB: "y", Param: 2.5}, 1e-12)

	var buf bytes.Buffer
	if err := WriteContract(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ReadContract(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != c.ID || back.Algorithm != "alg6" || back.Epsilon != 1e-12 {
		t.Fatalf("fields lost: %+v", back)
	}
	if back.Predicate != c.Predicate {
		t.Fatalf("predicate lost: %+v", back.Predicate)
	}
	if len(back.Parties) != 3 || !back.Parties[0].Identity.Equal(pA.pub) {
		t.Fatal("parties lost")
	}
	// Signatures must still verify after the round trip.
	if err := back.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalContractRejectsTampering(t *testing.T) {
	pA, pB, pC := newParty(t, "p1"), newParty(t, "p2"), newParty(t, "r")
	c := buildContract(t, "alg5", pA, pB, pC,
		PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"}, 0)
	data, err := MarshalContract(c)
	if err != nil {
		t.Fatal(err)
	}
	// Change the contracted algorithm: the owners' signatures must fail.
	tampered := bytes.Replace(data, []byte(`"alg5"`), []byte(`"alg4"`), 1)
	if !bytes.Contains(tampered, []byte(`"alg4"`)) {
		t.Fatal("test setup: algorithm field not found")
	}
	if _, err := UnmarshalContract(tampered); err == nil {
		t.Fatal("tampered contract accepted")
	}
	if _, err := UnmarshalContract([]byte("{not json")); err == nil {
		t.Fatal("malformed json accepted")
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
