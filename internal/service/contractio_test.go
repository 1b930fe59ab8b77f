package service

import (
	"bytes"
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
		Fn: func(ts []relation.Tuple) bool {
			return ts[0][0].I == ts[1][0].I && ts[1][0].I == ts[2][0].I
		},
		Desc: "all keys equal",
	}
	want := relation.ReferenceMultiJoin(rels, pred)
	if !relation.SameMultiset(result, want) {
		t.Fatalf("3-way service join: got %d rows, want %d", result.Len(), want.Len())
	}
}
