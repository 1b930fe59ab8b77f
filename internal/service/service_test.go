package service

import (
	"crypto/ed25519"
	"io"
	"net"
	"strings"
	"testing"

	"ppj/internal/core"
	"ppj/internal/relation"
)

// testParty bundles a party's identity and client.
type testParty struct {
	name string
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

func newParty(t *testing.T, name string) testParty {
	t.Helper()
	pub, priv, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	return testParty{name: name, pub: pub, priv: priv}
}

// buildContract assembles and signs a 2-provider contract.
func buildContract(t *testing.T, alg string, pA, pB, pC testParty, pred PredicateSpec, eps float64) *Contract {
	t.Helper()
	c := &Contract{
		ID: "contract-001",
		Parties: []Party{
			{Name: pA.name, Identity: pA.pub, Role: RoleProvider},
			{Name: pB.name, Identity: pB.pub, Role: RoleProvider},
			{Name: pC.name, Identity: pC.pub, Role: RoleRecipient},
		},
		Predicate: pred,
		Algorithm: alg,
		Epsilon:   eps,
	}
	c.Sign(0, pA.priv)
	c.Sign(1, pB.priv)
	return c
}

// accept reads the hello on conn and completes the handshake against svc's
// contract.
func accept(svc *Service, conn io.ReadWriter) (*Session, Party, error) {
	sess, hello, err := ReadHello(conn)
	if err != nil {
		return nil, Party{}, err
	}
	party, err := svc.Handshake(sess, hello)
	return sess, party, err
}

// execute runs one execution of svc over net.Pipe connections. The server
// side goes through the seams server.Server drives — each party's handshake
// and each provider's upload in turn, then one RunContract delivered to the
// recipient — in the background while the parties take their turns:
// provider i uploads rels[i], then the recipient connects and recv reads.
func execute(svc *Service, providers []testParty, rels []*relation.Relation, recipient testParty, recv func(*ClientSession) error) error {
	servers, clients := make([]io.ReadWriter, len(providers)+1), make([]net.Conn, len(providers)+1)
	for i := range clients {
		servers[i], clients[i] = net.Pipe()
		defer clients[i].Close()
	}
	served := make(chan error, 1)
	go func() {
		var deliver []*Session
		for _, conn := range servers {
			sess, party, err := accept(svc, conn)
			if err == nil && party.Role == RoleRecipient {
				deliver = append(deliver, sess)
			} else if err == nil {
				err = svc.ReceiveUpload(party.Name, sess)
			}
			if err != nil {
				served <- err
				return
			}
		}
		out := svc.RunContract()
		for _, sess := range deliver {
			if err := svc.DeliverStream(sess, out, 0); err != nil {
				served <- err
				return
			}
		}
		served <- out.Err
	}()
	connect := func(p testParty, conn io.ReadWriter, role Role) (*ClientSession, error) {
		return (&Client{Name: p.name, Identity: p.priv, DeviceKey: svc.Device.DeviceKey(), Expected: ExpectedStack()}).ConnectContract(conn, role, "")
	}
	for i, p := range providers {
		cs, err := connect(p, clients[i], RoleProvider)
		if err == nil {
			err = cs.SubmitRelation(svc.Contract.ID, rels[i])
		}
		if err != nil {
			return err
		}
	}
	cs, err := connect(recipient, clients[len(providers)], RoleRecipient)
	if err == nil {
		err = recv(cs)
	}
	if err != nil {
		return err
	}
	return <-served
}

// runService executes the full three-party flow and returns the
// recipient's decoded result.
func runService(t *testing.T, svc *Service, pA, pB, pC testParty, relA, relB *relation.Relation) (*relation.Relation, error) {
	t.Helper()
	var result *relation.Relation
	err := execute(svc, []testParty{pA, pB}, []*relation.Relation{relA, relB}, pC, func(cs *ClientSession) (err error) {
		result, err = cs.ReceiveResult()
		return err
	})
	return result, err
}

func TestEndToEndAllAlgorithms(t *testing.T) {
	pA, pB, pC := newParty(t, "airline"), newParty(t, "agency"), newParty(t, "analyst")
	relA := relation.GenKeyed(relation.NewRand(1), 8, 5)
	relB := relation.GenKeyed(relation.NewRand(2), 10, 5)
	pred := PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"}
	want := func() *relation.Relation {
		eq, _ := relation.NewEqui(relA.Schema, "key", relB.Schema, "key")
		return relation.ReferenceJoin(relA, relB, eq)
	}()
	for _, alg := range core.Algorithms {
		t.Run(alg.Name, func(t *testing.T) {
			contract := buildContract(t, alg.Name, pA, pB, pC, pred, 1e-9)
			svc, err := NewService(contract, 8, 99)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runService(t, svc, pA, pB, pC, relA, relB)
			if err != nil {
				t.Fatal(err)
			}
			// The recipient sees exactly the reference join — decoys gone.
			gotSet := relation.Multiset(got)
			wantSet := relation.Multiset(want)
			if len(gotSet) != len(wantSet) || got.Len() != want.Len() {
				t.Fatalf("recipient got %d rows, want %d", got.Len(), want.Len())
			}
			for k, v := range wantSet {
				if gotSet[k] != v {
					t.Fatalf("row multiplicity mismatch")
				}
			}
		})
	}
}

func TestEndToEndBandPredicate(t *testing.T) {
	pA, pB, pC := newParty(t, "p1"), newParty(t, "p2"), newParty(t, "r")
	relA := relation.GenKeyed(relation.NewRand(3), 6, 10)
	relB := relation.GenKeyed(relation.NewRand(4), 7, 10)
	pred := PredicateSpec{Kind: "band", AttrA: "key", AttrB: "key", Param: 1}
	contract := buildContract(t, "alg5", pA, pB, pC, pred, 0)
	svc, err := NewService(contract, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runService(t, svc, pA, pB, pC, relA, relB)
	if err != nil {
		t.Fatal(err)
	}
	band, _ := relation.NewBand(relA.Schema, "key", relB.Schema, "key", 1)
	want := relation.ReferenceJoin(relA, relB, band)
	if got.Len() != want.Len() {
		t.Fatalf("band join: got %d rows, want %d", got.Len(), want.Len())
	}
}

func TestContractSignatureRequired(t *testing.T) {
	pA, pB, pC := newParty(t, "p1"), newParty(t, "p2"), newParty(t, "r")
	c := &Contract{
		ID: "c1",
		Parties: []Party{
			{Name: pA.name, Identity: pA.pub, Role: RoleProvider},
			{Name: pB.name, Identity: pB.pub, Role: RoleProvider},
			{Name: pC.name, Identity: pC.pub, Role: RoleRecipient},
		},
		Predicate: PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"},
		Algorithm: "alg5",
	}
	c.Sign(0, pA.priv) // pB never signs
	if _, err := NewService(c, 4, 1); err == nil {
		t.Fatal("unsigned contract accepted")
	}
	// A signature by the wrong key must also fail.
	c.Sign(1, pC.priv)
	if _, err := NewService(c, 4, 1); err == nil {
		t.Fatal("wrongly-signed contract accepted")
	}
}

func TestImpostorRejected(t *testing.T) {
	pA, pB, pC := newParty(t, "p1"), newParty(t, "p2"), newParty(t, "r")
	contract := buildContract(t, "alg5", pA, pB, pC,
		PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"}, 0)
	svc, err := NewService(contract, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	server, clientConn := net.Pipe()
	done := make(chan error, 1)
	go func() {
		_, _, err := accept(svc, server)
		done <- err
	}()
	impostor := &Client{
		Name:      pA.name, // claims to be p1
		Identity:  pC.priv, // but holds r's key
		DeviceKey: svc.Device.DeviceKey(),
		Expected:  ExpectedStack(),
	}
	_, clientErr := impostor.ConnectContract(clientConn, RoleProvider, "")
	serverErr := <-done
	if serverErr == nil && clientErr == nil {
		t.Fatal("impostor session accepted")
	}
	if serverErr != nil && !strings.Contains(serverErr.Error(), "authentication") {
		t.Fatalf("unexpected server error: %v", serverErr)
	}
}

func TestWrongDeviceRejectedByClient(t *testing.T) {
	pA, pB, pC := newParty(t, "p1"), newParty(t, "p2"), newParty(t, "r")
	contract := buildContract(t, "alg5", pA, pB, pC,
		PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"}, 0)
	svc, err := NewService(contract, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Client pins a different device key.
	otherSvc, err := NewService(contract, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	server, clientConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		accept(svc, server)
	}()
	c := &Client{
		Name:      pA.name,
		Identity:  pA.priv,
		DeviceKey: otherSvc.Device.DeviceKey(),
		Expected:  ExpectedStack(),
	}
	if _, err := c.ConnectContract(clientConn, RoleProvider, ""); err == nil {
		t.Fatal("client accepted the wrong device")
	}
	// Unblock the server side, which is waiting for the key message the
	// client rightly refused to send.
	clientConn.Close()
	server.Close()
	<-done
}

func TestUnknownPartyRejected(t *testing.T) {
	pA, pB, pC := newParty(t, "p1"), newParty(t, "p2"), newParty(t, "r")
	contract := buildContract(t, "alg5", pA, pB, pC,
		PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"}, 0)
	svc, err := NewService(contract, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	server, clientConn := net.Pipe()
	done := make(chan error, 1)
	go func() {
		_, _, err := accept(svc, server)
		done <- err
	}()
	mallory := newParty(t, "mallory")
	c := &Client{Name: "mallory", Identity: mallory.priv,
		DeviceKey: svc.Device.DeviceKey(), Expected: ExpectedStack()}
	// The server rejects after the hello and never answers; run the client
	// in the background and unblock it by closing the pipe once the server
	// verdict is in.
	go c.ConnectContract(clientConn, RoleProvider, "")
	err = <-done
	clientConn.Close()
	server.Close()
	if err == nil || !strings.Contains(err.Error(), "not in contract") {
		t.Fatalf("unknown party error = %v", err)
	}
}

func TestZeroizedDeviceCannotServe(t *testing.T) {
	pA, pB, pC := newParty(t, "p1"), newParty(t, "p2"), newParty(t, "r")
	contract := buildContract(t, "alg5", pA, pB, pC,
		PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"}, 0)
	svc, err := NewService(contract, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc.Device.Tamper()
	server, clientConn := net.Pipe()
	done := make(chan error, 1)
	go func() {
		_, _, err := accept(svc, server)
		done <- err
	}()
	c := &Client{Name: pA.name, Identity: pA.priv,
		DeviceKey: svc.Device.DeviceKey(), Expected: ExpectedStack()}
	go c.ConnectContract(clientConn, RoleProvider, "")
	err = <-done
	clientConn.Close()
	server.Close()
	if err == nil {
		t.Fatal("zeroized device served a session")
	}
}

func TestPredicateSpecValidation(t *testing.T) {
	s := relation.KeyedSchema()
	if _, err := (PredicateSpec{Kind: "nope"}).Build(s, s); err == nil {
		t.Fatal("unknown predicate kind accepted")
	}
	if _, err := (PredicateSpec{Kind: "equi", AttrA: "missing", AttrB: "key"}).Build(s, s); err == nil {
		t.Fatal("missing attribute accepted")
	}
}

func TestEndToEndAggregateContract(t *testing.T) {
	pA, pB, pC := newParty(t, "hospital"), newParty(t, "genebank"), newParty(t, "study")
	relA := relation.GenKeyed(relation.NewRand(31), 9, 5)
	relB := relation.GenKeyed(relation.NewRand(32), 11, 5)
	c := &Contract{
		ID: "agg-contract-1",
		Parties: []Party{
			{Name: pA.name, Identity: pA.pub, Role: RoleProvider},
			{Name: pB.name, Identity: pB.pub, Role: RoleProvider},
			{Name: pC.name, Identity: pC.pub, Role: RoleRecipient},
		},
		Predicate: PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"},
		Algorithm: "aggregate",
		Aggregate: AggregateSpec{Kind: "count"},
	}
	c.Sign(0, pA.priv)
	c.Sign(1, pB.priv)
	svc, err := NewService(c, 8, 5)
	if err != nil {
		t.Fatal(err)
	}

	var outcome AggOutcome
	if err := execute(svc, []testParty{pA, pB}, []*relation.Relation{relA, relB}, pC, func(cs *ClientSession) (err error) {
		outcome, err = cs.ReceiveAggregate()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	eq, _ := relation.NewEqui(relA.Schema, "key", relB.Schema, "key")
	want := relation.ReferenceJoin(relA, relB, eq).Len()
	if outcome.Count != int64(want) || !outcome.Valid {
		t.Fatalf("aggregate = %+v, want count %d", outcome, want)
	}
}

func TestAggregateSpecValidation(t *testing.T) {
	pA, pB, pC := newParty(t, "p1"), newParty(t, "p2"), newParty(t, "r")
	c := buildContract(t, "aggregate", pA, pB, pC,
		PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"}, 0)
	c.Aggregate = AggregateSpec{Kind: "median"} // unsupported
	c.Signatures = nil
	c.Sign(0, pA.priv)
	c.Sign(1, pB.priv)
	if _, err := NewService(c, 8, 5); err == nil || !strings.Contains(err.Error(), "unknown aggregate kind") {
		t.Fatalf("unknown aggregate kind admitted: %v", err)
	}
}

// TestAdmissionRefusesUnknownNames: a contract naming an algorithm or a
// predicate kind the service cannot run is refused when the service is
// built, before any upload, not when a worker picks the job up.
func TestAdmissionRefusesUnknownNames(t *testing.T) {
	pA, pB, pC := newParty(t, "p1"), newParty(t, "p2"), newParty(t, "r")
	for _, tc := range []struct {
		alg, kind, want string
	}{
		{"alg8", "equi", "unknown algorithm"},
		{"alg5", "nope", "unknown predicate kind"},
	} {
		c := buildContract(t, tc.alg, pA, pB, pC, PredicateSpec{Kind: tc.kind, AttrA: "key", AttrB: "key"}, 0)
		if _, err := NewService(c, 8, 5); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s/%s admitted: %v", tc.alg, tc.kind, err)
		}
	}
}

func TestUploadBoundToContract(t *testing.T) {
	// Rows sealed for a different contract ID must be rejected by T: the
	// contract binding of §3.3.3.
	pA, pB, pC := newParty(t, "p1"), newParty(t, "p2"), newParty(t, "r")
	contract := buildContract(t, "alg5", pA, pB, pC,
		PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"}, 0)
	svc, err := NewService(contract, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	server, clientConn := net.Pipe()
	type hsOut struct {
		sess *Session
		err  error
	}
	done := make(chan hsOut, 1)
	go func() {
		sess, _, err := accept(svc, server)
		done <- hsOut{sess, err}
	}()
	c := &Client{Name: pA.name, Identity: pA.priv,
		DeviceKey: svc.Device.DeviceKey(), Expected: ExpectedStack()}
	cs, err := c.ConnectContract(clientConn, RoleProvider, "")
	if err != nil {
		t.Fatal(err)
	}
	hs := <-done
	if hs.err != nil {
		t.Fatal(hs.err)
	}
	rel := relation.GenKeyed(relation.NewRand(1), 3, 3)
	go cs.SubmitRelation("some-other-contract", rel)
	if err := svc.ReceiveUpload(pA.name, hs.sess); err == nil ||
		!strings.Contains(err.Error(), "foreign contract") {
		t.Fatalf("foreign-contract upload error = %v", err)
	}
}

func TestDuplicateUploadRejected(t *testing.T) {
	pA, pB, pC := newParty(t, "p1"), newParty(t, "p2"), newParty(t, "r")
	contract := buildContract(t, "alg5", pA, pB, pC,
		PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"}, 0)
	svc, err := NewService(contract, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rel := relation.GenKeyed(relation.NewRand(1), 3, 3)
	svc.uploads[pA.name] = &upload{rel: rel}
	// Simulate the second upload arriving: receiveUpload's final map insert
	// must refuse. Drive it through a real session pair.
	server, clientConn := net.Pipe()
	type hsOut struct {
		sess *Session
		err  error
	}
	done := make(chan hsOut, 1)
	go func() {
		sess, _, err := accept(svc, server)
		done <- hsOut{sess, err}
	}()
	c := &Client{Name: pA.name, Identity: pA.priv,
		DeviceKey: svc.Device.DeviceKey(), Expected: ExpectedStack()}
	cs, err := c.ConnectContract(clientConn, RoleProvider, "")
	if err != nil {
		t.Fatal(err)
	}
	hs := <-done
	if hs.err != nil {
		t.Fatal(hs.err)
	}
	go cs.SubmitRelation(contract.ID, rel)
	if err := svc.ReceiveUpload(pA.name, hs.sess); err == nil ||
		!strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate upload error = %v", err)
	}
}

func TestEndToEndJaccardPredicate(t *testing.T) {
	// A similarity-join contract: exercises Set attributes through the gob
	// transport and the jaccard predicate spec.
	pA, pB, pC := newParty(t, "genebank"), newParty(t, "hospital"), newParty(t, "study")
	rng := relation.NewRand(91)
	relA := relation.GenSequences(rng, 6, 6, 10, 16)
	relB := relation.GenSequences(rng, 8, 6, 10, 16)
	pred := PredicateSpec{Kind: "jaccard", AttrA: "kmers", AttrB: "kmers", Param: 0.25}
	contract := buildContract(t, "alg4", pA, pB, pC, pred, 0)
	svc, err := NewService(contract, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runService(t, svc, pA, pB, pC, relA, relB)
	if err != nil {
		t.Fatal(err)
	}
	jac, err := relation.NewJaccard(relA.Schema, "kmers", relB.Schema, "kmers", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.ReferenceJoin(relA, relB, jac)
	if got.Len() != want.Len() {
		t.Fatalf("jaccard join: got %d rows, want %d", got.Len(), want.Len())
	}
}
