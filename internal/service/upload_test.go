package service

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"

	"ppj/internal/relation"
)

// newUploadFixture builds a signed alg5 contract and its service with the
// given ingest limits, returning the service and its first provider.
func newUploadFixture(t *testing.T, maxBytes int64, window int) (*Service, testParty) {
	t.Helper()
	pA, pB, pC := newParty(t, "p1"), newParty(t, "p2"), newParty(t, "r")
	contract := buildContract(t, "alg5", pA, pB, pC,
		PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"}, 0)
	svc, err := NewService(contract, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc.MaxUploadBytes = maxBytes
	svc.UploadWindow = window
	return svc, pA
}

// dialProvider completes a provider handshake over a net.Pipe, returning the
// server session, the client session, and the client's pipe end (closing it
// simulates a vanished peer). Both ends close at cleanup so blocked decoders
// unwind.
func dialProvider(t *testing.T, svc *Service, p testParty) (*Session, *ClientSession, net.Conn) {
	t.Helper()
	serverEnd, clientEnd := net.Pipe()
	t.Cleanup(func() { serverEnd.Close(); clientEnd.Close() })
	type hsOut struct {
		sess *Session
		err  error
	}
	done := make(chan hsOut, 1)
	go func() {
		sess, _, err := accept(svc, serverEnd)
		done <- hsOut{sess, err}
	}()
	c := &Client{Name: p.name, Identity: p.priv,
		DeviceKey: svc.Device.DeviceKey(), Expected: ExpectedStack()}
	cs, err := c.Connect(clientEnd, RoleProvider)
	if err != nil {
		t.Fatal(err)
	}
	hs := <-done
	if hs.err != nil {
		t.Fatal(hs.err)
	}
	return hs.sess, cs, clientEnd
}

// uploadOnce drives one complete provider upload through the real producer
// and ReceiveUpload, returning the server's verdict and the client's.
func uploadOnce(t *testing.T, svc *Service, p testParty, contractID string, rel *relation.Relation, chunkRows int) (srvErr, cliErr error) {
	t.Helper()
	sess, cs, clientEnd := dialProvider(t, svc, p)
	done := make(chan error, 1)
	go func() {
		done <- cs.SubmitRelationOpts(contractID, rel, UploadOptions{ChunkRows: chunkRows})
	}()
	srvErr = svc.ReceiveUpload(p.name, sess)
	if srvErr != nil {
		// The producer may be blocked mid-write on a stream the server has
		// abandoned; any refusal verdict was already read by its ack reader,
		// so closing only unblocks a doomed write.
		clientEnd.Close()
	}
	return srvErr, <-done
}

// TestUploadLimitsRefuseBeforeRows pins both byte-budget enforcement points:
// an impossible declaration is refused at the begin frame before a single
// row is sealed, and a truthful declaration that still overruns the budget
// dies mid-stream — in both cases with ErrUploadTooLarge on the server and
// the refusal text on the producer.
func TestUploadLimitsRefuseBeforeRows(t *testing.T) {
	t.Run("refused at begin", func(t *testing.T) {
		svc, pA := newUploadFixture(t, 100, 0)
		rel := relation.GenKeyed(relation.NewRand(2), 50, 5)
		srvErr, cliErr := uploadOnce(t, svc, pA, svc.Contract.ID, rel, 8)
		if !errors.Is(srvErr, ErrUploadTooLarge) {
			t.Fatalf("server = %v", srvErr)
		}
		if cliErr == nil || !strings.Contains(cliErr.Error(), "upload refused") {
			t.Fatalf("client = %v", cliErr)
		}
	})

	t.Run("budget overrun mid-stream", func(t *testing.T) {
		// 8 declared rows pass the begin check at exactly 8 minimum-size rows,
		// but every real sealed row is larger, so the budget dies mid-stream.
		svc, pA := newUploadFixture(t, 8*minSealedRowBytes, 0)
		rel := relation.GenKeyed(relation.NewRand(3), 8, 5)
		srvErr, cliErr := uploadOnce(t, svc, pA, svc.Contract.ID, rel, 2)
		if !errors.Is(srvErr, ErrUploadTooLarge) || !strings.Contains(srvErr.Error(), "budget") {
			t.Fatalf("server = %v", srvErr)
		}
		// Depending on where the producer was blocked it sees either the
		// refusal nack or the abandoned stream; it must not succeed.
		if cliErr == nil {
			t.Fatal("client verdict missing for over-budget stream")
		}
	})
}

// TestStreamingRefusalReachesClient pins that a begin-stage verdict (here:
// rows sealed for a foreign contract) travels back to the producer as a
// refusal instead of a hang.
func TestStreamingRefusalReachesClient(t *testing.T) {
	svc, pA := newUploadFixture(t, 0, 0)
	rel := relation.GenKeyed(relation.NewRand(6), 4, 5)
	srvErr, cliErr := uploadOnce(t, svc, pA, "some-other-contract", rel, 2)
	if srvErr == nil || !strings.Contains(srvErr.Error(), "foreign contract") {
		t.Fatalf("server = %v", srvErr)
	}
	if cliErr == nil || !strings.Contains(cliErr.Error(), "foreign contract") {
		t.Fatalf("client = %v", cliErr)
	}
}

// TestFailedUploadReleasesSlot is the retry half of the reservation
// protocol: a refused upload must free the party's slot so the provider can
// reconnect, and the retry must commit.
func TestFailedUploadReleasesSlot(t *testing.T) {
	svc, pA := newUploadFixture(t, 0, 0)
	rel := relation.GenKeyed(relation.NewRand(7), 5, 5)
	if srvErr, _ := uploadOnce(t, svc, pA, "wrong-contract", rel, 2); srvErr == nil {
		t.Fatal("foreign-contract upload accepted")
	}
	if srvErr, cliErr := uploadOnce(t, svc, pA, svc.Contract.ID, rel, 2); srvErr != nil || cliErr != nil {
		t.Fatalf("retry failed: server=%v client=%v", srvErr, cliErr)
	}
	svc.mu.Lock()
	up := svc.uploads[pA.name]
	svc.mu.Unlock()
	if up == nil || up.pending || up.rel.Len() != rel.Len() {
		t.Fatalf("committed upload = %+v", up)
	}
}

// TestConcurrentUploadReservesSlot is the duplicate-race regression: the
// party's slot is claimed before any ciphertext is read, so a second stream
// racing a still-running first one fails immediately — it can never burn a
// decrypt pass or clobber the committed relation.
func TestConcurrentUploadReservesSlot(t *testing.T) {
	svc, pA := newUploadFixture(t, 0, 0)
	rel := relation.GenKeyed(relation.NewRand(8), 6, 5)

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.chunkConsumeHook = func(int) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}

	sess1, cs1, _ := dialProvider(t, svc, pA)
	first := make(chan error, 1)
	go func() { first <- svc.ReceiveUpload(pA.name, sess1) }()
	go cs1.SubmitRelationOpts(svc.Contract.ID, rel, UploadOptions{ChunkRows: 2})
	<-entered

	// First stream is parked mid-chunk: its reservation must already hold.
	svc.mu.Lock()
	up := svc.uploads[pA.name]
	pending := up != nil && up.pending
	svc.mu.Unlock()
	if !pending {
		t.Fatal("no pending reservation while first stream is mid-flight")
	}

	sess2, cs2, _ := dialProvider(t, svc, pA)
	go cs2.SubmitRelationOpts(svc.Contract.ID, rel, UploadOptions{ChunkRows: 2})
	if err := svc.ReceiveUpload(pA.name, sess2); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("concurrent duplicate = %v", err)
	}

	close(release)
	if err := <-first; err != nil {
		t.Fatalf("first upload: %v", err)
	}
	svc.mu.Lock()
	up = svc.uploads[pA.name]
	svc.mu.Unlock()
	if up == nil || up.pending || up.rel.Len() != rel.Len() {
		t.Fatalf("committed upload = %+v", up)
	}

	// And a third attempt after commit still reads as a duplicate.
	sess3, cs3, _ := dialProvider(t, svc, pA)
	go cs3.SubmitRelation(svc.Contract.ID, rel)
	if err := svc.ReceiveUpload(pA.name, sess3); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("post-commit duplicate = %v", err)
	}
}

// uploadedRows returns a committed upload's rows re-encoded via the schema.
func uploadedRows(t *testing.T, svc *Service, party string) [][]byte {
	t.Helper()
	svc.mu.Lock()
	up := svc.uploads[party]
	svc.mu.Unlock()
	if up == nil || up.pending {
		t.Fatalf("no committed upload for %s", party)
	}
	encs, err := up.rel.EncodeAll()
	if err != nil {
		t.Fatal(err)
	}
	return encs
}
