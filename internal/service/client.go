package service

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"io"

	"ppj/internal/core"
	"ppj/internal/relation"
	"ppj/internal/secop"
)

// Client is a service requestor: a data owner or a result recipient. It
// pins the device's public key and the expected software measurements out
// of band (the manufacturer publishes the device key; the join application
// is open source and its digest well known).
type Client struct {
	Name      string
	Identity  ed25519.PrivateKey
	DeviceKey ed25519.PublicKey
	Expected  secop.ExpectedStack
}

// ClientSession is an authenticated channel to the attested coprocessor.
type ClientSession struct {
	client *Client
	sess   *Session
}

// ConnectContract performs the handshake of §3.3.3: the client challenges
// the device, verifies its outbound authentication chain against the
// pinned measurements, and establishes an X25519 session key whose server
// share is signed by the attested application layer. The host relaying the
// traffic learns nothing but ciphertext. The hello names the contract, so a
// multi-tenant listener (internal/server) can route the session to it
// before attestation completes; a single-contract service also accepts an
// empty ID.
func (c *Client) ConnectContract(conn io.ReadWriter, role Role, contractID string) (*ClientSession, error) {
	return c.ConnectJobResume(conn, role, contractID, "", 0)
}

// ConnectJobResume is ConnectContract addressed to one execution of a
// resubmitted contract, from a resume offset. The hello carries the job ID
// server.Resubmit minted, so the session binds to that run instead of the
// contract's latest (an empty jobID), and a recipient that already consumed
// `resume` whole chunks of the result (ResultFetch.Chunks) reconnects with
// it and the server streams only the remainder.
func (c *Client) ConnectJobResume(conn io.ReadWriter, role Role, contractID, jobID string, resume uint32) (*ClientSession, error) {
	sess := newSession(conn)
	challenge := make([]byte, 32)
	if _, err := rand.Read(challenge); err != nil {
		return nil, err
	}
	if err := WriteHello(conn, Hello{Party: c.Name, Role: role, Challenge: challenge, ContractID: contractID, JobID: jobID, Proto: ProtoVersion, ResumeChunks: resume}); err != nil {
		return nil, err
	}
	var auth serverAuthMsg
	if err := sess.read(&auth); err != nil {
		return nil, fmt.Errorf("service: reading attestation: %w", err)
	}
	if err := secop.Verify(c.DeviceKey, c.Expected, auth.Att, challenge); err != nil {
		return nil, fmt.Errorf("service: attestation rejected: %w", err)
	}
	appKey := auth.Att.Chain[secop.App].SubjectKey
	if !ed25519.Verify(appKey, append(append([]byte(nil), challenge...), auth.ECDHPub...), auth.Sig) {
		return nil, errors.New("service: key agreement not bound to attested code")
	}

	eph, err := newECDHKey()
	if err != nil {
		return nil, err
	}
	transcript := append(append([]byte(nil), auth.ECDHPub...), eph.PublicKey().Bytes()...)
	if err := sess.send(&clientKeyMsg{
		ECDHPub: eph.PublicKey().Bytes(),
		Sig:     ed25519.Sign(c.Identity, transcript),
	}); err != nil {
		return nil, err
	}
	serverPub, err := ecdh.X25519().NewPublicKey(auth.ECDHPub)
	if err != nil {
		return nil, err
	}
	shared, err := eph.ECDH(serverPub)
	if err != nil {
		return nil, err
	}
	if sess.sealer, sess.opener, err = sessionSealers(shared, auth.ECDHPub, eph.PublicKey().Bytes(), dirClient, dirServer); err != nil {
		return nil, err
	}
	return &ClientSession{client: c, sess: sess}, nil
}

// UploadOptions configures the streaming producer.
type UploadOptions struct {
	// ChunkRows is the number of sealed rows per chunk frame. Zero selects
	// DefaultChunkRows; more rows than one chunk frame's cap holds are cut
	// to those it holds. The server's per-connection ingest memory is
	// bounded by its credit window times this chunk's wire size.
	ChunkRows int
}

// SubmitRelation uploads a provider's relation under the session key, each
// row bound to the contract ID through its begin frame, streamed in
// acknowledged chunks of the default chunk size.
func (cs *ClientSession) SubmitRelation(contractID string, rel *relation.Relation) error {
	return cs.SubmitRelationOpts(contractID, rel, UploadOptions{})
}

// SubmitRelationOpts is SubmitRelation with explicit streaming options. It
// is the streaming producer: a begin frame declaring the row count, then
// the rows as a chunk stream (stream.go) under the server-granted credit
// window, sealed lazily per chunk, so producer memory is one chunk plus the
// relation it already owns. It returns once the server confirms the
// completed upload, or with the server's refusal verdict.
func (cs *ClientSession) SubmitRelationOpts(contractID string, rel *relation.Relation, opt UploadOptions) error {
	chunkRows := opt.ChunkRows
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	chunkRows = min(chunkRows, chunkRowsCap(rel.Schema.TupleSize()))
	begin := uploadBeginMsg{
		ContractID:   contractID,
		Schema:       toWire(rel.Schema),
		DeclaredRows: int64(rel.Len()),
	}
	if err := cs.sess.send(&begin); err != nil {
		return fmt.Errorf("service: sending upload begin: %w", err)
	}
	bind := begin.digest()
	return uploadStream.send(cs.sess, bind, rel.Len(), chunkRows, func(lo, hi int) ([][]byte, error) {
		sealed := make([][]byte, 0, hi-lo)
		for _, t := range rel.Rows[lo:hi] {
			e, err := rel.Schema.Encode(t)
			if err != nil {
				return nil, err
			}
			sealed = append(sealed, cs.sess.sealer.seal(e, bind))
		}
		return sealed, nil
	})
}

// chunkRowsCap is the most rows of tupleSize-byte tuples, sealed, that one
// chunk frame's cap holds, and at least one.
func chunkRowsCap(tupleSize int) int {
	sealedRow := 4 + int(minSealedRowBytes) - 1 + tupleSize
	return max(1, int(frameCaps[frameChunk]-8)/sealedRow)
}

// ReceiveResult waits for the recipient's result, decrypts it, drops decoy
// oTuples (for the padded Chapter 4 algorithms), and returns the exact
// result rows: a complete single-shot fetch of the chunk stream; use
// FetchResult directly for pause/resume control.
func (cs *ClientSession) ReceiveResult() (*relation.Relation, error) {
	f := &ResultFetch{}
	if err := cs.FetchResult(f); err != nil {
		return nil, err
	}
	return f.Rows, nil
}

// AggOutcome is a delivered aggregate statistic.
type AggOutcome struct {
	Count int64
	Value float64
	Valid bool
}

// ReceiveAggregate waits for an "aggregate" contract's result, its one
// core.AggSchema row, and reads the statistic out of it.
func (cs *ClientSession) ReceiveAggregate() (AggOutcome, error) {
	rel, err := cs.ReceiveResult()
	if err != nil {
		return AggOutcome{}, err
	}
	if !rel.Schema.Equal(core.AggSchema) || rel.Len() != 1 {
		return AggOutcome{}, fmt.Errorf("service: result is %d rows of %s, not one aggregate row", rel.Len(), rel.Schema)
	}
	row := rel.Rows[0]
	return AggOutcome{Count: row[0].I, Value: row[1].F, Valid: row[2].I == 1}, nil
}

// NewIdentity draws an ed25519 identity key pair for a party.
func NewIdentity() (ed25519.PublicKey, ed25519.PrivateKey, error) {
	return ed25519.GenerateKey(rand.Reader)
}
