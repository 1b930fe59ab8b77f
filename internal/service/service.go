package service

import (
	"context"
	"crypto/ecdh"
	"crypto/ed25519"
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"

	"ppj/internal/core"
	"ppj/internal/query"
	"ppj/internal/relation"
	"ppj/internal/secop"
	"ppj/internal/sim"
)

// Images returns the code images of the service's boot hierarchy. Clients
// pin their digests (the "known, trusted version" of §3.3.3).
func Images() []secop.CodeImage {
	return []secop.CodeImage{
		{Layer: secop.Miniboot, Name: "ppj-miniboot-1.0", Code: []byte("ppj miniboot")},
		{Layer: secop.OS, Name: "ppj-cpq-1.0", Code: []byte("ppj embedded os")},
		{Layer: secop.App, Name: "ppj-join-1.0", Code: []byte("ppj join application")},
	}
}

// ExpectedStack returns the measurements clients should pin.
func ExpectedStack() secop.ExpectedStack {
	exp := secop.ExpectedStack{}
	for _, img := range Images() {
		exp[img.Layer] = img.Digest()
	}
	return exp
}

// BootDevice manufactures a device and loads the service's boot hierarchy.
// A multi-tenant server boots one device and binds many contracts to it via
// NewServiceWithDevice.
func BootDevice() (*secop.Device, error) {
	dev, err := secop.NewDevice()
	if err != nil {
		return nil, err
	}
	for _, img := range Images() {
		if err := dev.Load(img); err != nil {
			return nil, err
		}
	}
	return dev, nil
}

// Service is the service provider: device, host, coprocessor, and the
// contract it arbitrates. A Service holds the state of one execution of its
// contract (the uploads map); run each contract instance on a fresh Service.
type Service struct {
	Device   *secop.Device
	Contract *Contract
	Memory   int
	// Seed pins T's internal randomness for reproducible tests. Zero (the
	// production setting) draws a fresh seed from crypto/rand for every
	// execution, so two jobs never replay the same MLFSR traversal or decoy
	// placement.
	Seed uint64
	// Devices is the number of coprocessors to attach to an execution's
	// host. The chosen algorithm's device rule (core.Algorithm.Devices)
	// decides how many of them it uses; the fleet shares one sealer, and each
	// device keeps its own seed, trace and stats. Zero or 1 means sequential
	// execution.
	Devices int
	// MaxUploadBytes bounds one provider upload's total sealed payload
	// bytes; an upload exceeding it fails with ErrUploadTooLarge before the
	// excess is opened. Zero means unbounded.
	MaxUploadBytes int64
	// UploadWindow is the credit window W granted to uploaders: at most W
	// unacknowledged chunks in flight per connection, so ingest memory per
	// connection is bounded by W x chunk bytes. Zero selects
	// DefaultUploadWindow.
	UploadWindow int
	// SortCache, when set, lets sort-based joins (alg7) reuse the
	// obliviously-sorted form of an unchanged upload across executions of
	// the same contract. Keys bind the contract, side, public size, and an
	// upload content digest computed inside the seal boundary; see
	// core.SortedCache. Nil (the default) disables reuse.
	SortCache core.SortedCache

	mu      sync.Mutex
	uploads map[string]*upload

	// chunkConsumeHook, when set (tests only), runs before each verified
	// upload chunk is opened — the backpressure suite uses it to slow the
	// consumer and observe the credit window holding.
	chunkConsumeHook func(seq int)
}

// upload is one provider's slot in the service. The slot is reserved
// (pending=true) before any ciphertext is read, so two concurrent uploads
// for the same party can never both run a decrypt pass; it is released on
// error and committed with the relation on success.
type upload struct {
	pending bool
	rel     *relation.Relation
}

// NewService manufactures and boots a device and binds it to a verified
// contract.
func NewService(contract *Contract, memory int, seed uint64) (*Service, error) {
	dev, err := BootDevice()
	if err != nil {
		return nil, err
	}
	return NewServiceWithDevice(dev, contract, memory, seed)
}

// NewServiceWithDevice binds a verified contract to an already-booted
// device. Used by the multi-tenant server, whose single attested device
// arbitrates every registered contract. A contract naming an algorithm,
// predicate kind or aggregate kind the service cannot run is refused here,
// before any upload.
func NewServiceWithDevice(dev *secop.Device, contract *Contract, memory int, seed uint64) (*Service, error) {
	if err := contract.Verify(); err != nil {
		return nil, err
	}
	if err := contract.checkNames(); err != nil {
		return nil, err
	}
	return &Service{
		Device:   dev,
		Contract: contract,
		Memory:   memory,
		Seed:     seed,
		uploads:  make(map[string]*upload),
	}, nil
}

// checkNames resolves every name the contract runs by: its algorithm
// ("auto", "aggregate" or a row of core.Algorithms), its predicate kind,
// and for an aggregate contract its aggregate kind.
func (c *Contract) checkNames() error {
	if _, ok := predicateKinds[c.Predicate.Kind]; !ok {
		return fmt.Errorf("service: contract %s: unknown predicate kind %q", c.ID, c.Predicate.Kind)
	}
	switch c.Algorithm {
	case "auto":
		return nil
	case "aggregate":
		_, err := c.aggSpec()
		return err
	}
	if _, err := core.AlgorithmByName(c.Algorithm); err != nil {
		return fmt.Errorf("service: contract %s: %w", c.ID, err)
	}
	return nil
}

// CountRoles tallies the contract's providers and recipients.
func (c *Contract) CountRoles() (providers, recipients int) {
	for _, p := range c.Parties {
		switch p.Role {
		case RoleProvider:
			providers++
		case RoleRecipient:
			recipients++
		}
	}
	return providers, recipients
}

// CheckRoles validates that the contract names enough parties to execute.
func (c *Contract) CheckRoles() error {
	providers, recipients := c.CountRoles()
	if providers < 2 {
		return fmt.Errorf("service: contract %s has %d providers, need >= 2", c.ID, providers)
	}
	if recipients < 1 {
		return fmt.Errorf("service: contract %s names no recipient", c.ID)
	}
	return nil
}

// Handshake authenticates the device to the client and the client to the
// contract, deriving the session's two direction sealers. It returns the
// authenticated contract party. The hello must already have been read
// (ReadHello), so a multi-contract listener can route on Hello.ContractID
// before committing to a contract. A hello at any protocol version but
// ProtoVersion is refused with ErrUnsupportedProto.
func (s *Service) Handshake(sess *Session, hello Hello) (Party, error) {
	// Checked before any attestation signing or key agreement: the hello is
	// bytes from an unauthenticated peer.
	if hello.Proto != ProtoVersion {
		return Party{}, fmt.Errorf("%w: hello speaks version %d, want %d", ErrUnsupportedProto, hello.Proto, ProtoVersion)
	}
	if hello.ContractID != "" && hello.ContractID != s.Contract.ID {
		return Party{}, fmt.Errorf("hello for foreign contract %q, serving %s", hello.ContractID, s.Contract.ID)
	}
	idx := s.Contract.PartyIndex(hello.Party)
	if idx < 0 {
		return Party{}, fmt.Errorf("party %q not in contract %s", hello.Party, s.Contract.ID)
	}
	party := s.Contract.Parties[idx]
	if party.Role != hello.Role {
		return Party{}, fmt.Errorf("party %q claims role %s, contract says %s", hello.Party, hello.Role, party.Role)
	}

	att, err := s.Device.Attest(hello.Challenge)
	if err != nil {
		return Party{}, err
	}
	eph, err := newECDHKey()
	if err != nil {
		return Party{}, err
	}
	sig, err := s.Device.AppSign(append(append([]byte(nil), hello.Challenge...), eph.PublicKey().Bytes()...))
	if err != nil {
		return Party{}, err
	}
	if err := sess.send(&serverAuthMsg{
		Att:     att,
		ECDHPub: eph.PublicKey().Bytes(),
		Sig:     sig,
	}); err != nil {
		return Party{}, err
	}

	var ck clientKeyMsg
	if err := sess.read(&ck); err != nil {
		return Party{}, fmt.Errorf("reading client key: %w", err)
	}
	transcript := append(append([]byte(nil), eph.PublicKey().Bytes()...), ck.ECDHPub...)
	if !ed25519.Verify(party.Identity, transcript, ck.Sig) {
		return Party{}, fmt.Errorf("party %q failed identity authentication", hello.Party)
	}
	clientPub, err := ecdh.X25519().NewPublicKey(ck.ECDHPub)
	if err != nil {
		return Party{}, err
	}
	shared, err := eph.ECDH(clientPub)
	if err != nil {
		return Party{}, err
	}
	if sess.sealer, sess.opener, err = sessionSealers(shared, eph.PublicKey().Bytes(), ck.ECDHPub, dirServer, dirClient); err != nil {
		return Party{}, err
	}
	return party, nil
}

// ReceiveUpload ingests a provider's relation: every row is opened with the
// session key inside T, checked for the contract binding, and retained for
// the join. The party's upload slot is reserved before any ciphertext is
// read — a duplicate or concurrent second upload fails immediately and can
// never burn a decrypt pass — and released again if the upload errors, so a
// provider whose stream broke may reconnect and retry.
func (s *Service) ReceiveUpload(party string, sess *Session) error {
	return s.ReceiveUploadCtx(context.Background(), party, sess)
}

// ReceiveUploadCtx is ReceiveUpload under a context: a chunked stream that
// is still incomplete when ctx expires is abandoned with ErrUploadTruncated
// (the serving layer derives ctx from the job deadline and the configured
// upload deadline).
func (s *Service) ReceiveUploadCtx(ctx context.Context, party string, sess *Session) error {
	if err := s.reserveUpload(party); err != nil {
		return err
	}
	rel, err := s.receiveChunked(ctx, sess)
	if err != nil {
		s.releaseUpload(party)
		return err
	}
	s.commitUpload(party, rel)
	return nil
}

// reserveUpload claims a party's upload slot before any ciphertext is read.
func (s *Service) reserveUpload(party string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.uploads[party]; dup {
		return fmt.Errorf("party %q uploaded twice", party)
	}
	s.uploads[party] = &upload{pending: true}
	return nil
}

// releaseUpload frees a reservation whose upload failed, so the party can
// retry. Committed uploads are never released.
func (s *Service) releaseUpload(party string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if up, ok := s.uploads[party]; ok && up.pending {
		delete(s.uploads, party)
	}
}

// commitUpload publishes a completed upload under its reservation.
func (s *Service) commitUpload(party string, rel *relation.Relation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.uploads[party] = &upload{rel: rel}
}

// Outcome is the computed result of a contract execution, ready to be
// sealed per recipient session by DeliverStream: the output cells, re-opened
// inside T, and the schema of the rows in them (core.AggSchema's one row for
// an "aggregate" contract). Err carries a failure that is reported to
// recipients rather than silently dropped.
type Outcome struct {
	Rows   [][]byte
	Schema *relation.Schema
	// Algorithm is the algorithm actually run ("alg1".."alg7" or
	// "aggregate") — for "auto" contracts, the planner's choice.
	Algorithm string
	// Devices is the number of coprocessors the execution actually used
	// (1 for sequential runs and algorithms without a parallel variant).
	Devices int
	// Stats are T's cost counters for this execution, summed across devices.
	Stats sim.Stats
	// CacheHits and CacheMisses count the sides of this join that consulted
	// the sorted-relation cache and were restored (hit) or sorted cold and
	// offered back (miss). Both zero when no cache participated.
	CacheHits   int
	CacheMisses int
	Err         error
}

// RunContract executes the contracted computation over the received
// uploads. Failures are recorded in Outcome.Err (delivery still happens so
// recipients learn of the failure).
func (s *Service) RunContract() Outcome {
	out, err := s.run()
	out.Err = err
	return out
}

// execSeed resolves the seed for one contract execution: the pinned seed
// when set (tests), otherwise fresh crypto/rand entropy so concurrent jobs
// never share shuffle or decoy randomness.
func (s *Service) execSeed() (uint64, error) {
	if s.Seed != 0 {
		return s.Seed, nil
	}
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("service: drawing execution seed: %w", err)
	}
	seed := binary.BigEndian.Uint64(b[:])
	if seed == 0 {
		seed = 1 // zero would re-trigger "pick for me" downstream
	}
	return seed, nil
}

// gatherUploads collects the providers' relations in contract order.
func (s *Service) gatherUploads() ([]*relation.Relation, []string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rels []*relation.Relation
	var names []string
	for _, p := range s.Contract.Parties {
		if p.Role != RoleProvider {
			continue
		}
		up, ok := s.uploads[p.Name]
		if !ok || up.pending {
			return nil, nil, fmt.Errorf("service: provider %s never uploaded", p.Name)
		}
		rels = append(rels, up.rel)
		names = append(names, p.Name)
	}
	return rels, names, nil
}

// predicates instantiates the contract predicate over the uploads: the
// two-way form for two providers; for more, its J-way lift, an all-equal
// equijoin on AttrA across every table (each table's key equal to the
// first's, under the equijoin's equality).
func (s *Service) predicates(rels []*relation.Relation) (relation.Predicate, relation.MultiPredicate, error) {
	if len(rels) == 2 {
		pred, err := s.Contract.Predicate.Build(rels[0].Schema, rels[1].Schema)
		return pred, nil, err
	}
	if s.Contract.Predicate.Kind != "equi" {
		return nil, nil, fmt.Errorf("service: %d-way joins support only equi predicates", len(rels))
	}
	attr := s.Contract.Predicate.AttrA
	eqs := make([]*relation.Equi, len(rels)-1)
	for i, rel := range rels[1:] {
		eq, err := relation.NewEqui(rels[0].Schema, attr, rel.Schema, attr)
		if err != nil {
			return nil, nil, fmt.Errorf("service: relations 0 and %d: %w", i+1, err)
		}
		eqs[i] = eq
	}
	return nil, relation.MultiPredicateFunc{
		Fn: func(rows []relation.Row) bool {
			for i, eq := range eqs {
				if !eq.Match(rows[0], rows[i+1]) {
					return false
				}
			}
			return true
		},
		Desc: fmt.Sprintf("all %s equal", s.Contract.Predicate.AttrA),
	}, nil
}

// planAlgorithm resolves an "auto" contract: the query planner's §4.6/§5.3.4
// analysis picks the cheapest admissible algorithm for the uploaded
// relations.
func (s *Service) planAlgorithm(rels []*relation.Relation) (query.Plan, error) {
	mem := int64(s.Memory)
	if mem <= 0 {
		mem = 1 << 40 // the simulator's "effectively unbounded" convention
	}
	pred, mp, err := s.predicates(rels)
	if err != nil {
		return query.Plan{}, err
	}
	q := query.Query{Predicate: pred, Multi: mp, Epsilon: s.Contract.Epsilon}
	return query.Planner{Memory: mem}.Plan(q, rels)
}

// run executes the contract over the uploaded relations: the contracted
// algorithm's row of core.Algorithms, or for an "aggregate" contract
// core.Aggregate on one device. On failure the returned Outcome still names
// the algorithm, the device count and T's counters up to the failure.
func (s *Service) run() (Outcome, error) {
	out := Outcome{Algorithm: s.Contract.Algorithm, Devices: 1}
	rels, names, err := s.gatherUploads()
	if err != nil {
		return out, err
	}
	var plan query.Plan
	if out.Algorithm == "auto" {
		if plan, err = s.planAlgorithm(rels); err != nil {
			return out, err
		}
		out.Algorithm = plan.AlgorithmName()
	}
	in := core.Inputs{Epsilon: s.Contract.Epsilon}
	if in.Pred, in.Multi, err = s.predicates(rels); err != nil {
		return out, err
	}
	var exec func(cops []*sim.Coprocessor, tabs []sim.Table) (core.Result, error)
	if out.Algorithm == "aggregate" {
		spec, err := s.Contract.aggSpec()
		if err != nil {
			return out, err
		}
		if in.Pred != nil {
			in.Multi = relation.Pairwise(in.Pred)
		}
		exec = func(cops []*sim.Coprocessor, tabs []sim.Table) (core.Result, error) {
			agg, err := core.Aggregate(cops[0], tabs, in.Multi, spec)
			return agg.Result, err
		}
	} else {
		desc, err := core.AlgorithmByName(out.Algorithm)
		if err != nil {
			return out, fmt.Errorf("service: %w", err)
		}
		// How many of the configured devices the algorithm can exploit.
		out.Devices = desc.Devices(s.Devices)
		if desc.Padded && in.Pred != nil {
			// An "auto" contract that planned a padded row already has N.
			if in.N = plan.N; in.N == 0 {
				in.N = query.MatchBound(in.Pred, rels[0], rels[1])
			}
		}
		if desc.UsesCache && s.SortCache != nil && len(rels) == 2 {
			in.Cache = s.SortCache
			if in.KeyA, err = sortCacheKey(s.Contract.ID, "A", rels[0]); err != nil {
				return out, err
			}
			if in.KeyB, err = sortCacheKey(s.Contract.ID, "B", rels[1]); err != nil {
				return out, err
			}
		}
		exec = func(cops []*sim.Coprocessor, tabs []sim.Table) (core.Result, error) {
			res, use, err := desc.Run(cops, tabs, in)
			out.CacheHits, out.CacheMisses = use.Hits(), use.Misses()
			return res, err
		}
	}

	cops, tabs, err := s.load(rels, names, out.Devices)
	if err != nil {
		return out, err
	}
	res, err := exec(cops, tabs)
	if err != nil {
		for _, c := range cops {
			out.Stats.Add(c.Stats())
		}
		return out, err
	}
	out.Stats = res.Stats
	// Re-open the output cells inside T for recipient re-encryption.
	rows := make([][]byte, 0, res.OutputLen)
	for i := int64(0); i < res.OutputLen; i++ {
		cell, err := cops[0].Sealer().OpenTo(nil, cops[0].Host().Inspect(res.Output.Region, i))
		if err != nil {
			return out, err
		}
		rows = append(rows, cell)
	}
	out.Rows, out.Schema = rows, res.Output.Schema
	return out, nil
}

// sortCacheKey derives the sorted-relation cache key for one side of an
// alg7 join: contract, side, public row count, and a digest of the
// decrypted upload bytes. The digest is computed here — inside the seal
// boundary the Service models — so the host only ever observes whether two
// sealed uploads of the same contract hashed equal, never the bytes.
func sortCacheKey(contractID, side string, rel *relation.Relation) (string, error) {
	rows, err := rel.EncodeAll()
	if err != nil {
		return "", err
	}
	f := newFieldHash("ppj-sort-cache")
	for _, row := range rows {
		f.bytes(row)
	}
	return fmt.Sprintf("%s|%s|%d|%x", contractID, side, rel.Len(), f.Sum(nil)), nil
}

// load sets up one execution over the uploads: it draws the execution
// seed, attaches `devices` coprocessors to a fresh host, and loads every
// relation as a table sealed under device 0's key. The devices share that
// sealer (parallel variants re-encrypt cells for each other) while each
// keeps its own derived seed, trace and stats.
func (s *Service) load(rels []*relation.Relation, names []string, devices int) ([]*sim.Coprocessor, []sim.Table, error) {
	seed, err := s.execSeed()
	if err != nil {
		return nil, nil, err
	}
	host := sim.NewHost(0)
	cop, err := sim.NewCoprocessor(host, sim.Config{Memory: s.Memory, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	cops := make([]*sim.Coprocessor, devices)
	cops[0] = cop
	for i := 1; i < len(cops); i++ {
		dseed := seed + uint64(i)*0x9e3779b97f4a7c15
		if dseed == 0 {
			dseed = 1
		}
		cops[i], err = sim.NewCoprocessor(host, sim.Config{Memory: s.Memory, Sealer: cop.Sealer(), Seed: dseed})
		if err != nil {
			return nil, nil, err
		}
	}
	tabs := make([]sim.Table, len(rels))
	for i, rel := range rels {
		if tabs[i], err = sim.LoadTable(host, cop.Sealer(), names[i], rel); err != nil {
			return nil, nil, err
		}
	}
	return cops, tabs, nil
}

// aggSpec resolves the contract's aggregate description.
func (c *Contract) aggSpec() (core.AggSpec, error) {
	kind, err := core.AggKindByName(c.Aggregate.Kind)
	if err != nil {
		return core.AggSpec{}, fmt.Errorf("service: %w", err)
	}
	return core.AggSpec{Kind: kind, Table: c.Aggregate.Table, Attr: c.Aggregate.Attr}, nil
}
