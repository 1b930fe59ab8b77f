package sim

import (
	"fmt"
	"math/rand/v2"

	"ppj/internal/relation"
)

// Stats counts the quantities the paper's cost analysis is stated in:
// tuple transfers between T and H (every get implies a decryption, every put
// an encryption, §4.3 "Cost Analysis"), plus comparison and predicate
// counters for the oblivious-sort and fixed-time accounting.
type Stats struct {
	Gets         uint64 // transfers H -> T (= decryptions)
	Puts         uint64 // transfers T -> H (= encryptions)
	LogicalReads uint64 // iTuples of the cartesian product D materialised in T
	Comparisons  uint64 // oblivious compare-exchanges
	PredEvals    uint64 // join predicate evaluations (charged fixed time)
	DiskRequests uint64 // cells T asked H to persist
}

// Transfers is the paper's headline cost: tuples moved in and out of T.
func (s Stats) Transfers() uint64 { return s.Gets + s.Puts }

// Add accumulates another Stats into s.
func (s *Stats) Add(o Stats) {
	s.Gets += o.Gets
	s.Puts += o.Puts
	s.LogicalReads += o.LogicalReads
	s.Comparisons += o.Comparisons
	s.PredEvals += o.PredEvals
	s.DiskRequests += o.DiskRequests
}

// Coprocessor is the trusted device T. All interaction with the outside
// world goes through Get/Put/RequestDisk and their batched forms, every one
// of which is traced and charged by record (batch.go); internal state
// (decrypted tuples, counters, the RNG) is invisible to the adversary. Its
// free memory holds at most Memory tuples of algorithm-managed state (the
// paper's M; the implicit "+2" staging slots for the tuples currently being
// compared are not charged, matching the M+2 convention of §4.1).
type Coprocessor struct {
	host    *Host
	sealer  Sealer
	memory  int
	memUsed int
	stats   Stats
	rng     *rand.Rand
	// trace is T's own copy of its access sequence. The host trace is the
	// adversary's view; with several coprocessors attached to one host the
	// host view interleaves nondeterministically, so per-device privacy
	// tests compare these local traces instead.
	trace *Trace
	// Reused scratch of the transfer core (batch.go): references to the
	// ciphertexts H hands over, the buffers T seals into (H copies them into
	// its cells), and plaintext staging buffers, at most a window of each,
	// kept past the call. A Coprocessor is single-goroutine by contract —
	// only the Host it talks to is shared — so unsynchronised scratch is
	// safe.
	ctScratch   [][]byte
	sealScratch [][]byte
	ptScratch   [][]byte
}

// Config parameterises a coprocessor.
type Config struct {
	// Memory is the free memory M in tuples. Zero means "effectively
	// unbounded" (used by reference runs and the service defaults).
	Memory int
	// Sealer is the authenticated encryption; nil selects a fresh random
	// GCMSealer.
	Sealer Sealer
	// Seed makes T's internal randomness (oblivious shuffles, segment
	// orders) deterministic; 0 draws a random seed.
	Seed uint64
}

// NewCoprocessor attaches a coprocessor to h.
func NewCoprocessor(h *Host, cfg Config) (*Coprocessor, error) {
	s := cfg.Sealer
	if s == nil {
		var err error
		s, err = NewRandomGCMSealer()
		if err != nil {
			return nil, err
		}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = rand.Uint64()
	}
	mem := cfg.Memory
	if mem <= 0 {
		mem = 1 << 40
	}
	h.attached.Add(1)
	return &Coprocessor{
		host:   h,
		sealer: s,
		memory: mem,
		rng:    rand.New(rand.NewPCG(seed, seed^0x6a09e667f3bcc908)),
		trace:  NewTrace(0),
	}, nil
}

// Host returns the attached host.
func (t *Coprocessor) Host() *Host { return t.host }

// Trace returns T's local copy of its own access sequence.
func (t *Coprocessor) Trace() *Trace { return t.trace }

// Sealer returns the device's authenticated encryption.
func (t *Coprocessor) Sealer() Sealer { return t.sealer }

// Memory returns the device's free memory M in tuples.
func (t *Coprocessor) Memory() int { return t.memory }

// MemoryFree returns the unreserved portion of M.
func (t *Coprocessor) MemoryFree() int { return t.memory - t.memUsed }

// Rand exposes T's internal randomness (never observable by H).
func (t *Coprocessor) Rand() *rand.Rand { return t.rng }

// Stats returns a snapshot of the cost counters.
func (t *Coprocessor) Stats() Stats { return t.stats }

// ResetStats zeroes the cost counters (e.g. between experiment phases).
func (t *Coprocessor) ResetStats() { t.stats = Stats{} }

// Grant reserves n tuple slots of T's memory, returning a release function.
// Algorithms wrap every buffer they keep inside the device in a Grant so the
// simulator enforces the M-tuple bound the paper designs around.
func (t *Coprocessor) Grant(n int) (func(), error) {
	if n < 0 {
		return nil, fmt.Errorf("sim: negative memory grant %d", n)
	}
	if t.memUsed+n > t.memory {
		return nil, fmt.Errorf("sim: memory grant of %d tuples exceeds free memory (%d of %d in use)",
			n, t.memUsed, t.memory)
	}
	t.memUsed += n
	released := false
	return func() {
		if !released {
			released = true
			t.memUsed -= n
		}
	}, nil
}

// Get transfers a cell from H into T and decrypts it. The access is traced.
func (t *Coprocessor) Get(id RegionID, index int64) ([]byte, error) {
	var pt [1][]byte
	if err := t.get(id, span{from: index, n: 1}, pt[:], nil); err != nil {
		return nil, err
	}
	return pt[0], nil
}

// Put encrypts a plaintext inside T and transfers it to H. Traced.
func (t *Coprocessor) Put(id RegionID, index int64, plaintext []byte) error {
	return t.put(id, span{from: index, n: 1}, [][]byte{plaintext})
}

// RequestDisk asks H to persist cells [from, from+count) of a region. On an
// out-of-range cell the valid prefix is still traced and counted, exactly as
// count one-cell requests would be.
func (t *Coprocessor) RequestDisk(id RegionID, from, count int64) error {
	s := span{from: from, n: count}
	valid, err := t.host.disk(id, s)
	t.record(valid, access{OpDisk, id, s})
	return err
}

// ChargeCompare records one fixed-time comparison.
func (t *Coprocessor) ChargeCompare() { t.stats.Comparisons++ }

// ChargePredicate records one fixed-time predicate evaluation. The paper
// pads evaluation to constant time by burning cycles (§4.3); the simulator
// charges the constant instead.
func (t *Coprocessor) ChargePredicate() { t.stats.PredEvals++ }

// CountLogicalRead records the materialisation of one iTuple of D.
func (t *Coprocessor) CountLogicalRead() { t.stats.LogicalReads++ }

// Table references an encrypted relation resident in H's memory.
type Table struct {
	Region RegionID
	N      int64
	Schema *relation.Schema
}

// LoadTable encrypts a relation under sealer and stores it on h, untraced
// (providers upload before T's computation starts). The returned Table is
// what the join algorithms operate on.
func LoadTable(h *Host, sealer Sealer, name string, rel *relation.Relation) (Table, error) {
	encs, err := rel.EncodeAll()
	if err != nil {
		return Table{}, fmt.Errorf("sim: loading %s: %w", name, err)
	}
	id, err := h.CreateRegion(name, len(encs))
	if err != nil {
		return Table{}, err
	}
	var ct []byte
	for i, e := range encs {
		ct = sealer.SealTo(ct[:0], e)
		h.Store(id, int64(i), ct)
	}
	return Table{Region: id, N: int64(len(encs)), Schema: rel.Schema}, nil
}

// RequestCopyOut asks H to copy n sealed cells from src to dst host-side
// (the cells never transit T, so no transfers are charged; the request is
// traced as disk writes).
func (t *Coprocessor) RequestCopyOut(dst RegionID, dstFrom int64, src RegionID, srcFrom, n int64) error {
	if err := t.host.copyOut(dst, dstFrom, src, srcFrom, n); err != nil {
		return err
	}
	t.record(n, access{OpDisk, dst, span{from: dstFrom, n: n}})
	return nil
}
