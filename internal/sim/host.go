package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// RegionID identifies a named array of ciphertext cells in H's memory.
type RegionID int32

// Host is the untrusted server. It stores only ciphertext and — in the
// malicious-adversary tests — lets an attacker tamper with cells (which T
// must detect via authenticated encryption, §3.3.1). It holds the
// adversary's view of the access sequence, but never writes it: the
// coprocessor's recorder (record, batch.go) does, for every transfer.
//
// Locking is sharded so P coprocessors scale: the region table is
// append-only and published through an atomic pointer, so lookups take no
// lock (tableMu only serialises creation and guards the name index); each
// region carries its own mutex guarding its cells; the host trace has its
// own mutex, taken once per recorded batch. With a single coprocessor
// attached the host trace is the exact ordered sequence (digest plus
// optional raw prefix); with several attached the interleaving is
// nondeterministic, so it degrades to a lock-free count-only sink and the
// per-device Coprocessor traces stay authoritative for the privacy tests.
type Host struct {
	tableMu sync.Mutex                // serialises region creation
	regions atomic.Pointer[[]*region] // append-only; read without a lock
	byName  map[string]RegionID       // guarded by tableMu

	traceMu sync.Mutex
	trace   *Trace

	// attached counts coprocessors constructed against this host; past one,
	// the host trace is count-only.
	attached atomic.Int32

	// diskWrites counts cells H persisted at T's request.
	diskWrites atomic.Uint64
}

type region struct {
	name string
	mu   sync.Mutex
	// cells only grows, under mu. Cell slices are replaced wholesale on
	// write, never mutated in place, so a reference obtained under mu stays
	// valid after release.
	cells [][]byte
}

// span addresses host cells: the n cells from `from`, or, when idx is
// non-nil, the cells idx lists (and n is len(idx)).
type span struct {
	from, n int64
	idx     []int64
}

// at returns the k-th cell of the span.
func (s span) at(k int64) int64 {
	if s.idx != nil {
		return s.idx[k]
	}
	return s.from + k
}

// NewHost creates a host whose trace records up to recordLimit raw events.
func NewHost(recordLimit int) *Host {
	h := &Host{byName: make(map[string]RegionID), trace: NewTrace(recordLimit)}
	h.regions.Store(new([]*region))
	return h
}

// Trace exposes the access sequence observed so far. It must only be read
// once the coprocessors are quiescent (tests do), as appends are concurrent.
func (h *Host) Trace() *Trace { return h.trace }

// regionFor resolves an id to its region.
func (h *Host) regionFor(id RegionID) *region { return (*h.regions.Load())[id] }

// addRegion appends a region to the table. A lookup holding an older
// snapshot of the slice never indexes the cell append writes. Caller holds
// tableMu.
func (h *Host) addRegion(name string, n int) RegionID {
	rs := *h.regions.Load()
	id := RegionID(len(rs))
	rs = append(rs, &region{name: name, cells: make([][]byte, n)})
	h.regions.Store(&rs)
	h.byName[name] = id
	return id
}

// CreateRegion allocates a named region of n (initially nil) cells and
// returns its id. Regions grow automatically when written past the end.
func (h *Host) CreateRegion(name string, n int) (RegionID, error) {
	h.tableMu.Lock()
	defer h.tableMu.Unlock()
	if _, dup := h.byName[name]; dup {
		return 0, fmt.Errorf("sim: region %q already exists", name)
	}
	return h.addRegion(name, n), nil
}

// MustCreateRegion is CreateRegion that panics on error.
func (h *Host) MustCreateRegion(name string, n int) RegionID {
	id, err := h.CreateRegion(name, n)
	if err != nil {
		panic(err)
	}
	return id
}

// RegionName returns the region's name.
func (h *Host) RegionName(id RegionID) string {
	return h.regionFor(id).name
}

// Store writes ciphertext into a cell without tracing. It models data
// arriving from outside T's access pattern: providers uploading their
// encrypted relations before the join starts.
func (h *Host) Store(id RegionID, index int64, ciphertext []byte) {
	r := h.regionFor(id)
	r.mu.Lock()
	r.grow(index)
	r.cells[index] = ciphertext
	r.mu.Unlock()
}

// Inspect returns the raw ciphertext of a cell without tracing: the
// honest-but-curious adversary reading H's memory (§3.3.2). It returns nil
// for never-written cells.
func (h *Host) Inspect(id RegionID, index int64) []byte {
	r := h.regionFor(id)
	r.mu.Lock()
	defer r.mu.Unlock()
	if index < 0 || index >= int64(len(r.cells)) {
		return nil
	}
	return r.cells[index]
}

// Tamper lets a malicious adversary overwrite a cell's ciphertext without
// tracing. T's next authenticated read of the cell must fail (§3.3.1).
func (h *Host) Tamper(id RegionID, index int64, ciphertext []byte) {
	h.Store(id, index, ciphertext)
}

// FreshRegion creates a region with a unique name derived from prefix, for
// algorithms that allocate scratch space without coordinating names.
func (h *Host) FreshRegion(prefix string, n int) RegionID {
	h.tableMu.Lock()
	defer h.tableMu.Unlock()
	name := prefix
	for i := 2; ; i++ {
		if _, dup := h.byName[name]; !dup {
			break
		}
		name = fmt.Sprintf("%s#%d", prefix, i)
	}
	return h.addRegion(name, n)
}

// read hands T the ciphertexts of the cells of s, appended to dst, up to
// the first cell that is out of range or was never written; the error names
// that cell.
func (h *Host) read(id RegionID, s span, dst [][]byte) ([][]byte, error) {
	r := h.regionFor(id)
	r.mu.Lock()
	dst, err := r.read(s, dst)
	r.mu.Unlock()
	return dst, err
}

// write stores cts[k] at the k-th cell of s, up to the first negative index,
// and returns how many cells it stored.
func (h *Host) write(id RegionID, s span, cts [][]byte) (int64, error) {
	r := h.regionFor(id)
	r.mu.Lock()
	n, err := r.write(s, cts)
	r.mu.Unlock()
	return n, err
}

// transformRange is the host half of a read-modify-write. With both regions
// locked it reads the cells of from up to the first it cannot serve, hands
// their ciphertexts to fn — which therefore runs under the region locks and
// must not touch the host — and stores the ciphertexts fn returns at the
// cells of to. A negative destination refuses the first put, so then only
// one cell is read. It returns how many cells were stored; of a refused put
// and an unreadable cell, at most one can occur.
func (h *Host) transformRange(dst RegionID, to span, src RegionID, from span, cts [][]byte,
	fn func(cts [][]byte) [][]byte) (int64, error) {
	p := h.lockPair(dst, src)
	defer p.unlock()
	if to.from < 0 {
		from.n = min(from.n, 1)
	}
	cts, rerr := p.src.read(from, cts)
	stored, werr := p.dst.write(to, fn(cts))
	if werr != nil {
		return stored, werr
	}
	return stored, rerr
}

// disk validates T's request that H persist the cells [s.from, s.from+s.n)
// and returns how many of them exist before the first that does not.
func (h *Host) disk(id RegionID, s span) (int64, error) {
	r := h.regionFor(id)
	r.mu.Lock()
	length := int64(len(r.cells))
	r.mu.Unlock()
	for k := int64(0); k < s.n; k++ {
		if i := s.at(k); i < 0 || i >= length {
			return k, fmt.Errorf("sim: disk write %s[%d] out of range", r.name, i)
		}
	}
	return s.n, nil
}

// copyOut serves T's request that H copy ciphertext cells from one region to
// another (e.g. persisting the first N scratch cells as output). The copy is
// host-local — the cells never transit T — and either happens whole or not
// at all.
func (h *Host) copyOut(dst RegionID, dstFrom int64, src RegionID, srcFrom, n int64) error {
	p := h.lockPair(dst, src)
	defer p.unlock()
	if srcFrom < 0 || srcFrom+n > int64(len(p.src.cells)) {
		return fmt.Errorf("sim: copy out of %s[%d..%d) out of range", p.src.name, srcFrom, srcFrom+n)
	}
	if n > 0 {
		p.dst.grow(dstFrom + n - 1)
		copy(p.dst.cells[dstFrom:], p.src.cells[srcFrom:srcFrom+n])
	}
	return nil
}

// regionPair is a destination and a source region locked together.
type regionPair struct{ dst, src *region }

// lockPair locks two regions in RegionID order, so concurrent cross-region
// operations cannot deadlock; a region paired with itself is locked once.
func (h *Host) lockPair(dst, src RegionID) regionPair {
	p := regionPair{dst: h.regionFor(dst), src: h.regionFor(src)}
	first, second := p.src, p.dst
	if dst < src {
		first, second = p.dst, p.src
	}
	first.mu.Lock()
	if second != first {
		second.mu.Lock()
	}
	return p
}

func (p regionPair) unlock() {
	p.dst.mu.Unlock()
	if p.src != p.dst {
		p.src.mu.Unlock()
	}
}

// read is Host.read with r.mu held.
func (r *region) read(s span, dst [][]byte) ([][]byte, error) {
	for k := int64(0); k < s.n; k++ {
		i := s.at(k)
		if i < 0 || i >= int64(len(r.cells)) || r.cells[i] == nil {
			return dst, r.unreadable(i)
		}
		dst = append(dst, r.cells[i])
	}
	return dst, nil
}

// unreadable says why cell i cannot be read.
func (r *region) unreadable(i int64) error {
	if i < 0 || i >= int64(len(r.cells)) {
		return fmt.Errorf("sim: get %s[%d] out of range (len %d)", r.name, i, len(r.cells))
	}
	return fmt.Errorf("sim: get %s[%d] of unwritten cell", r.name, i)
}

// write is Host.write with r.mu held.
func (r *region) write(s span, cts [][]byte) (int64, error) {
	for k, ct := range cts {
		i := s.at(int64(k))
		if i < 0 {
			return int64(k), fmt.Errorf("sim: put %s[%d] negative index", r.name, i)
		}
		r.grow(i)
		r.cells[i] = ct
	}
	return int64(len(cts)), nil
}

// grow extends the region to cover index with a single capacity-doubling
// allocation (never one append per cell). Caller holds r.mu.
func (r *region) grow(index int64) {
	if index < int64(len(r.cells)) {
		return
	}
	need := index + 1
	if need <= int64(cap(r.cells)) {
		r.cells = r.cells[:need]
		return
	}
	newCap := 2 * int64(cap(r.cells))
	if newCap < need {
		newCap = need
	}
	grown := make([][]byte, need, newCap)
	copy(grown, r.cells)
	r.cells = grown
}
