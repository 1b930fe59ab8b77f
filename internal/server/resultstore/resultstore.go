// Package resultstore is the server's durable tier for sealed join
// results. The paper's protocol ends with T re-encrypting the result for
// the recipient; this store is what lets that hand-off survive a slow,
// disconnected, or restarted recipient — and "Equi-Joins over Encrypted
// Data for Series of Queries" (PAPERS.md) motivates keeping sealed outputs
// around as the substrate for a tenant's series of queries.
//
// A result is written once at job completion and read any number of times
// by delivery. Small results stay cached in memory; every result also
// spills to a per-job segment file of checked frames of AES-GCM-sealed records
// (the at-rest analogue of the session sealer — the host's disk never sees
// plaintext). Each segment seals under its own salted subkey of the store
// key, and each record's associated data binds it to its segment's ID and
// row count and to its place in the segment, so a segment copied, spliced
// or edited on the host reads as torn (segment.go). The store's manifest —
// which results exist and which were evicted, and why — is journaled
// through the server's WAL seam, so one log replay rebuilds the job table
// and the result index together.
// Results are evicted lazily by TTL and LRU under a byte cap; an eviction
// leaves a tombstone carrying its cause, so a recipient reconnecting to a
// gone result learns "gone forever", not "retry later".
package resultstore

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Cause classifies why a result left the store.
type Cause string

const (
	// CauseTTL: the result outlived Config.TTL.
	CauseTTL Cause = "ttl"
	// CauseCap: LRU eviction under Config.MaxBytes (or a single result
	// larger than the whole cap, refused at Put).
	CauseCap Cause = "cap"
	// CausePreStore: the job delivered before the durable store existed, so
	// there was never a segment to recover.
	CausePreStore Cause = "pre-store"
	// CauseTorn: the segment was torn or corrupt when recovery (or a read)
	// validated it — the bytes on disk no longer match what was stored.
	CauseTorn Cause = "torn"
)

// ErrNotFound reports an ID the store has never held (and holds no
// tombstone for).
var ErrNotFound = errors.New("resultstore: no result for contract")

// ErrTooLarge refuses a Put whose accounted size alone exceeds MaxBytes;
// the store tombstones the ID with CauseCap so later readers get a
// definite eviction verdict.
var ErrTooLarge = errors.New("resultstore: result exceeds store byte cap")

// ErrDuplicate refuses a second Put for an ID already stored.
var ErrDuplicate = errors.New("resultstore: result already stored")

// EvictedError reports a result that was stored once but is gone, and why.
type EvictedError struct {
	ID    string
	Cause Cause
}

// Error implements error.
func (e *EvictedError) Error() string {
	return fmt.Sprintf("resultstore: result for %s evicted (%s)", e.ID, e.Cause)
}

// Journal is the manifest seam: the store reports every durable index
// change through it, and the server routes both calls into the job WAL so
// one replay rebuilds jobs and results together. A nil Journal journals
// nothing (memory-only operation).
type Journal interface {
	// ResultStored records a result entering the store with its accounted
	// size.
	ResultStored(id string, bytes int64) error
	// ResultEvicted records a result leaving the store with its cause.
	ResultEvicted(id string, cause string) error
}

// Config parameterises a Store.
type Config struct {
	// Dir is the segment directory. Empty keeps results in memory only
	// (nothing survives the process, but caps and TTL still apply).
	Dir string
	// MaxBytes caps the store's total accounted bytes; 0 is unbounded.
	// Writes evict least-recently-used results first, before the new
	// segment lands, so on-disk bytes never exceed the cap.
	MaxBytes int64
	// TTL expires results that have sat unread for this long; 0 disables.
	TTL time.Duration
	// MemCacheBytes is the per-result threshold under which plaintext rows
	// stay cached in memory alongside the segment (reads skip the disk).
	// 0 selects DefaultMemCacheBytes.
	MemCacheBytes int64
	// Journal receives manifest events; nil journals nothing.
	Journal Journal
	// Now overrides the clock (tests). Nil uses time.Now.
	Now func() time.Time
}

// DefaultMemCacheBytes is the default in-memory caching threshold: results
// accounted under 64 KiB keep their rows resident.
const DefaultMemCacheBytes = 64 << 10

// keyFile holds the store's at-rest sealing key under Dir. It stands in
// for key material in T's non-volatile storage: the host dir holds only
// ciphertext segments, and the key never appears inside one.
const keyFile = "result.key"

// entry is one stored result.
type entry struct {
	id    string
	meta  []byte
	rows  [][]byte // plaintext row cache; nil when only the segment has them
	size  int64    // accounted bytes (segment size on disk, or memory size)
	path  string   // segment path; "" in memory-only mode
	used  uint64   // LRU clock value of the last touch
	added time.Time
}

// Store is a disk-spilling, size-capped, TTL'd store of sealed results.
type Store struct {
	cfg Config
	key []byte // at-rest store key segment subkeys derive from (dir mode only)

	mu      sync.Mutex
	entries map[string]*entry
	evicted map[string]Cause // tombstones for results that are gone
	bytes   int64
	clock   uint64

	evictions         uint64
	recoveryEvictions uint64
}

// Open creates or recovers a store. With Dir set, it loads (or creates)
// the sealing key and scans the directory: every segment is fully
// validated — framing, CRCs, seal tags, declared row count — and a torn or
// corrupt one is deleted, tombstoned with CauseTorn, journaled as evicted,
// and counted as a recovery eviction. The caller cross-references the
// surviving index against its replayed manifest (see Reconcile helpers).
func Open(cfg Config) (*Store, error) {
	if cfg.MemCacheBytes <= 0 {
		cfg.MemCacheBytes = DefaultMemCacheBytes
	}
	s := &Store{
		cfg:     cfg,
		entries: make(map[string]*entry),
		evicted: make(map[string]Cause),
	}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o700); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	key, err := loadOrCreateKey(filepath.Join(cfg.Dir, keyFile))
	if err != nil {
		return nil, err
	}
	s.key = key
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// loadOrCreateKey reads the at-rest key, drawing a fresh one on first use.
func loadOrCreateKey(path string) ([]byte, error) {
	key, err := os.ReadFile(path)
	if err == nil {
		if len(key) != 16 {
			return nil, fmt.Errorf("resultstore: key file %s is %d bytes, want 16", path, len(key))
		}
		return key, nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	key = make([]byte, 16)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("resultstore: drawing key: %w", err)
	}
	if err := os.WriteFile(path, key, 0o600); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return key, nil
}

// SegmentPath returns the segment file a contract's result spills to. The
// name is a digest of the ID so arbitrary contract IDs map to safe file
// names; exported so crash tests can tear a specific segment.
func SegmentPath(dir, id string) string {
	sum := sha256.Sum256([]byte(id))
	return filepath.Join(dir, "seg-"+hex.EncodeToString(sum[:8])+".res")
}

// scan rebuilds the index from the segment directory.
func (s *Store) scan() error {
	glob, err := filepath.Glob(filepath.Join(s.cfg.Dir, "seg-*.res"))
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	for _, path := range glob {
		id, meta, rows, size, err := readSegment(path, s.key)
		if SegmentPath(s.cfg.Dir, id) != path {
			// The header names another result: its bytes were copied or
			// edited in, so the loss is not that result's to tombstone.
			// The manifest cross-reference tombstones this path's own.
			id, err = "", fmt.Errorf("%w: header names another segment", errSegment)
		}
		if err != nil {
			// A torn segment: the crash (or the fault hook) interrupted the
			// write, or the host corrupted the bytes. The result is lost;
			// keep a definite tombstone and count the loss.
			os.Remove(path)
			if id != "" {
				s.evicted[id] = CauseTorn
				s.recoveryEvictions++
				if s.cfg.Journal != nil {
					_ = s.cfg.Journal.ResultEvicted(id, string(CauseTorn))
				}
			}
			continue
		}
		e := &entry{id: id, meta: meta, size: size, path: path, used: s.clock, added: s.now()}
		s.clock++
		if size <= s.cfg.MemCacheBytes {
			e.rows = rows
		}
		s.entries[id] = e
		s.bytes += size
	}
	return nil
}

func (s *Store) now() time.Time {
	if s.cfg.Now != nil {
		return s.cfg.Now()
	}
	return time.Now()
}

// accountedSize computes what a result will be charged: its segment's
// exact on-disk size in dir mode, its plain memory footprint otherwise.
func (s *Store) accountedSize(id string, meta []byte, rows [][]byte) int64 {
	if s.cfg.Dir != "" {
		return segmentSize(id, meta, rows)
	}
	n := int64(len(meta))
	for _, r := range rows {
		n += int64(len(r))
	}
	return n
}

// Put stores one job's result. The write is admission-checked first: a
// result alone larger than MaxBytes is refused with ErrTooLarge (and
// tombstoned CauseCap), and least-recently-used results are evicted until
// the new segment fits — before it is written, so the directory's bytes
// never exceed the cap, even transiently. A Journal error is returned
// after the entry is live: the result serves from this process, but a
// restart will treat the unmanifested segment as an orphan.
func (s *Store) Put(id string, meta []byte, rows [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.entries[id]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, id)
	}
	s.sweepExpiredLocked()
	size := s.accountedSize(id, meta, rows)
	if s.cfg.MaxBytes > 0 && size > s.cfg.MaxBytes {
		s.tombstoneLocked(id, CauseCap, true)
		return fmt.Errorf("%w: %d bytes against cap %d", ErrTooLarge, size, s.cfg.MaxBytes)
	}
	for s.cfg.MaxBytes > 0 && s.bytes+size > s.cfg.MaxBytes {
		if !s.evictLRULocked() {
			break
		}
	}
	e := &entry{id: id, meta: meta, size: size, used: s.clock, added: s.now()}
	s.clock++
	if s.cfg.Dir != "" {
		e.path = SegmentPath(s.cfg.Dir, id)
		if err := writeSegment(e.path, s.key, id, meta, rows); err != nil {
			os.Remove(e.path)
			return err
		}
		if size <= s.cfg.MemCacheBytes {
			e.rows = rows
		}
	} else {
		e.rows = rows
	}
	s.entries[id] = e
	s.bytes += size
	delete(s.evicted, id)
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.ResultStored(id, size); err != nil {
			return fmt.Errorf("resultstore: journaling %s: %w", id, err)
		}
	}
	return nil
}

// Get returns a stored result's meta and plaintext rows, refreshing its
// LRU position. A gone result answers with its tombstone's *EvictedError;
// an ID never stored answers ErrNotFound.
func (s *Store) Get(id string) (meta []byte, rows [][]byte, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepExpiredLocked()
	e, ok := s.entries[id]
	if !ok {
		if cause, gone := s.evicted[id]; gone {
			return nil, nil, &EvictedError{ID: id, Cause: cause}
		}
		return nil, nil, ErrNotFound
	}
	e.used = s.clock
	s.clock++
	if e.rows != nil {
		return e.meta, e.rows, nil
	}
	segID, _, segRows, _, rerr := readSegment(e.path, s.key)
	if rerr != nil || segID != id {
		// The segment rotted underneath us, or holds another result's
		// authentic bytes: treat it like a torn segment found at recovery
		// — evict with a definite cause, never serve the other rows.
		s.dropLocked(e, CauseTorn, true)
		s.evictions++
		return nil, nil, &EvictedError{ID: id, Cause: CauseTorn}
	}
	return e.meta, segRows, nil
}

// Has reports whether the store currently holds a live result for id.
func (s *Store) Has(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[id]
	return ok
}

// EvictedCause returns the tombstoned eviction cause for id, if any.
func (s *Store) EvictedCause(id string) (Cause, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.evicted[id]
	return c, ok
}

// IDs lists the live result IDs (recovery reconciliation).
func (s *Store) IDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.entries))
	for id := range s.entries {
		ids = append(ids, id)
	}
	return ids
}

// Bytes reports the store's accounted size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Evictions reports results evicted at runtime (TTL, cap, rot).
func (s *Store) Evictions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}

// RecoveryEvictions reports results lost at recovery: torn segments,
// manifest-stored results with no surviving segment, and orphan segments
// whose manifest record never reached the log.
func (s *Store) RecoveryEvictions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recoveryEvictions
}

// MarkLost tombstones a result the manifest says was stored but whose
// segment did not survive (recovery cross-reference). Counted as a
// recovery eviction and journaled so the next replay agrees.
func (s *Store) MarkLost(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, live := s.entries[id]; live {
		return
	}
	if _, done := s.evicted[id]; done {
		return
	}
	s.recoveryEvictions++
	s.tombstoneLocked(id, CauseTorn, true)
}

// MarkEvicted tombstones a result without journaling or counting — used
// by recovery to materialise evictions the manifest already records, and
// to tombstone pre-store-era Delivered jobs.
func (s *Store) MarkEvicted(id string, cause Cause) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, live := s.entries[id]; live {
		return
	}
	s.evicted[id] = cause
}

// Discard evicts a live result at recovery: the crash hit after the
// manifest append but before the job durably reached Stored, so the
// segment serves no one. The drop is journaled with the given cause and
// counted as a recovery eviction, making the next replay agree without
// re-counting.
func (s *Store) Discard(id string, cause Cause) { s.evict(id, cause, &s.recoveryEvictions) }

// Evict is Discard in a live process, counted as a runtime eviction: the
// owner found that a result it just stored can serve no one.
func (s *Store) Evict(id string, cause Cause) { s.evict(id, cause, &s.evictions) }

func (s *Store) evict(id string, cause Cause, counter *uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[id]; ok {
		*counter++
		s.dropLocked(e, cause, true)
	}
}

// Remove drops a live result and its segment without a tombstone: an
// orphan whose manifest record never made the log (the crash tore Put
// between the segment write and the journal append). The job itself never
// durably reached Stored, so recipients are answered by its interrupted
// verdict, not an eviction — but the loss is still counted as a recovery
// eviction so operators see the tear.
func (s *Store) Remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[id]; ok {
		delete(s.entries, id)
		s.bytes -= e.size
		if e.path != "" {
			os.Remove(e.path)
		}
		s.recoveryEvictions++
	}
}

// tombstoneLocked records an eviction: cause tombstone plus journal entry.
func (s *Store) tombstoneLocked(id string, cause Cause, journal bool) {
	s.evicted[id] = cause
	if journal && s.cfg.Journal != nil {
		_ = s.cfg.Journal.ResultEvicted(id, string(cause))
	}
}

// dropLocked removes a live entry with an eviction verdict.
func (s *Store) dropLocked(e *entry, cause Cause, journal bool) {
	delete(s.entries, e.id)
	s.bytes -= e.size
	if e.path != "" {
		os.Remove(e.path)
	}
	s.tombstoneLocked(e.id, cause, journal)
}

// evictLRULocked evicts the least-recently-used result. False when empty.
func (s *Store) evictLRULocked() bool {
	var victim *entry
	for _, e := range s.entries {
		if victim == nil || e.used < victim.used {
			victim = e
		}
	}
	if victim == nil {
		return false
	}
	s.dropLocked(victim, CauseCap, true)
	s.evictions++
	return true
}

// sweepExpiredLocked lazily evicts results past the TTL.
func (s *Store) sweepExpiredLocked() {
	if s.cfg.TTL <= 0 {
		return
	}
	cutoff := s.now().Add(-s.cfg.TTL)
	for _, e := range s.entries {
		if !e.added.IsZero() && e.added.Before(cutoff) {
			s.dropLocked(e, CauseTTL, true)
			s.evictions++
		}
	}
}

// Close releases the store. Segments are reopened per read, so there is
// nothing to flush; Close exists for lifecycle symmetry.
func (s *Store) Close() error { return nil }

// String renders a one-line summary (debug logs).
func (s *Store) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "resultstore{live=%d bytes=%d evicted=%d}", len(s.entries), s.bytes, len(s.evicted))
	return b.String()
}
