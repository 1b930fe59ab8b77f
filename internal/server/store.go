package server

import (
	"errors"

	"ppj/internal/server/wal"
)

// SiteRegister is the faultpoint fired before a registration record is
// appended to the WAL.
const SiteRegister = "register"

// SiteResultStored is the faultpoint fired before a result-stored
// manifest record is appended — the instant the fleet crash suite tears
// to leave a segment on disk that the manifest never acknowledged.
const SiteResultStored = "result:stored"

// SiteResultEvicted is the faultpoint fired before a result-evicted
// manifest record is appended.
const SiteResultEvicted = "result:evicted"

// SiteResubmit is the faultpoint fired before a resubmission record is
// appended — tearing here freezes the log with the contract registered but
// the re-execution unborn, the crash instant the re-execution recovery
// suite pins.
const SiteResubmit = "resubmit"

// SiteCacheStored is the faultpoint fired before a cache-stored manifest
// record is appended.
const SiteCacheStored = "cache:stored"

// SiteCacheEvicted is the faultpoint fired before a cache-evicted manifest
// record is appended.
const SiteCacheEvicted = "cache:evicted"

// SiteScheduled is the faultpoint fired before a schedule record is
// appended — both the one written at recurring registration and the
// advanced due-time written on every fire. Tearing here freezes the
// durable schedule at its previous word, the crash instant the recurrence
// recovery suite pins.
const SiteScheduled = "schedule"

// TransitionSite names the faultpoint fired before a from→to transition
// record is appended, e.g. "state:uploading->running". A hook returning
// wal.ErrCrashed at such a site freezes the on-disk log between two
// adjacent job states — the crash-between-transition schedules of the
// recovery suite.
func TransitionSite(from, to State) string {
	return "state:" + from.String() + "->" + to.String()
}

// journal is the server's one durable log: every event that must survive
// a crash — admissions, job state transitions, both stores' manifests,
// schedules — is one wal.Record appended through it. With a log it holds
// the data dir's advisory lock for its whole lifetime (one server process
// per directory); the zero journal is the in-memory server's, which
// persists nothing and fires no faultpoint.
type journal struct {
	log    *wal.Log
	faults *wal.Faults
	lock   *wal.DirLock
}

// openJournal locks dir against other processes, recovers its log —
// truncating any torn tail — and opens it for appending, returning the
// journal and the replayed records in write order. faults may be nil
// (production). A dir already locked by another server process is refused
// before recovery runs, so two processes can never truncate or interleave
// each other's live log.
func openJournal(dir string, faults *wal.Faults) (*journal, []wal.Record, error) {
	lock, err := wal.LockDir(dir)
	if err != nil {
		return nil, nil, err
	}
	recs, err := wal.Recover(dir)
	if err != nil {
		lock.Release()
		return nil, nil, err
	}
	log, err := wal.Open(dir, faults)
	if err != nil {
		lock.Release()
		return nil, nil, err
	}
	return &journal{log: log, faults: faults, lock: lock}, recs, nil
}

// append fires the event's faultpoint and writes rec: fsynced, with
// everything written before it, when sync is set, else left for the next
// synced record to make durable. A wal.ErrCrashed injection seals the log
// first, so nothing after the simulated crash instant reaches disk.
func (jn *journal) append(site string, rec wal.Record, sync bool) error {
	if jn.log == nil {
		return nil
	}
	if err := jn.faults.Fire(site); err != nil {
		if errors.Is(err, wal.ErrCrashed) {
			jn.log.Crash()
		}
		return err
	}
	if !sync {
		return jn.log.Write(rec)
	}
	return jn.log.Append(rec)
}

// Close releases the log, then the data-dir lock.
func (jn *journal) Close() error {
	if jn.log == nil {
		return nil
	}
	err := jn.log.Close()
	if lerr := jn.lock.Release(); err == nil {
		err = lerr
	}
	return err
}

// record journals an event whose in-memory effect stands whether or not
// the append succeeds (state transitions, store manifests). A refused
// append is counted: the live tables keep going, and a non-zero counter
// means a crash would recover something older than what is being served.
func (s *Server) record(site string, rec wal.Record, sync bool) error {
	err := s.journal.append(site, rec, sync)
	if err != nil {
		s.metrics.walAppendFailed()
		s.logf("server: wal: %s %s: %v", site, rec.ContractID, err)
	}
	return err
}

// manifest routes one result store's manifest events into the journal
// under that store's pair of record types, so one log carries the job
// lifecycle, the result manifest and the cache manifest, and one replay
// rebuilds all three.
type manifest struct {
	s           *Server
	stored      wal.Type
	storedSite  string
	evicted     wal.Type
	evictedSite string
	// storedSynced: a stored record is fsynced on its own. The result
	// store's is not: the job's synced Running → Stored record follows it
	// at once, and a segment whose stored record a crash lost recovers as
	// an orphan and is discarded. No record follows a cache entry's.
	storedSynced bool
}

// ResultStored implements resultstore.Journal.
func (m manifest) ResultStored(id string, size int64) error {
	return m.s.record(m.storedSite, wal.Record{Type: m.stored, ContractID: id, Bytes: size}, m.storedSynced)
}

// ResultEvicted implements resultstore.Journal.
func (m manifest) ResultEvicted(id, cause string) error {
	return m.s.record(m.evictedSite, wal.Record{Type: m.evicted, ContractID: id, Cause: cause}, true)
}
