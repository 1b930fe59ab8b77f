// Package wal is the job server's write-ahead log: an append-only,
// checksummed record stream of contract registrations and job state
// transitions. The untrusted host H of the PPJ model can crash or
// misbehave at any instant; the WAL is what lets a restarted server give
// every tenant a deterministic answer about every job it ever admitted —
// the serving-layer analogue of the paper's "T is the only trusted party"
// stance, where H's only obligations are storage and liveness.
//
// On-disk format: the magic, then one checked frame (internal/frame) per
// record, its frame type the record's Type:
//
//	log := "PPJWAL1\n" || frame*
//
// Replay accepts any prefix of valid records: the first torn, truncated,
// or corrupt record ends the replay and everything from it on is discarded
// as a torn tail (the crash happened mid-write), never surfaced as a
// recovery error. A log that does not start with the magic is not
// truncated but refused (ErrFormat), unless it is a prefix of the magic: a
// create the crash tore, which reads as an empty log.
package wal

import (
	"bytes"
	"errors"
	"fmt"

	"ppj/internal/frame"
)

// Type discriminates WAL records.
type Type uint8

const (
	// TypeRegistered records a contract admitted to the registry; the body
	// is the serialised contract.
	TypeRegistered Type = 1
	// TypeTransition records one job state transition.
	TypeTransition Type = 2
	// TypeResultStored records that a job's sealed result was written to the
	// durable result store: the store's manifest is journaled through the
	// same log as the job lifecycle, so one replay rebuilds both.
	TypeResultStored Type = 3
	// TypeResultEvicted records that a stored result was removed (TTL expiry,
	// byte-cap LRU eviction, or a torn segment found at recovery); Cause
	// names which, so a reconnecting recipient learns why the result is gone.
	TypeResultEvicted Type = 4
	// TypeResubmitted records a re-execution of a registered contract: the
	// body names the contract and the fresh job ID the server minted for
	// the run, so replay rebuilds the contract's execution history in
	// submission order.
	TypeResubmitted Type = 5
	// TypeCacheStored records a sorted-relation cache entry entering the
	// durable sort cache; ContractID carries the cache key and Bytes the
	// accounted segment size. Mirrors TypeResultStored for the second
	// store.
	TypeCacheStored Type = 6
	// TypeCacheEvicted records a sorted-relation cache entry leaving the
	// sort cache with its cause. Mirrors TypeResultEvicted.
	TypeCacheEvicted Type = 7
	// TypeScheduled records a contract's recurrence: the fixed re-execution
	// interval and the next due instant. One is appended when a recurring
	// contract registers and another every time the schedule fires (the
	// advanced due-time), so the last record per contract is the schedule's
	// durable word and a restarted server resumes firing from exactly where
	// the dead one left off.
	TypeScheduled Type = 8
)

// MaxPayload bounds a record's body. Contracts are a few KB; anything
// larger in a length prefix is corruption, not data.
const MaxPayload = 1 << 20

// Record is one durable event. Type selects which fields are populated
// (appendBody lists them per type); the rest stay zero.
type Record struct {
	Type Type
	// Contract is the serialised contract (TypeRegistered only). The codec
	// is the caller's — the WAL stores opaque bytes so it depends on no
	// higher layer.
	Contract []byte
	// ContractID names the job of a transition or stored/evicted result
	// (for first executions the job ID equals the contract ID), the
	// contract of a resubmission, and the cache key of the cache-manifest
	// records.
	ContractID string
	// JobID is the per-execution job ID a resubmission minted
	// (TypeResubmitted only).
	JobID string
	// From, To are the lifecycle states of a transition, as the server's
	// State values. They must fit a byte.
	From, To int32
	// Cause is the failure cause recorded on transitions into the failed
	// state, and the eviction cause of a TypeResultEvicted record; empty
	// otherwise.
	Cause string
	// Bytes is the stored result's accounted size (TypeResultStored only).
	Bytes int64
	// Every is a recurrence's fixed interval in nanoseconds and Due its
	// next due instant in Unix nanoseconds (TypeScheduled only).
	Every, Due int64
}

// magic opens every log this format writes.
var magic = []byte("PPJWAL1\n")

// ErrFormat refuses a log that does not start with the magic: one an
// earlier build wrote, or not a log at all. Recover leaves it untouched.
var ErrFormat = errors.New("wal: log is not in this build's format")

// recordCaps caps every record type's body at MaxPayload.
var recordCaps = frame.Caps{0, MaxPayload, MaxPayload, MaxPayload, MaxPayload, MaxPayload, MaxPayload, MaxPayload, MaxPayload}

// check refuses a record its type's body cannot carry, or that decoding
// could not reproduce: the encoding stays canonical.
func (r Record) check() error {
	ok := r.Type >= TypeRegistered && r.Type <= TypeScheduled
	switch r.Type {
	case TypeRegistered:
		ok = len(r.Contract) > 0
	case TypeTransition:
		ok = r.From >= 0 && r.From <= 0xff && r.To >= 0 && r.To <= 0xff
	case TypeResultStored, TypeCacheStored:
		ok = r.Bytes >= 0 && r.Bytes <= 1<<62
	case TypeResubmitted:
		ok = r.JobID != ""
	case TypeScheduled:
		ok = r.Every > 0 && r.Due >= 0
	}
	if !ok {
		return fmt.Errorf("wal: type %d record: unknown type, or a field missing or out of range", r.Type)
	}
	return nil
}

// appendBody appends the fields of r's type: the contract, or the ID and
// then the rest. A string or the contract is u32-prefixed, a state one
// byte, a size, interval or instant a u64.
func (r Record) appendBody(b []byte) []byte {
	if r.Type == TypeRegistered {
		return frame.AppendStr(b, r.Contract)
	}
	b = frame.AppendStr(b, r.ContractID)
	switch r.Type {
	case TypeTransition:
		return frame.AppendStr(append(b, byte(r.From), byte(r.To)), r.Cause)
	case TypeResultStored, TypeCacheStored:
		return frame.AppendU64(b, uint64(r.Bytes))
	case TypeResultEvicted, TypeCacheEvicted:
		return frame.AppendStr(b, r.Cause)
	case TypeResubmitted:
		return frame.AppendStr(b, r.JobID)
	default:
		return frame.AppendU64(frame.AppendU64(b, uint64(r.Every)), uint64(r.Due))
	}
}

// decodeRecord is appendBody's inverse, and refuses what check refuses.
func decodeRecord(typ byte, body []byte) (Record, error) {
	f := frame.NewFields(body)
	r := Record{Type: Type(typ)}
	if r.Type == TypeRegistered {
		r.Contract = bytes.Clone(f.Bytes())
	} else {
		r.ContractID = f.Str()
	}
	switch r.Type {
	case TypeTransition:
		r.From, r.To, r.Cause = int32(f.U8()), int32(f.U8()), f.Str()
	case TypeResultStored, TypeCacheStored:
		r.Bytes = int64(f.U64())
	case TypeResultEvicted, TypeCacheEvicted:
		r.Cause = f.Str()
	case TypeResubmitted:
		r.JobID = f.Str()
	case TypeScheduled:
		r.Every, r.Due = int64(f.U64()), int64(f.U64())
	}
	if err := f.End(); err != nil {
		return Record{}, fmt.Errorf("wal: type %d record: %w", typ, err)
	}
	return r, r.check()
}

// encodeFrame renders r as one checked frame.
func (r Record) encodeFrame() ([]byte, error) {
	if err := r.check(); err != nil {
		return nil, err
	}
	b := r.appendBody(frame.Start(make([]byte, 0, 64+len(r.Contract)), byte(r.Type)))
	if n := len(b) - frame.HeaderLen; n > MaxPayload {
		return nil, fmt.Errorf("wal: type %d record: %d-byte body over the %d cap", r.Type, n, MaxPayload)
	}
	return frame.FinishChecked(b, 0), nil
}

// Replay decodes the records of a log's frames, the bytes after its magic,
// until the end or the first invalid byte. It never fails: a torn or
// corrupt record ends the replay and the returned offset marks the end of
// the last valid record, so callers can truncate the tail. Arbitrary input
// therefore yields some (possibly empty) prefix of records — the property
// FuzzWALDecode pins.
func Replay(b []byte) ([]Record, int) {
	var recs []Record
	off := 0
	for {
		typ, body, rest, err := recordCaps.Cut(b[off:])
		if err != nil {
			return recs, off
		}
		rec, err := decodeRecord(typ, body)
		if err != nil {
			return recs, off
		}
		recs = append(recs, rec)
		off = len(b) - len(rest)
	}
}
