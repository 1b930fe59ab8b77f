// Package wal is the job server's write-ahead log: an append-only,
// checksummed, length-prefixed record stream of contract registrations and
// job state transitions. The untrusted host H of the PPJ model can crash or
// misbehave at any instant; the WAL is what lets a restarted server give
// every tenant a deterministic answer about every job it ever admitted —
// the serving-layer analogue of the paper's "T is the only trusted party"
// stance, where H's only obligations are storage and liveness.
//
// On-disk format, one record per event:
//
//	record  := length(u32 BE) || crc32(u32 BE) || payload
//	payload := type(u8) || body
//
// The CRC (IEEE) covers the payload. Replay accepts any prefix of valid
// records: the first torn, truncated, or corrupt record ends the replay and
// everything from it on is discarded as a torn tail (the crash happened
// mid-write), never surfaced as a recovery error.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
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

// MaxPayload bounds a record payload. Contracts are a few KB; anything
// larger in a length prefix is corruption, not data.
const MaxPayload = 1 << 20

// headerSize is the frame prefix: u32 length + u32 crc.
const headerSize = 8

// Record is one durable event. Type selects which fields are populated
// (the layouts table lists them per type); the rest stay zero.
type Record struct {
	Type Type
	// Contract is the serialised contract (TypeRegistered only). The codec
	// is the caller's — the WAL stores opaque bytes so it depends on no
	// higher layer.
	Contract []byte
	// ContractID names the job of a transition or stored/evicted result
	// (for first executions the job ID equals the contract ID, so old logs
	// replay unchanged), the contract of a resubmission, and the cache key
	// of the cache-manifest records.
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

// field is one slot of a record body. The Go type at points to is its wire
// encoding: *[]byte takes the rest of the payload and must not be empty,
// *string is a u16 length and that many bytes, *int32 is one byte, *int64 is
// a big-endian u64 inside [min, max].
type field struct {
	name     string
	at       func(*Record) any
	min, max int64 // *int64 fields
	nonEmpty bool  // *string fields
}

var (
	fContract   = field{name: "contract bytes", at: func(r *Record) any { return &r.Contract }}
	fContractID = field{name: "contract id", at: func(r *Record) any { return &r.ContractID }}
	fJobID      = field{name: "job id", at: func(r *Record) any { return &r.JobID }, nonEmpty: true}
	fFrom       = field{name: "from state", at: func(r *Record) any { return &r.From }}
	fTo         = field{name: "to state", at: func(r *Record) any { return &r.To }}
	fCause      = field{name: "cause", at: func(r *Record) any { return &r.Cause }}
	fBytes      = field{name: "stored size", at: func(r *Record) any { return &r.Bytes }, max: 1 << 62}
	fEvery      = field{name: "schedule interval", at: func(r *Record) any { return &r.Every }, min: 1, max: math.MaxInt64}
	fDue        = field{name: "schedule due time", at: func(r *Record) any { return &r.Due }, max: math.MaxInt64}
)

// layouts is the whole body format: each record type's fields in wire
// order, after the type byte. Both directions of the codec walk it, so a
// payload has exactly one encoding (decode rejects trailing bytes) and
// decodePayload(encodePayload(r)) == r — what the fuzz harness relies on.
var layouts = map[Type][]field{
	TypeRegistered:    {fContract},
	TypeTransition:    {fContractID, fFrom, fTo, fCause},
	TypeResultStored:  {fContractID, fBytes},
	TypeResultEvicted: {fContractID, fCause},
	TypeResubmitted:   {fContractID, fJobID},
	TypeCacheStored:   {fContractID, fBytes},
	TypeCacheEvicted:  {fContractID, fCause},
	TypeScheduled:     {fContractID, fEvery, fDue},
}

var errEncode = errors.New("wal: cannot encode record")

// encodePayload renders the type byte and body.
func (r Record) encodePayload() ([]byte, error) {
	layout := layouts[r.Type]
	if layout == nil {
		return nil, fmt.Errorf("%w: unknown type %d", errEncode, r.Type)
	}
	// Every body but a registration's is a few short strings and numbers.
	p := make([]byte, 1, 64+len(r.Contract))
	p[0] = byte(r.Type)
	for _, f := range layout {
		ok := true
		switch v := f.at(&r).(type) {
		case *[]byte:
			ok = len(*v) > 0
			p = append(p, *v...)
		case *string:
			ok = len(*v) <= 0xffff && !(f.nonEmpty && *v == "")
			p = binary.BigEndian.AppendUint16(p, uint16(len(*v)))
			p = append(p, *v...)
		case *int32:
			ok = *v >= 0 && *v <= 0xff
			p = append(p, byte(*v))
		case *int64:
			ok = *v >= f.min && *v <= f.max
			p = binary.BigEndian.AppendUint64(p, uint64(*v))
		}
		if !ok {
			return nil, fmt.Errorf("%w: type %d: %s missing or out of range", errEncode, r.Type, f.name)
		}
	}
	return p, nil
}

// encodeFrame renders the full framed record: header + payload.
func (r Record) encodeFrame() ([]byte, error) {
	payload, err := r.encodePayload()
	if err != nil {
		return nil, err
	}
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("%w: payload %d bytes exceeds cap", errEncode, len(payload))
	}
	frame := make([]byte, headerSize+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[headerSize:], payload)
	return frame, nil
}

var errDecode = errors.New("wal: invalid record")

// decodePayload parses one checksummed payload.
func decodePayload(p []byte) (Record, error) {
	if len(p) < 1 {
		return Record{}, fmt.Errorf("%w: empty payload", errDecode)
	}
	r := Record{Type: Type(p[0])}
	layout := layouts[r.Type]
	if layout == nil {
		return Record{}, fmt.Errorf("%w: unknown type %d", errDecode, p[0])
	}
	body := p[1:]
	for _, f := range layout {
		ok := false
		switch v := f.at(&r).(type) {
		case *[]byte:
			ok = len(body) > 0
			*v, body = append([]byte(nil), body...), nil
		case *string:
			if len(body) < 2 {
				break
			}
			n := int(binary.BigEndian.Uint16(body))
			if ok = len(body) >= 2+n && !(f.nonEmpty && n == 0); ok {
				*v, body = string(body[2:2+n]), body[2+n:]
			}
		case *int32:
			if ok = len(body) >= 1; ok {
				*v, body = int32(body[0]), body[1:]
			}
		case *int64:
			if len(body) < 8 {
				break
			}
			u := binary.BigEndian.Uint64(body)
			if ok = u >= uint64(f.min) && u <= uint64(f.max); ok {
				*v, body = int64(u), body[8:]
			}
		}
		if !ok {
			return Record{}, fmt.Errorf("%w: type %d: %s short or out of range", errDecode, p[0], f.name)
		}
	}
	if len(body) != 0 {
		return Record{}, fmt.Errorf("%w: type %d: %d trailing bytes", errDecode, p[0], len(body))
	}
	return r, nil
}

// readFrame reads one framed record. Any malformation — short header, a
// length beyond MaxPayload, a truncated payload, a CRC mismatch, an
// undecodable payload — is reported as an error; Replay turns that into
// torn-tail truncation.
func readFrame(r io.Reader) (Record, int64, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Record{}, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n == 0 || n > MaxPayload {
		return Record{}, 0, fmt.Errorf("%w: payload length %d", errDecode, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Record{}, 0, err
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:8]) {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", errDecode)
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, int64(headerSize + int(n)), nil
}

// Replay decodes records from r until EOF or the first invalid byte. It
// never fails: a torn or corrupt record ends the replay and the returned
// offset marks the end of the last valid record, so callers can truncate
// the tail. Arbitrary input therefore yields some (possibly empty) prefix
// of records — the property FuzzWALDecode pins.
func Replay(r io.Reader) ([]Record, int64) {
	var (
		recs []Record
		off  int64
	)
	for {
		rec, n, err := readFrame(r)
		if err != nil {
			return recs, off
		}
		recs = append(recs, rec)
		off += n
	}
}
