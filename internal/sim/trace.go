// Package sim simulates the paper's hardware platform: an untrusted host H
// (general purpose machine providing memory and disk) with an attached
// secure coprocessor T (IBM 4758/4764-class device with a small protected
// memory). The privacy definitions (Def. 1 §4.2, Def. 3 §5.1.2) quantify
// over exactly one observable: the ordered list of host locations T reads
// and writes. The simulator therefore records every such access in an
// append-only Trace, and enforces T's memory capacity so algorithms cannot
// cheat by buffering more than M tuples inside the device.
package sim

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Op is the kind of a host-visible access.
type Op uint8

const (
	// OpGet is a transfer from H to T (T reads and decrypts a cell).
	OpGet Op = iota
	// OpPut is a transfer from T to H (T encrypts and writes a cell).
	OpPut
	// OpDisk is H persisting a cell to disk at T's request ("Request H to
	// write scratch[] to disk").
	OpDisk
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDisk:
		return "disk"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Event is one access to a host location: an element of the ordered list
// J_Ā of Definition 3.
type Event struct {
	Op     Op
	Region RegionID
	Index  int64
}

// String renders an event as e.g. "get B[3]".
func (e Event) String() string {
	return fmt.Sprintf("%s r%d[%d]", e.Op, e.Region, e.Index)
}

// Trace accumulates the access sequence. To keep multi-hundred-million-event
// runs cheap it maintains an order-sensitive FNV-1a digest and a count, and
// optionally records a bounded prefix of raw events for the adversary's
// fine-grained distinguishers. The recorder (record, batch.go) folds each
// event of a transfer into the device trace alone and adds the count of the
// whole transfer at once; a one-device host trace takes the device trace's
// digest instead of hashing again. The count is atomic so several devices
// can add theirs to a host trace without serialising on its digest; the
// digest and raw events are only meaningful for single-writer traces.
type Trace struct {
	hash        uint64
	count       atomic.Uint64
	events      []Event
	recordLimit int
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewTrace creates a trace that records up to recordLimit raw events
// (0 disables raw recording; the digest and count are always maintained).
func NewTrace(recordLimit int) *Trace {
	return &Trace{hash: fnvOffset, recordLimit: recordLimit}
}

// fold folds one access into the digest — FNV-1a over its 13-byte encoding
// op ‖ region (big-endian uint32) ‖ index (big-endian uint64) — and keeps it
// in the raw prefix. It does not count the access: its caller adds the
// count of a whole transfer at once.
func (t *Trace) fold(e Event) {
	var buf [13]byte
	buf[0] = byte(e.Op)
	binary.BigEndian.PutUint32(buf[1:], uint32(e.Region))
	binary.BigEndian.PutUint64(buf[5:], uint64(e.Index))
	h := t.hash
	for _, b := range buf {
		h ^= uint64(b)
		h *= fnvPrime
	}
	t.hash = h
	t.keep(e)
}

// keep records e in the raw prefix while it is below the record limit.
func (t *Trace) keep(e Event) {
	if len(t.events) < t.recordLimit {
		t.events = append(t.events, e)
	}
}

// Count returns the number of recorded accesses.
func (t *Trace) Count() uint64 { return t.count.Load() }

// Digest returns an order-sensitive digest of the full access sequence; two
// traces with equal digests and counts are treated as identical sequences.
func (t *Trace) Digest() uint64 { return t.hash }

// Events returns the recorded raw-event prefix (up to the record limit).
func (t *Trace) Events() []Event { return t.events }

// Truncated reports whether accesses beyond the record limit occurred.
func (t *Trace) Truncated() bool { return t.count.Load() > uint64(len(t.events)) }

// Equal reports whether two traces describe the same access sequence.
func (t *Trace) Equal(o *Trace) bool {
	return t.count.Load() == o.count.Load() && t.hash == o.hash
}
