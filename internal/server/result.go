package server

import (
	"errors"
	"fmt"

	"ppj/internal/frame"
	"ppj/internal/relation"
	"ppj/internal/server/resultstore"
	"ppj/internal/service"
)

// encodeResultMeta encodes the stored half of an outcome that is not rows:
// everything delivery needs to rebuild the begin frame after a restart,
// in the fields a begin frame carries them in — the schema's attributes,
// the algorithm, the device count. It is sealed inside the segment's
// header record.
func encodeResultMeta(out *service.Outcome) []byte {
	attrs := make([]relation.Attr, out.Schema.NumAttrs())
	for i := range attrs {
		attrs[i] = out.Schema.Attr(i)
	}
	b := frame.AppendStr(frame.AppendAttrs(nil, attrs), out.Algorithm)
	return frame.AppendU64(b, uint64(out.Devices))
}

// decodeResultMeta is encodeResultMeta's inverse (rows are attached by the
// caller). Every stored result is rows of a schema (an aggregate's is one
// row of core.AggSchema), so a meta without attributes is refused.
func decodeResultMeta(raw []byte) (service.Outcome, error) {
	f := frame.NewFields(raw)
	attrs, alg, devices := f.Attrs(), f.Str(), int(f.U64())
	if err := f.End(); err != nil {
		return service.Outcome{}, fmt.Errorf("server: decoding result meta: %w", err)
	}
	schema, err := relation.NewSchema(attrs...)
	if err != nil {
		return service.Outcome{}, fmt.Errorf("server: result meta: %w", err)
	}
	return service.Outcome{Schema: schema, Algorithm: alg, Devices: devices}, nil
}

// storeResult persists a successful outcome to the result store (segment
// plus manifest record). Failures don't fail the job: the outcome stays
// cached in memory for this process's recipients, the refusal or error is
// durable where it can be (a cap refusal tombstones the ID), and a crash
// before every recipient fetched resolves against whatever the WAL says.
func (s *Server) storeResult(id string, out *service.Outcome) {
	if err := s.results.Put(id, encodeResultMeta(out), out.Rows); err != nil {
		s.logf("server: result store: %s: %v", id, err)
	}
}

// loadResult rebuilds a delivery outcome from the result store. Gone
// results map to the typed refusals recipients are answered with:
// *ResultEvictedError (with its durable cause) for anything the store
// tombstoned, ErrResultUnavailable when there is no trace at all.
func (s *Server) loadResult(id string) (service.Outcome, error) {
	meta, rows, err := s.results.Get(id)
	if err != nil {
		var ev *resultstore.EvictedError
		if errors.As(err, &ev) {
			return service.Outcome{}, &ResultEvictedError{Cause: string(ev.Cause)}
		}
		return service.Outcome{}, ErrResultUnavailable
	}
	out, err := decodeResultMeta(meta)
	if err != nil {
		return service.Outcome{}, err
	}
	out.Rows = rows
	return out, nil
}

// serveRecipient is a recipient connection's whole life after the
// handshake: register presence (feeding job readiness), wait for the
// outcome to settle, then deliver, streamed from the hello's resume
// offset. A completed fetch counts
// toward the Stored → Delivered transition; a broken stream leaves the
// job Stored and the result in the store, so the recipient can reconnect
// and resume. Gone results are refused in-band with the typed eviction
// verdict, which is also returned to the serving layer.
func (s *Server) serveRecipient(j *Job, name string, sess *service.Session, resume uint32) error {
	j.noteRecipient(name)
	<-j.Settled()
	out, err := j.outcomeForDelivery()
	if err != nil {
		_ = j.svc.DeliverStream(sess, service.Outcome{Err: err, Algorithm: j.svc.Contract.Algorithm}, 0)
		return err
	}
	if err := j.svc.DeliverStream(sess, out, resume); err != nil {
		return fmt.Errorf("server: delivering to %s: %w", name, err)
	}
	j.recipientServed(name)
	return nil
}
