package service

import (
	"bytes"
	"fmt"
	"math"

	"ppj/internal/frame"
)

// Contracts are long-lived artefacts — "contracts are kept encrypted at the
// server" (§3.3.3) — so they need a stable serialisation that parties can
// sign, archive and re-verify. It is a frame body (internal/frame): the
// signatures cover SigningPayload, not these bytes.

// MarshalContract serialises a contract, signatures included: its ID; each
// party's name, identity and role; the predicate's kind, attributes and
// parameter; the algorithm and ε; the aggregate's kind, table and
// attribute; the tenant; the signatures. A float is its IEEE 754 bits.
func MarshalContract(c *Contract) []byte {
	b := frame.AppendStr(nil, c.ID)
	b = frame.AppendU32(b, uint32(len(c.Parties)))
	for _, p := range c.Parties {
		b = frame.AppendStr(frame.AppendStr(frame.AppendStr(b, p.Name), p.Identity), p.Role)
	}
	p := c.Predicate
	b = frame.AppendStr(frame.AppendStr(frame.AppendStr(b, p.Kind), p.AttrA), p.AttrB)
	b = frame.AppendU64(b, math.Float64bits(p.Param))
	b = frame.AppendU64(frame.AppendStr(b, c.Algorithm), math.Float64bits(c.Epsilon))
	a := c.Aggregate
	b = frame.AppendStr(frame.AppendU64(frame.AppendStr(b, a.Kind), uint64(a.Table)), a.Attr)
	b = frame.AppendU32(frame.AppendStr(b, c.Tenant), uint32(len(c.Signatures)))
	for _, s := range c.Signatures {
		b = frame.AppendStr(b, s)
	}
	return b
}

// UnmarshalContract parses a serialised contract, keeping nothing of data.
// It does not check the signatures: NewServiceWithDevice, which every
// contract passes before it runs, does.
func UnmarshalContract(data []byte) (*Contract, error) {
	f := frame.NewFields(data)
	c := &Contract{ID: f.Str(), Parties: make([]Party, f.Count(3*4))}
	for i := range c.Parties {
		c.Parties[i] = Party{Name: f.Str(), Identity: bytes.Clone(f.Bytes()), Role: Role(f.Str())}
	}
	c.Predicate = PredicateSpec{Kind: f.Str(), AttrA: f.Str(), AttrB: f.Str(), Param: math.Float64frombits(f.U64())}
	c.Algorithm, c.Epsilon = f.Str(), math.Float64frombits(f.U64())
	c.Aggregate = AggregateSpec{Kind: f.Str(), Table: int(f.U64()), Attr: f.Str()}
	c.Tenant = f.Str()
	c.Signatures = make([][]byte, f.Count(4))
	for i := range c.Signatures {
		c.Signatures[i] = bytes.Clone(f.Bytes())
	}
	if err := f.End(); err != nil {
		return nil, fmt.Errorf("service: parsing contract: %w", err)
	}
	return c, nil
}
