package service

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ppj/internal/core"
	"ppj/internal/relation"
)

// ingestAll uploads relA and relB into a fresh service for the given
// contract and returns the service (t.Fatal on any verdict).
func ingestAll(t *testing.T, contract *Contract, pA, pB testParty, relA, relB *relation.Relation, chunkRows int) *Service {
	t.Helper()
	svc, err := NewService(contract, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []struct {
		p   testParty
		rel *relation.Relation
	}{{pA, relA}, {pB, relB}} {
		if srvErr, cliErr := uploadOnce(t, svc, u.p, contract.ID, u.rel, chunkRows); srvErr != nil || cliErr != nil {
			t.Fatalf("upload %s (chunk=%d): server=%v client=%v", u.p.name, chunkRows, srvErr, cliErr)
		}
	}
	return svc
}

// assertUploadIs compares a committed upload row for row against the ground
// truth every framing must land: the input relation's own encoding.
func assertUploadIs(t *testing.T, svc *Service, party string, want *relation.Relation, label string) {
	t.Helper()
	wantRows, err := want.EncodeAll()
	if err != nil {
		t.Fatal(err)
	}
	have := uploadedRows(t, svc, party)
	if len(have) != len(wantRows) {
		t.Fatalf("%s: %s landed %d rows, the relation has %d", label, party, len(have), len(wantRows))
	}
	for i := range have {
		if !bytes.Equal(have[i], wantRows[i]) {
			t.Fatalf("%s: %s row %d differs from the relation's encoding", label, party, i)
		}
	}
}

// TestStreamingMatchesGroundTruth is the framing-is-pure-transport property:
// for relation sizes straddling the default chunk boundary and chunk sizes
// {1, 7, 64}, a streamed upload must commit exactly the input relation's
// EncodeAll(), and a pinned-seed execution over it must produce the same
// outcome whatever the chunk size — same cells, same sim.Stats, the same
// refusal text for degenerate inputs — and rows equal to the reference
// join, for a padded (alg3) and an unpadded (alg5) algorithm. Nothing
// downstream of ingest may observe the framing.
func TestStreamingMatchesGroundTruth(t *testing.T) {
	pA, pB, pC := newParty(t, "p1"), newParty(t, "p2"), newParty(t, "r")
	pred := PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"}
	relB := relation.GenKeyed(relation.NewRand(7), 16, 5)

	for _, alg := range []string{"alg3", "alg5"} {
		for _, size := range []int{0, 1, 63, 64, 65} {
			relA := relation.GenKeyed(relation.NewRand(uint64(size)+11), size, 5)
			eq, err := relation.NewEqui(relA.Schema, "key", relB.Schema, "key")
			if err != nil {
				t.Fatal(err)
			}
			want := relation.ReferenceJoin(relA, relB, eq)
			contract := buildContract(t, alg, pA, pB, pC, pred, 1e-9)
			contract.ID = fmt.Sprintf("equiv-%s-%d", alg, size)
			contract.Signatures = nil
			contract.Sign(0, pA.priv)
			contract.Sign(1, pB.priv)

			var first *Outcome
			for _, chunkRows := range []int{1, 7, 64} {
				label := fmt.Sprintf("%s size %d chunk %d", alg, size, chunkRows)
				svc := ingestAll(t, contract, pA, pB, relA, relB, chunkRows)
				assertUploadIs(t, svc, pA.name, relA, label)
				assertUploadIs(t, svc, pB.name, relB, label)
				out := svc.RunContract()
				if first == nil {
					first = &out
					if alg == "alg3" && size == 0 {
						// alg3 refuses an empty relation; the verdict is
						// pinned here and must repeat for every chunk size.
						if out.Err == nil || !strings.Contains(out.Err.Error(), "empty input relation") {
							t.Fatalf("%s: verdict %v, want alg3's empty-input refusal", label, out.Err)
						}
					}
				}
				if first.Err != nil || out.Err != nil {
					if first.Err == nil || out.Err == nil || out.Err.Error() != first.Err.Error() {
						t.Fatalf("%s: execution verdict %v, chunk-1 verdict %v", label, out.Err, first.Err)
					}
					continue
				}
				if out.Stats != first.Stats {
					t.Fatalf("%s: stats depend on chunk size:\n got %+v\nwant %+v", label, out.Stats, first.Stats)
				}
				if len(out.Rows) != len(first.Rows) {
					t.Fatalf("%s: %d output cells, chunk-1 produced %d", label, len(out.Rows), len(first.Rows))
				}
				got := relation.NewRelation(out.Schema)
				for i, cell := range out.Rows {
					if !bytes.Equal(cell, first.Rows[i]) {
						t.Fatalf("%s: output cell %d depends on chunk size", label, i)
					}
					if !core.IsReal(cell) {
						continue
					}
					row, err := out.Schema.Decode(core.Payload(cell))
					if err != nil {
						t.Fatal(err)
					}
					got.MustAppend(row)
				}
				if !relation.SameMultiset(got, want) {
					t.Fatalf("%s: %d rows, reference join has %d", label, got.Len(), want.Len())
				}
			}
		}
	}
}

// TestStreamingLargeUploadByteIdentity is the 10k-row point of the size
// grid: the join would dominate the suite, so only the upload half of the
// property is asserted at this size.
func TestStreamingLargeUploadByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-row upload grid skipped in -short")
	}
	pA, pB, pC := newParty(t, "p1"), newParty(t, "p2"), newParty(t, "r")
	pred := PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"}
	relA := relation.GenKeyed(relation.NewRand(31), 10000, 50)
	relB := relation.GenKeyed(relation.NewRand(32), 16, 5)
	contract := buildContract(t, "alg5", pA, pB, pC, pred, 0)

	for _, chunkRows := range []int{1, 7, 64} {
		label := fmt.Sprintf("10k chunk %d", chunkRows)
		svc := ingestAll(t, contract, pA, pB, relA, relB, chunkRows)
		assertUploadIs(t, svc, pA.name, relA, label)
		assertUploadIs(t, svc, pB.name, relB, label)
	}
}
