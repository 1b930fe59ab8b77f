package server

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"

	"ppj/internal/oblivious"
	"ppj/internal/relation"
	"ppj/internal/service"
	"ppj/internal/sim"
)

// copDelta subtracts two metric snapshots' aggregated coprocessor
// counters, isolating the cost of the executions between them.
func copDelta(before, after Snapshot) sim.Stats {
	return sim.Stats{
		Gets:         after.Coprocessor.Gets - before.Coprocessor.Gets,
		Puts:         after.Coprocessor.Puts - before.Coprocessor.Puts,
		LogicalReads: after.Coprocessor.LogicalReads - before.Coprocessor.LogicalReads,
		Comparisons:  after.Coprocessor.Comparisons - before.Coprocessor.Comparisons,
		PredEvals:    after.Coprocessor.PredEvals - before.Coprocessor.PredEvals,
		DiskRequests: after.Coprocessor.DiskRequests - before.Coprocessor.DiskRequests,
	}
}

// runExecution drives one full execution of g's contract over pipes — both
// providers upload g's relations, the recipient receives — and waits for
// the job to settle.
func runExecution(t *testing.T, srv *Server, g *group, j *Job) *relation.Relation {
	t.Helper()
	if err := g.pipeProvider(t, srv, g.provA, g.relA); err != nil {
		t.Fatal(err)
	}
	if err := g.pipeProvider(t, srv, g.provB, g.relB); err != nil {
		t.Fatal(err)
	}
	out := <-g.pipeRecipient(t, srv)
	if out.err != nil {
		t.Fatal(out.err)
	}
	waitDone(t, j)
	if j.State() != StateDelivered {
		t.Fatalf("job %s ended %s: %v", j.ID(), j.State(), j.Err())
	}
	return out.result
}

// reexecVariantInputs builds relation pairs agreeing only on the public
// parameters (|A| = |B| = 12, S = 8): variant 0 joins eight distinct keys
// one-to-one, variant 1 reaches the same S with one key of multiplicity
// 2 x 4. Payloads, keys, and row orders all differ with the seed.
func reexecVariantInputs(variant int, seed uint64) (*relation.Relation, *relation.Relation) {
	if variant == 0 {
		return genJoinSized(seed, 12, 12, 8)
	}
	rng := relation.NewRand(seed)
	a := relation.NewRelation(relation.KeyedSchema())
	for i := 0; i < 2; i++ {
		a.MustAppend(relation.Tuple{relation.IntValue(5), relation.IntValue(rng.Int64N(1 << 30))})
	}
	for i := 0; i < 10; i++ {
		a.MustAppend(relation.Tuple{relation.IntValue(100 + int64(i)), relation.IntValue(rng.Int64N(1 << 30))})
	}
	b := relation.NewRelation(relation.KeyedSchema())
	for i := 0; i < 4; i++ {
		b.MustAppend(relation.Tuple{relation.IntValue(5), relation.IntValue(rng.Int64N(1 << 30))})
	}
	for i := 0; i < 8; i++ {
		b.MustAppend(relation.Tuple{relation.IntValue(900 + int64(i)), relation.IntValue(rng.Int64N(1 << 30))})
	}
	return a, b
}

// reexecOutcome is one server's observable cost profile across a cold
// execution and a warm re-execution of the same contract.
type reexecOutcome struct {
	cold, warm              sim.Stats
	coldHits, coldMisses    uint64
	warmHits, warmMisses    uint64
	cacheBytesAfterCold     int64
	firstJobSeq, warmJobSeq int
	// final is the whole metrics surface after both runs, timings zeroed.
	final Snapshot
}

// reexecMemory is the device memory M of the re-execution servers.
const reexecMemory = 16

// warmSaving is what a warm re-execution saves per side of q rows: the
// wrap (2q), the readback (q) and the span sort at the servers' block size,
// less the pads the warm restore writes too.
func warmSaving(q int64) int64 {
	return 3*q - oblivious.NextPow2(q) + oblivious.SortTransfers(q, oblivious.BlockFor(reexecMemory))
}

// runColdWarm registers an alg7 contract on a fresh server with P devices
// per job, executes it, resubmits, and executes again with the identical
// uploads, measuring each run through the metrics surface only — exactly
// what an operator of the real service could observe.
func runColdWarm(t *testing.T, p int, relA, relB *relation.Relation) reexecOutcome {
	t.Helper()
	srv, err := New(Config{Workers: 1, Memory: reexecMemory, DevicesPerJob: p})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	g := newGroupRels(t, "reexec-inv", "alg7", relA, relB)
	want := g.wantJoin()
	j, err := srv.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}
	base := srv.MetricsSnapshot()
	coldRes := runExecution(t, srv, g, j)
	mid := srv.MetricsSnapshot()
	j2, err := srv.Resubmit(g.contract.ID)
	if err != nil {
		t.Fatal(err)
	}
	warmRes := runExecution(t, srv, g, j2)
	end := srv.MetricsSnapshot()
	assertSameRows(t, coldRes, want, "cold execution")
	assertSameRows(t, warmRes, want, "warm re-execution")
	return reexecOutcome{
		cold:                copDelta(base, mid),
		warm:                copDelta(mid, end),
		coldHits:            mid.SortCacheHits - base.SortCacheHits,
		coldMisses:          mid.SortCacheMisses - base.SortCacheMisses,
		warmHits:            end.SortCacheHits - mid.SortCacheHits,
		warmMisses:          end.SortCacheMisses - mid.SortCacheMisses,
		cacheBytesAfterCold: mid.SortCacheBytes,
		firstJobSeq:         j.seq,
		warmJobSeq:          j2.seq,
		final:               untimed(end),
	}
}

// TestReexecutionAccessPatternInvariance is the tentpole leakage pin at
// the serving layer: two servers run the same contract twice over inputs
// that agree only on the public sizes (|A|, |B|, S). The cold executions
// must charge identical coprocessor stats, and the warm re-executions —
// each served from its own server's sorted-relation cache — must also
// charge identical stats, serially and at P in {2, 4}. Serially, the warm
// saving additionally matches the closed form warmSaving: per side the
// cache removes the wrap, the pre-sort at the servers' block size, and the
// readback (the pads are folded into the restore). So the hit/miss bit itself
// reveals only what the sizes already reveal.
func TestReexecutionAccessPatternInvariance(t *testing.T) {
	const q = 12 // per-side row count; S = 8 — all public
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			a1, b1 := reexecVariantInputs(0, 60601)
			a2, b2 := reexecVariantInputs(1, 70702)
			r1 := runColdWarm(t, p, a1, b1)
			r2 := runColdWarm(t, p, a2, b2)
			for _, r := range []reexecOutcome{r1, r2} {
				if r.coldHits != 0 || r.coldMisses != 2 {
					t.Fatalf("cold cache use: %d hits / %d misses, want 0/2", r.coldHits, r.coldMisses)
				}
				if r.warmHits != 2 || r.warmMisses != 0 {
					t.Fatalf("warm cache use: %d hits / %d misses, want 2/0", r.warmHits, r.warmMisses)
				}
				if r.firstJobSeq != 1 || r.warmJobSeq != 2 {
					t.Fatalf("execution sequence: %d then %d, want 1 then 2", r.firstJobSeq, r.warmJobSeq)
				}
			}
			if r1.cold != r2.cold {
				t.Fatalf("cold schedule depends on tuple contents:\n server1 %+v\n server2 %+v", r1.cold, r2.cold)
			}
			if r1.warm != r2.warm {
				t.Fatalf("warm schedule depends on tuple contents:\n server1 %+v\n server2 %+v", r1.warm, r2.warm)
			}
			if r1.cacheBytesAfterCold != r2.cacheBytesAfterCold {
				t.Fatalf("cached bytes depend on tuple contents: %d vs %d",
					r1.cacheBytesAfterCold, r2.cacheBytesAfterCold)
			}
			if !reflect.DeepEqual(r1.final, r2.final) {
				t.Fatalf("metrics snapshot depends on tuple contents:\n server1 %+v\n server2 %+v", r1.final, r2.final)
			}
			if p == 1 {
				saved := int64(r1.cold.Transfers()) - int64(r1.warm.Transfers())
				if want := 2 * warmSaving(q); saved != want {
					t.Fatalf("warm re-execution saved %d transfers, want the closed form 2·warmSaving(q) = %d", saved, want)
				}
			}
		})
	}
}

// TestReexecutionWarmSkipsPreSortAt4096 is the acceptance scenario at
// scale: an alg7 contract over 2048 rows per side (union n = 4096). The
// warm re-execution must skip both per-side pre-sorts, with the
// end-to-end transfer delta — measured through the metrics surface across
// upload, join, and delivery — exactly the closed form.
func TestReexecutionWarmSkipsPreSortAt4096(t *testing.T) {
	if testing.Short() {
		t.Skip("n=4096 oblivious join in -short mode")
	}
	const nSide = 2048
	relA, relB := genJoinSized(99, nSide, nSide, 16)
	r := runColdWarm(t, 1, relA, relB)
	if r.warmHits != 2 || r.warmMisses != 0 {
		t.Fatalf("warm cache use: %d hits / %d misses, want 2/0", r.warmHits, r.warmMisses)
	}
	saved := int64(r.cold.Transfers()) - int64(r.warm.Transfers())
	if want := 2 * warmSaving(nSide); saved != want {
		t.Fatalf("warm re-execution saved %d transfers, want 2·warmSaving(q) = %d", saved, want)
	}
}

// TestReexecutionHistoryAndJobAddressing pins the identity model: a
// contract's executions accumulate as jobs "<id>", "<id>#2", "<id>#3"; an
// empty hello JobID routes to the latest; an explicit JobID addresses one
// specific execution — including re-fetching a past execution's stored
// result after later runs; and a re-execution whose one upload changed
// (same sizes, different bytes) hits the cache only on the unchanged
// side, because the key digests the content inside the seal boundary.
func TestReexecutionHistoryAndJobAddressing(t *testing.T) {
	srv, err := New(Config{Workers: 1, Memory: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	relA, relB := genJoinSized(123, 10, 10, 6)
	g := newGroupRels(t, "reexec-hist", "alg7", relA, relB)
	j1, err := srv.Register(g.contract)
	if err != nil {
		t.Fatal(err)
	}
	res1 := runExecution(t, srv, g, j1)

	j2, err := srv.Resubmit(g.contract.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID() != g.contract.ID+"#2" || j2.seq != 2 {
		t.Fatalf("second execution is %q seq %d, want %q seq 2", j2.ID(), j2.seq, g.contract.ID+"#2")
	}
	runExecution(t, srv, g, j2)

	// Third execution with side B re-uploaded under the same sizes but
	// different payload bytes: A hits, B misses.
	relB2 := relation.NewRelation(relation.KeyedSchema())
	for i, row := range relB.Rows {
		relB2.MustAppend(relation.Tuple{row[0], relation.IntValue(int64(i) + 777_777)})
	}
	g.relB = relB2
	mid := srv.MetricsSnapshot()
	j3, err := srv.Resubmit(g.contract.ID)
	if err != nil {
		t.Fatal(err)
	}
	res3 := runExecution(t, srv, g, j3)
	end := srv.MetricsSnapshot()
	if hits, misses := end.SortCacheHits-mid.SortCacheHits, end.SortCacheMisses-mid.SortCacheMisses; hits != 1 || misses != 1 {
		t.Fatalf("changed-upload run: %d hits / %d misses, want 1 hit (unchanged A) and 1 miss (changed B)", hits, misses)
	}
	eq, _ := relation.NewEqui(relA.Schema, "key", relB2.Schema, "key")
	assertSameRows(t, res3, relation.ReferenceJoin(relA, relB2, eq), "third execution")

	execs := srv.Registry().Executions(g.contract.ID)
	if len(execs) != 3 {
		t.Fatalf("execution history has %d entries, want 3", len(execs))
	}
	for i, wantID := range []string{g.contract.ID, g.contract.ID + "#2", g.contract.ID + "#3"} {
		if execs[i].ID() != wantID || execs[i].seq != i+1 {
			t.Fatalf("history[%d] = %q seq %d, want %q seq %d", i, execs[i].ID(), execs[i].seq, wantID, i+1)
		}
	}

	// Latest-by-default and explicit addressing through the registry.
	if j, err := srv.Registry().Lookup(g.contract.ID, ""); err != nil || j.ID() != j3.ID() {
		t.Fatalf("empty JobID resolved to %v (%v), want the latest execution %q", j, err, j3.ID())
	}
	if j, err := srv.Registry().Lookup(g.contract.ID, g.contract.ID+"#2"); err != nil || j.ID() != j2.ID() {
		t.Fatalf("explicit JobID resolved to %v (%v), want %q", j, err, j2.ID())
	}
	if _, err := srv.Registry().Lookup(g.contract.ID, g.contract.ID+"#9"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown JobID error = %v, want ErrUnknownJob", err)
	}

	// A recipient addressing the FIRST execution over the wire still
	// receives that run's stored result, two executions later.
	serverEnd, clientEnd := net.Pipe()
	go func() {
		defer serverEnd.Close()
		_ = handleConn(srv, serverEnd)
	}()
	cs, err := g.client(g.recip, srv).ConnectJobResume(clientEnd, service.RoleRecipient, g.contract.ID, j1.ID(), 0)
	if err != nil {
		t.Fatal(err)
	}
	refetched, err := cs.ReceiveResult()
	clientEnd.Close()
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, refetched, res1, "re-fetch of execution 1 by JobID")
}

// TestResubmitValidation pins the identity model's refusals: '#' is
// reserved in contract IDs, and resubmitting an unregistered contract is
// a typed unknown-contract error.
func TestResubmitValidation(t *testing.T) {
	srv, err := New(Config{Workers: 1, Memory: 16})
	if err != nil {
		t.Fatal(err)
	}
	g := newGroup(t, "bad#id", "alg5", 1, 2, 4, 4)
	if _, err := srv.Register(g.contract); err == nil {
		t.Fatal("contract ID containing '#' was registered")
	}
	if _, err := srv.Resubmit("never-registered"); !errors.Is(err, ErrUnknownContract) {
		t.Fatalf("resubmit of unknown contract = %v, want ErrUnknownContract", err)
	}
}
