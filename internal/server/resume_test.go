package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppj/internal/clock"
	"ppj/internal/relation"
	"ppj/internal/service"
)

// newGroupRels builds a signed two-provider/one-recipient contract over
// explicit input relations (the delivery tests control result sizes
// exactly).
func newGroupRels(t *testing.T, id, alg string, relA, relB *relation.Relation) *group {
	t.Helper()
	g := &group{
		provA: newParty(t, id+"-provA"),
		provB: newParty(t, id+"-provB"),
		recip: newParty(t, id+"-recip"),
		relA:  relA,
		relB:  relB,
	}
	g.contract = &service.Contract{
		ID: id,
		Parties: []service.Party{
			{Name: g.provA.name, Identity: g.provA.pub, Role: service.RoleProvider},
			{Name: g.provB.name, Identity: g.provB.pub, Role: service.RoleProvider},
			{Name: g.recip.name, Identity: g.recip.pub, Role: service.RoleRecipient},
		},
		Predicate: service.PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"},
		Algorithm: alg,
		Epsilon:   1e-9,
	}
	g.contract.Sign(0, g.provA.priv)
	g.contract.Sign(1, g.provB.priv)
	return g
}

// genJoinSized builds a pair of keyed relations whose equijoin has exactly s
// rows (each of the first s B rows matches exactly one A key; the rest
// miss), so an unpadded algorithm's result stream has exactly s rows —
// the geometry the chunk-boundary grid needs.
func genJoinSized(seed uint64, nA, nB, s int) (*relation.Relation, *relation.Relation) {
	rng := relation.NewRand(seed)
	a := relation.NewRelation(relation.KeyedSchema())
	for i := 0; i < nA; i++ {
		a.MustAppend(relation.Tuple{relation.IntValue(int64(i)), relation.IntValue(rng.Int64N(1 << 30))})
	}
	b := relation.NewRelation(relation.KeyedSchema())
	for j := 0; j < s; j++ {
		b.MustAppend(relation.Tuple{relation.IntValue(int64(j % nA)), relation.IntValue(rng.Int64N(1 << 30))})
	}
	for j := s; j < nB; j++ {
		b.MustAppend(relation.Tuple{relation.IntValue(int64(nA) + rng.Int64N(1<<20)), relation.IntValue(rng.Int64N(1 << 30))})
	}
	return a, b
}

// fetchLeg runs one recipient connection: connect with f's accumulated
// resume offset in the hello, then fetch up to pause more chunks (0 fetches
// to completion). A paused leg abandons the connection mid-stream, exactly
// like a vanished recipient.
func (g *group) fetchLeg(srv *Server, f *service.ResultFetch, pause uint32) error {
	serverEnd, clientEnd := net.Pipe()
	defer clientEnd.Close()
	go func() {
		defer serverEnd.Close()
		_ = handleConn(srv, serverEnd)
	}()
	cs, err := g.client(g.recip, srv).ConnectContractResume(clientEnd, service.RoleRecipient, g.contract.ID, f.Chunks)
	if err != nil {
		return err
	}
	f.PauseAfter = pause
	return cs.FetchResult(f)
}

// assertSameRowSequence asserts got and want hold the byte-identical rows
// in the identical order — the reassembly identity the resume property
// pins (assertSameRows only compares multisets).
func assertSameRowSequence(t *testing.T, got, want *relation.Relation, label string) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil relation (got=%v want=%v)", label, got == nil, want == nil)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: got %d rows, want %d", label, got.Len(), want.Len())
	}
	for i := range got.Rows {
		ge, err := got.Schema.Encode(got.Rows[i])
		if err != nil {
			t.Fatal(err)
		}
		we, err := want.Schema.Encode(want.Rows[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ge, we) {
			t.Fatalf("%s: row %d differs", label, i)
		}
	}
}

// TestResumableDeliveryProperty is the tentpole's acceptance property: for
// {alg3, alg5} and result sizes straddling the 64-row chunk boundary, a
// recipient that fetches in paused legs — disconnecting at a different
// chunk offset each time, with a whole-process server crash and WAL+
// manifest recovery in the middle — reassembles exactly the join a
// one-shot fetch yields, and a post-Delivered re-fetch straight from the
// durable store is row-for-row identical to the resumed assembly.
func TestResumableDeliveryProperty(t *testing.T) {
	for _, alg := range []string{"alg3", "alg5"} {
		for _, size := range []int{0, 1, 63, 64, 65} {
			t.Run(fmt.Sprintf("%s-%d", alg, size), func(t *testing.T) {
				dir := t.TempDir()
				srv, err := New(Config{Workers: 1, Memory: 16, DataDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				srv.Start()
				id := fmt.Sprintf("res-%s-%d", alg, size)
				var g *group
				if alg == "alg3" {
					// Join3's padded output is |A|*N rows; N=1 makes the
					// stream exactly |A| = size rows.
					var relA, relB *relation.Relation
					if size == 0 {
						relA = relation.NewRelation(relation.KeyedSchema())
						relB = relation.GenKeyed(relation.NewRand(7), 8, 5)
					} else {
						relA, relB = relation.GenWithMatchBound(relation.NewRand(uint64(size)+11), size, 8, 1)
					}
					g = newGroupRels(t, id, alg, relA, relB)
				} else {
					relA, relB := genJoinSized(uint64(size)+17, 8, size+4, size)
					g = newGroupRels(t, id, alg, relA, relB)
				}
				j, err := srv.Register(g.contract)
				if err != nil {
					t.Fatal(err)
				}
				if err := g.pipeProvider(t, srv, g.provA, g.relA); err != nil {
					t.Fatal(err)
				}
				if err := g.pipeProvider(t, srv, g.provB, g.relB); err != nil {
					t.Fatal(err)
				}

				f := &service.ResultFetch{}
				err = g.fetchLeg(srv, f, 1)
				if alg == "alg3" && size == 0 {
					// alg3 refuses an empty relation; the verdict is the
					// delivery, and it must arrive in-band on the stream.
					if err == nil || !strings.Contains(err.Error(), "join failed") {
						t.Fatalf("degenerate alg3 delivery: %v", err)
					}
					return
				}
				// Resume loop with widening strides, restarting the whole
				// server at the first pause: the job must recover in Stored
				// and keep serving the remainder from the durable segment.
				restarted := false
				leg := 1
				for errors.Is(err, service.ErrFetchPaused) {
					if !restarted {
						srv2, rerr := New(Config{Workers: 1, Memory: 16, DataDir: dir})
						if rerr != nil {
							t.Fatal(rerr)
						}
						srv2.Start()
						j2, lerr := srv2.Registry().Lookup(g.contract.ID, "")
						if lerr != nil {
							t.Fatal(lerr)
						}
						if j2.State() != StateStored {
							t.Fatalf("recovered mid-fetch as %s, want stored", j2.State())
						}
						srv, j = srv2, j2
						restarted = true
					}
					leg++
					err = g.fetchLeg(srv, f, uint32(leg))
				}
				if err != nil {
					t.Fatalf("fetch leg %d (offset %d): %v", leg, f.Chunks, err)
				}
				if !f.Done {
					t.Fatal("fetch finished without the end frame")
				}
				assertSameRows(t, f.Rows, g.wantJoin(), "resumed assembly")
				waitDone(t, j)
				if j.State() != StateDelivered {
					t.Fatalf("served job in state %s, want delivered", j.State())
				}

				// Byte identity across the store: a fresh one-shot fetch
				// reads the segment back and must reassemble the identical
				// row sequence the resumed legs produced.
				f2 := &service.ResultFetch{}
				if err := g.fetchLeg(srv, f2, 0); err != nil {
					t.Fatalf("post-delivery re-fetch: %v", err)
				}
				assertSameRowSequence(t, f2.Rows, f.Rows, "store re-fetch")
			})
		}
	}
}

// TestResultEvictionCauses pins the typed "gone forever" verdicts: a
// result evicted by the LRU byte cap, expired by TTL, or never persisted
// at all (a Delivered tombstone from a log that predates the result
// store) each answer a reconnecting recipient with ErrResultEvicted
// carrying the exact cause, in-band on the delivery stream.
func TestResultEvictionCauses(t *testing.T) {
	t.Run("cap", func(t *testing.T) {
		relA, relB := genJoinSized(91, 5, 9, 5)
		gA := newGroupRels(t, "cap-a", "alg5", relA, relB)
		relA, relB = genJoinSized(92, 5, 9, 5)
		gB := newGroupRels(t, "cap-b", "alg5", relA, relB)

		// Calibrate: measure one sealed result's accounted size on an
		// unbounded scratch server, then cap the real server at 1.5x —
		// the cap holds one result but not two, so storing job B's
		// result evicts job A's (the LRU victim).
		scratch, err := New(Config{Workers: 1, Memory: 16, DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		scratch.Start()
		j0, err := scratch.Register(gA.contract)
		if err != nil {
			t.Fatal(err)
		}
		driveToDelivered(t, scratch, gA, j0)
		size := scratch.MetricsSnapshot().ResultStoreBytes
		if size == 0 {
			t.Fatal("calibration stored nothing")
		}
		capBytes := size + size/2

		srv, err := New(Config{Workers: 1, Memory: 16, DataDir: t.TempDir(), MaxResultBytes: capBytes})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		jA, err := srv.Register(gA.contract)
		if err != nil {
			t.Fatal(err)
		}
		driveToDelivered(t, srv, gA, jA)
		jB, err := srv.Register(gB.contract)
		if err != nil {
			t.Fatal(err)
		}
		driveToDelivered(t, srv, gB, jB)

		_, err = srv.loadResult(gA.contract.ID)
		var ev *ResultEvictedError
		if !errors.Is(err, ErrResultEvicted) || !errors.As(err, &ev) || ev.Cause != "cap" {
			t.Fatalf("loadResult after cap eviction: %v, want ErrResultEvicted (cap)", err)
		}
		if o := <-gA.pipeRecipient(t, srv); o.err == nil || !strings.Contains(o.err.Error(), "evicted") || !strings.Contains(o.err.Error(), "(cap)") {
			t.Fatalf("reconnect after cap eviction got %+v, want in-band cap verdict", o)
		}
		// The survivor still serves.
		if o := <-gB.pipeRecipient(t, srv); o.err != nil {
			t.Fatalf("unevicted result refused: %v", o.err)
		}
		snap := srv.MetricsSnapshot()
		if snap.ResultStoreEvictions != 1 || snap.ResultStoreBytes > capBytes {
			t.Fatalf("snapshot evictions=%d bytes=%d, want 1 eviction under cap %d", snap.ResultStoreEvictions, snap.ResultStoreBytes, capBytes)
		}
	})

	t.Run("ttl", func(t *testing.T) {
		// The store's expiry clock is the server's injected fake, so the
		// TTL boundary is deterministic — no sleeps, no wall-clock margin.
		fake := clock.NewFake(time.Unix(60_000, 0))
		srv, err := New(Config{Workers: 1, Memory: 16, DataDir: t.TempDir(), ResultTTL: time.Hour, Clock: fake})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		g := newGroup(t, "ttl-a", "alg5", 85, 86, 5, 5)
		j, err := srv.Register(g.contract)
		if err != nil {
			t.Fatal(err)
		}
		driveToDelivered(t, srv, g, j)
		fake.Advance(time.Hour + time.Minute)
		var ev *ResultEvictedError
		if _, err := srv.loadResult(g.contract.ID); !errors.As(err, &ev) || ev.Cause != "ttl" {
			t.Fatalf("loadResult after TTL: %v, want ErrResultEvicted (ttl)", err)
		}
		if o := <-g.pipeRecipient(t, srv); o.err == nil || !strings.Contains(o.err.Error(), "(ttl)") {
			t.Fatalf("reconnect after TTL got %+v, want in-band ttl verdict", o)
		}
	})

	t.Run("pre-store", func(t *testing.T) {
		// A log written before the result store existed: the job went
		// Running -> Delivered with no manifest record. Recovery must
		// tombstone it pre-store, not leave a bare "unavailable".
		dir := t.TempDir()
		g := newGroup(t, "old-era", "alg5", 87, 88, 5, 5)
		jn := seedJournal(t, dir)
		seedRegistered(t, jn, g.contract)
		for _, tr := range [][2]State{{StatePending, StateUploading}, {StateUploading, StateRunning}, {StateRunning, StateDelivered}} {
			seedTransition(t, jn, g.contract.ID, tr[0], tr[1], "")
		}
		if err := jn.Close(); err != nil {
			t.Fatal(err)
		}

		srv, err := New(Config{Workers: 1, Memory: 16, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		j, err := srv.Registry().Lookup(g.contract.ID, "")
		if err != nil {
			t.Fatal(err)
		}
		if j.State() != StateDelivered {
			t.Fatalf("recovered as %s, want delivered", j.State())
		}
		var ev *ResultEvictedError
		if _, err := srv.loadResult(g.contract.ID); !errors.As(err, &ev) || ev.Cause != "pre-store" {
			t.Fatalf("loadResult for pre-store-era job: %v, want ErrResultEvicted (pre-store)", err)
		}
		if o := <-g.pipeRecipient(t, srv); o.err == nil || !strings.Contains(o.err.Error(), "(pre-store)") {
			t.Fatalf("pre-store-era reconnect got %+v, want in-band pre-store verdict", o)
		}
	})
}

// TestResumeUnderEviction is the -race stress of the byte cap: six jobs
// race result storage and paused-then-resumed fetches against a cap that
// holds only three results, while a sampler asserts the store's accounted
// bytes never exceed the cap — not even transiently — and every recipient
// still reassembles its exact join (a Stored job serves its cached outcome
// even after its segment is evicted).
func TestResumeUnderEviction(t *testing.T) {
	const capBytes = 900
	srv, err := New(Config{Workers: 2, Memory: 16, DataDir: t.TempDir(), MaxResultBytes: capBytes})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	var breach atomic.Int64
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if b := srv.MetricsSnapshot().ResultStoreBytes; b > capBytes {
				breach.Store(b)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const jobs = 6
	groups := make([]*group, jobs)
	for i := range groups {
		groups[i] = newGroup(t, fmt.Sprintf("evict-%d", i), "alg5",
			uint64(100+2*i), uint64(101+2*i), 5, 5)
		if _, err := srv.Register(groups[i].contract); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, jobs)
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			for _, up := range []struct {
				p   testParty
				rel *relation.Relation
			}{{g.provA, g.relA}, {g.provB, g.relB}} {
				if err := g.pipeProvider(t, srv, up.p, up.rel); err != nil {
					errs <- fmt.Errorf("%s upload: %w", g.contract.ID, err)
					return
				}
			}
			f := &service.ResultFetch{}
			err := g.fetchLeg(srv, f, 1)
			for errors.Is(err, service.ErrFetchPaused) {
				err = g.fetchLeg(srv, f, 2)
			}
			if err != nil {
				errs <- fmt.Errorf("%s fetch: %w", g.contract.ID, err)
				return
			}
			got, want := relation.Multiset(f.Rows), relation.Multiset(g.wantJoin())
			if len(got) != len(want) {
				errs <- fmt.Errorf("%s: wrong join", g.contract.ID)
				return
			}
			for k, v := range want {
				if got[k] != v {
					errs <- fmt.Errorf("%s: wrong join rows", g.contract.ID)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	close(stop)
	sampler.Wait()
	if b := breach.Load(); b != 0 {
		t.Fatalf("store bytes reached %d, cap %d", b, capBytes)
	}
	snap := srv.MetricsSnapshot()
	if snap.ResultStoreBytes > capBytes {
		t.Fatalf("final store bytes %d exceed cap %d", snap.ResultStoreBytes, capBytes)
	}
	if snap.ResultStoreEvictions == 0 {
		t.Fatal("six results against a three-result cap evicted nothing")
	}
}

// meterConn records the size of every completed write on the server's side
// of a recipient connection — the host-observable wire trace of one
// delivery.
type meterConn struct {
	net.Conn
	mu     *sync.Mutex
	writes *[]int
}

func (c meterConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if err == nil {
		c.mu.Lock()
		*c.writes = append(*c.writes, n)
		c.mu.Unlock()
	}
	return n, err
}

// meteredFetch runs one complete recipient fetch (resume offset taken from
// f) and returns the server's write-size sequence for the connection.
func meteredFetch(t *testing.T, srv *Server, g *group, f *service.ResultFetch) []int {
	t.Helper()
	serverEnd, clientEnd := net.Pipe()
	defer clientEnd.Close()
	var mu sync.Mutex
	var writes []int
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer serverEnd.Close()
		_ = handleConn(srv, meterConn{Conn: serverEnd, mu: &mu, writes: &writes})
	}()
	cs, err := g.client(g.recip, srv).ConnectContractResume(clientEnd, service.RoleRecipient, g.contract.ID, f.Chunks)
	if err != nil {
		t.Fatal(err)
	}
	f.PauseAfter = 0
	if err := cs.FetchResult(f); err != nil {
		t.Fatal(err)
	}
	// A pipe write returns to the client before the server side has logged
	// its size, so the trace is complete only once handleConn has returned.
	<-served
	mu.Lock()
	defer mu.Unlock()
	return append([]int(nil), writes...)
}

// TestDeliveryAccessPatternInvariance lifts the access-pattern discipline
// (Def. 1 §4.2) to result delivery: the stream's shape — chunk count and
// the byte size of every server write, handshake included — must be a
// function of public parameters only. Two runs of the same contract ID
// agree on the public sizes ((|A|, |B|, N) for alg3; (|A|, |B|, S) for
// alg5) and on nothing else: different tuple contents, data seeds, and
// coprocessor seeds. The full-delivery trace and a resumed re-fetch trace
// (offset 1, served back off the durable store) must both match exactly.
func TestDeliveryAccessPatternInvariance(t *testing.T) {
	type trace struct {
		full, resumed []int
		chunks        uint32
	}
	run := func(dataSeed, copSeed uint64) (map[string]trace, Snapshot) {
		t.Helper()
		srv, err := New(Config{Workers: 1, Memory: 16, Seed: copSeed})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()

		// alg3: |A|=40, N=2 -> 80 padded result rows (2 chunks).
		relA3, relB3 := relation.GenWithMatchBound(relation.NewRand(dataSeed), 40, 14, 2)
		g3 := newGroupRels(t, "inv-del-alg3", "alg3", relA3, relB3)
		// alg5: S=70 exact join rows (2 chunks).
		relA5, relB5 := genJoinSized(dataSeed+1, 8, 80, 70)
		g5 := newGroupRels(t, "inv-del-alg5", "alg5", relA5, relB5)

		out := make(map[string]trace)
		for _, g := range []*group{g3, g5} {
			j, err := srv.Register(g.contract)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.pipeProvider(t, srv, g.provA, g.relA); err != nil {
				t.Fatal(err)
			}
			if err := g.pipeProvider(t, srv, g.provB, g.relB); err != nil {
				t.Fatal(err)
			}
			f := &service.ResultFetch{}
			full := meteredFetch(t, srv, g, f)
			waitDone(t, j)
			// Re-fetch from the store at resume offset 1: the resumed
			// stream's framing must be as content-blind as the first.
			fr := &service.ResultFetch{Chunks: 1}
			resumed := meteredFetch(t, srv, g, fr)
			if f.Chunks < 2 {
				t.Fatalf("%s: %d chunks, geometry too small to exercise resume", g.contract.ID, f.Chunks)
			}
			out[g.contract.Algorithm] = trace{full: full, resumed: resumed, chunks: f.Chunks}
		}
		return out, untimed(srv.MetricsSnapshot())
	}

	run1, snap1 := run(4001, 7)
	run2, snap2 := run(5002, 8)
	if !reflect.DeepEqual(snap1, snap2) {
		t.Errorf("metrics snapshot depends on tuple contents:\n run1 %+v\n run2 %+v", snap1, snap2)
	}
	for _, alg := range []string{"alg3", "alg5"} {
		t1, t2 := run1[alg], run2[alg]
		if t1.chunks != t2.chunks {
			t.Errorf("%s: chunk counts diverge: %d vs %d", alg, t1.chunks, t2.chunks)
		}
		if !equalInts(t1.full, t2.full) {
			t.Errorf("%s: full-delivery write trace depends on tuple contents:\n run1 %v\n run2 %v", alg, t1.full, t2.full)
		}
		if !equalInts(t1.resumed, t2.resumed) {
			t.Errorf("%s: resumed-delivery write trace depends on tuple contents:\n run1 %v\n run2 %v", alg, t1.resumed, t2.resumed)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
