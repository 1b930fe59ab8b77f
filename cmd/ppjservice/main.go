// Command ppjservice demonstrates the serving layer over real TCP
// connections on localhost: a fleet of simulated hosts (each a full join
// server with its own attested device and bounded worker pool of simulated
// coprocessors) behind one shard router, and N concurrent client groups —
// each a pair of data owners plus a result recipient — all driving one
// listener. Contracts are placed on shards by consistent hashing on the
// contract ID; sessions are routed to the shard that admitted their
// contract, and the fleet-wide admin metrics snapshot (per-shard plus
// aggregate) is printed at the end.
//
// Usage:
//
//	ppjservice [-addr 127.0.0.1:0] [-rows 20] [-shards 1] [-workers 2]
//	           [-queue 8] [-timeout 30s] [-data-dir DIR] [-wal]
//
// The process plays every party (each over its own TCP connection) so the
// demo is self-contained; the client and server code paths are exactly the
// library's, and would run unchanged across machines.
//
// With -data-dir each shard keeps a write-ahead job store under
// DIR/shard-<i>/: rerunning the demo against the same directory first
// replays every shard's log, printing the recovered job table (a crash
// mid-run leaves Uploading or Running jobs, which recovery fails
// deterministically with server.ErrInterrupted — per shard, so one torn
// log never touches another shard's jobs). Contract IDs gain a per-run
// nonce in this mode because recovered registrations are durable and
// contract IDs are single-use. -wal asserts the store is actually
// requested: it is rejected without -data-dir instead of silently running
// in memory.
package main

import (
	"context"
	"crypto/ed25519"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"ppj/internal/fleet"
	"ppj/internal/relation"
	"ppj/internal/server"
	"ppj/internal/service"
)

// contractSpec describes one tenant of the demo fleet.
type contractSpec struct {
	id        string
	algorithm string
	parties   [3]string // two providers, one recipient
	aggregate service.AggregateSpec
}

func main() {
	o, err := parseFlags(flag.NewFlagSet("ppjservice", flag.ExitOnError), os.Args[1:])
	check(err)

	specs := []contractSpec{
		{id: "watchlist-equijoin", algorithm: "alg3", parties: [3]string{"airline", "agency", "analyst"}},
		{id: "epidemiology-exact", algorithm: "alg5", parties: [3]string{"hospital-a", "hospital-b", "registry"}},
		{id: "genomics-auto", algorithm: "auto", parties: [3]string{"genebank", "lab", "study"}},
		{id: "census-count", algorithm: "aggregate", parties: [3]string{"bureau", "irs", "economist"},
			aggregate: service.AggregateSpec{Kind: "count"}},
	}

	rt, err := fleet.New(fleet.Config{Config: server.Config{
		Shards:            o.shards,
		Workers:           o.workers,
		QueueDepth:        o.queue,
		Memory:            64,
		DevicesPerJob:     o.devices,
		JobTimeout:        o.timeout,
		MaxUploadBytes:    o.maxUploadBytes,
		UploadWindow:      o.uploadWindow,
		UploadDeadline:    o.uploadDeadline,
		MaxResultBytes:    o.maxResultBytes,
		ResultTTL:         o.resultTTL,
		MaxCacheBytes:     o.maxCacheBytes,
		TenantMaxInFlight: o.tenantInFlight,
		TenantRate:        o.tenantRate,
		TenantBurst:       o.tenantBurst,
		TickEvery:         o.tick,
		Logf:              log.Printf,
		DataDir:           o.dataDir,
	}})
	check(err)
	fmt.Printf("join fleet up: %d shard(s), worker pool P=%d and queue depth %d each\n",
		rt.NumShards(), o.workers, o.queue)
	for i := 0; i < rt.NumShards(); i++ {
		fmt.Printf("  shard %d device key %x...\n", i, rt.Shard(i).Device().DeviceKey()[:8])
	}
	if o.dataDir != "" {
		for i := 0; i < rt.NumShards(); i++ {
			jobs := rt.Shard(i).Registry().Jobs()
			if len(jobs) == 0 {
				continue
			}
			fmt.Printf("shard %d recovered %d jobs from its WAL:\n", i, len(jobs))
			for _, j := range jobs {
				if err := j.Err(); err != nil {
					fmt.Printf("  %-36s %-10s %v\n", j.Contract().ID, j.State(), err)
				} else {
					fmt.Printf("  %-36s %s\n", j.Contract().ID, j.State())
				}
			}
		}
		// Contract IDs are single-use and recovered registrations persist,
		// so each durable run gets fresh IDs.
		nonce := time.Now().UnixNano()
		for i := range specs {
			specs[i].id = fmt.Sprintf("%s@%d", specs[i].id, nonce)
		}
	}
	fmt.Println("software stack attested as:")
	for _, img := range service.Images() {
		d := img.Digest()
		fmt.Printf("  %-9s %-16s %x...\n", img.Layer, img.Name, d[:8])
	}

	// Each tenant group: identities, a co-signed contract, input relations,
	// and — once registered — the device key of the shard that admitted it
	// (clients attest the device they will actually talk to).
	type tenant struct {
		spec       contractSpec
		contract   *service.Contract
		keys       [3]keypair
		relA, relB *relation.Relation
		job        *server.Job
		shard      int
		deviceKey  ed25519.PublicKey
	}
	tenants := make([]*tenant, len(specs))
	for i, spec := range specs {
		tn := &tenant{spec: spec}
		for k := range tn.keys {
			pub, priv, err := service.NewIdentity()
			check(err)
			tn.keys[k] = keypair{pub: pub, priv: priv}
		}
		tn.contract = &service.Contract{
			ID: spec.id,
			Parties: []service.Party{
				{Name: spec.parties[0], Identity: tn.keys[0].pub, Role: service.RoleProvider},
				{Name: spec.parties[1], Identity: tn.keys[1].pub, Role: service.RoleProvider},
				{Name: spec.parties[2], Identity: tn.keys[2].pub, Role: service.RoleRecipient},
			},
			Predicate: service.PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"},
			Algorithm: spec.algorithm,
			Epsilon:   1e-10,
			Aggregate: spec.aggregate,
			// One tenant per contract: each has its own ready queue, so a
			// job that becomes ready while another waits is held, not
			// refused, even at -queue 1.
			Tenant: spec.id,
		}
		tn.contract.Sign(0, tn.keys[0].priv)
		tn.contract.Sign(1, tn.keys[1].priv)
		tn.relA = relation.GenKeyed(relation.NewRand(uint64(2*i+1)), o.rows, 10)
		tn.relB = relation.GenKeyed(relation.NewRand(uint64(2*i+2)), o.rows+5, 10)
		tn.job, err = rt.Register(tn.contract)
		check(err)
		var sh *server.Server
		tn.shard, sh, err = rt.ShardFor(tn.contract.ID)
		check(err)
		tn.deviceKey = sh.Device().DeviceKey()
		tenants[i] = tn
	}
	fmt.Printf("\nregistered %d contracts across %d shard(s) on one listener\n", len(tenants), rt.NumShards())

	ln, err := net.Listen("tcp", o.addr)
	check(err)
	serveDone := make(chan error, 1)
	go func() { serveDone <- rt.Serve(ln) }()
	fmt.Printf("listening on %s\n\n", ln.Addr())

	// Drive every client group concurrently against the one listener.
	var wg sync.WaitGroup
	var outMu sync.Mutex
	var wrong []string // contracts whose recipient got a wrong answer
	for _, tn := range tenants {
		wg.Add(1)
		go func(tn *tenant) {
			defer wg.Done()
			client := func(k int, name string) *service.Client {
				return &service.Client{
					Name:      name,
					Identity:  tn.keys[k].priv,
					DeviceKey: tn.deviceKey,
					Expected:  service.ExpectedStack(),
				}
			}
			dial := func() net.Conn {
				c, err := net.Dial("tcp", ln.Addr().String())
				check(err)
				return c
			}
			var inner sync.WaitGroup
			inner.Add(2)
			for k, rel := range map[int]*relation.Relation{0: tn.relA, 1: tn.relB} {
				go func(k int, rel *relation.Relation) {
					defer inner.Done()
					conn := dial()
					defer conn.Close()
					cs, err := client(k, tn.spec.parties[k]).ConnectContract(conn, service.RoleProvider, tn.contract.ID)
					check(err)
					check(cs.SubmitRelationOpts(tn.contract.ID, rel,
						service.UploadOptions{ChunkRows: o.chunkRows}))
				}(k, rel)
			}
			conn := dial()
			defer conn.Close()
			cs, err := client(2, tn.spec.parties[2]).ConnectContract(conn, service.RoleRecipient, tn.contract.ID)
			check(err)

			eq, _ := relation.NewEqui(tn.relA.Schema, "key", tn.relB.Schema, "key")
			want := relation.ReferenceJoin(tn.relA, tn.relB, eq)
			var got string
			var ok bool
			if tn.spec.algorithm == "aggregate" {
				agg, err := cs.ReceiveAggregate()
				check(err)
				got, ok = fmt.Sprintf("COUNT = %d", agg.Count), agg.Count == int64(want.Len())
			} else {
				result, err := cs.ReceiveResult()
				check(err)
				got, ok = fmt.Sprintf("%d join rows", result.Len()), relation.SameMultiset(result, want)
			}
			outMu.Lock()
			fmt.Printf("%-22s %-9s shard %d -> %s received %s (reference %d)\n",
				tn.spec.id, tn.spec.algorithm, tn.shard, tn.spec.parties[2], got, want.Len())
			if !ok {
				wrong = append(wrong, tn.spec.id)
			}
			outMu.Unlock()
			inner.Wait()
		}(tn)
	}
	wg.Wait()
	if len(wrong) > 0 {
		log.Fatalf("results differ from the reference join: %v", wrong)
	}
	for _, tn := range tenants {
		<-tn.job.Done()
		if tn.job.State() != server.StateDelivered {
			log.Fatalf("job %s ended %s: %v", tn.contract.ID, tn.job.State(), tn.job.Err())
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	check(rt.Shutdown(ctx))
	ln.Close()
	check(<-serveDone)

	snap := rt.MetricsSnapshot()
	js, err := snap.JSON()
	check(err)
	fmt.Printf("\nfleet metrics snapshot after drain:\n%s\n", js)
}

type keypair struct {
	pub  []byte
	priv []byte
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
