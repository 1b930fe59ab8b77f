// Command ppjload is the sustained-load driver for the serving layer: it
// boots an in-process multi-shard fleet behind one TCP listener, then
// sustains -tenants tenant accounts submitting -contracts contracts (each
// a full two-provider/one-recipient join driven over real client
// connections) with -concurrency groups in flight at once, until the work
// list is drained or -max-duration elapses.
//
// It reports the numbers an operator sizes the fleet with: end-to-end
// latency percentiles (p50/p95/p99 from registration to result receipt),
// completed-join throughput, registration spills, and typed refusal
// counts (per-tenant queue backpressure and tenant quota), as a JSON
// object. With -out the report is merged into an existing benchmark
// artefact under the "SustainedLoad" key — scripts/bench.sh uses this to
// fold the load run into BENCH_<n>.json next to the go test benchmarks.
//
// Refused submissions are retried with a small backoff (the refusals stay
// counted), so a quota- or backpressure-limited run measures the
// steady-state the limits shape rather than dying on the first refusal.
package main

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ppj/internal/fleet"
	"ppj/internal/relation"
	"ppj/internal/server"
	"ppj/internal/service"
)

type options struct {
	shards         int
	tenants        int
	contracts      int
	rows           int
	workers        int
	queue          int
	concurrency    int
	maxDuration    time.Duration
	tenantInFlight int
	tenantRate     float64
	tenantBurst    float64
	out            string
}

func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.IntVar(&o.shards, "shards", 2, "fleet width")
	fs.IntVar(&o.tenants, "tenants", 8, "tenant accounts; contract i belongs to tenant i mod N")
	fs.IntVar(&o.contracts, "contracts", 1000, "total contracts to run across all tenants")
	fs.IntVar(&o.rows, "rows", 8, "rows per provider relation")
	fs.IntVar(&o.workers, "workers", 2, "worker pool size per shard")
	fs.IntVar(&o.queue, "queue", 32, "ready-queue bound per shard, per tenant")
	fs.IntVar(&o.concurrency, "concurrency", 16, "contract groups in flight at once")
	fs.DurationVar(&o.maxDuration, "max-duration", time.Minute, "stop submitting new contracts after this long; 0 is unbounded")
	fs.IntVar(&o.tenantInFlight, "tenant-max-inflight", 0, "per-tenant cap on unsettled jobs (0 is unlimited)")
	fs.Float64Var(&o.tenantRate, "tenant-rate", 0, "per-tenant submission rate in jobs/second (0 disables)")
	fs.Float64Var(&o.tenantBurst, "tenant-burst", 0, "token-bucket capacity for -tenant-rate")
	fs.StringVar(&o.out, "out", "", "JSON artefact to merge the report into under \"SustainedLoad\"; empty prints to stdout only")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.shards < 1 || o.tenants < 1 || o.contracts < 1 || o.rows < 1 || o.workers < 1 || o.queue < 1 || o.concurrency < 1 {
		return nil, fmt.Errorf("-shards, -tenants, -contracts, -rows, -workers, -queue and -concurrency must all be at least 1")
	}
	if o.maxDuration < 0 {
		return nil, fmt.Errorf("-max-duration must not be negative, got %v", o.maxDuration)
	}
	return o, nil
}

// report is the JSON the run emits; field names are stable — the bench
// trajectory table keys off them.
type report struct {
	Shards            int     `json:"shards"`
	Tenants           int     `json:"tenants"`
	Contracts         int     `json:"contracts"`
	Completed         int     `json:"completed"`
	Failed            int     `json:"failed"`
	DurationSeconds   float64 `json:"duration_seconds"`
	ThroughputPerSec  float64 `json:"throughput_per_sec"`
	P50Millis         float64 `json:"p50_ms"`
	P95Millis         float64 `json:"p95_ms"`
	P99Millis         float64 `json:"p99_ms"`
	Spills            uint64  `json:"spills"`
	QuotaRefusals     uint64  `json:"quota_refusals"`
	QueueFullRefusals uint64  `json:"queue_full_refusals"`
}

func main() {
	o, err := parseFlags(flag.NewFlagSet("ppjload", flag.ExitOnError), os.Args[1:])
	check(err)

	rt, err := fleet.New(fleet.Config{Config: server.Config{
		Shards:            o.shards,
		Workers:           o.workers,
		QueueDepth:        o.queue,
		Memory:            64,
		TenantMaxInFlight: o.tenantInFlight,
		TenantRate:        o.tenantRate,
		TenantBurst:       o.tenantBurst,
	}})
	check(err)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	serveDone := make(chan error, 1)
	go func() { serveDone <- rt.Serve(ln) }()
	fmt.Printf("ppjload: %d shard(s) on %s, %d tenants x %d contracts, concurrency %d\n",
		o.shards, ln.Addr(), o.tenants, o.contracts, o.concurrency)

	ctx := context.Background()
	if o.maxDuration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.maxDuration)
		defer cancel()
	}

	var (
		quotaRefusals, queueRefusals atomic.Uint64
		failed                       atomic.Uint64
		latMu                        sync.Mutex
		latencies                    []time.Duration
	)
	next := make(chan int)
	go func() {
		defer close(next)
		for i := 0; i < o.contracts; i++ {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < o.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				lat, err := runContract(ctx, rt, ln.Addr().String(), o, i, &quotaRefusals, &queueRefusals)
				if err != nil {
					failed.Add(1)
					log.Printf("contract %d: %v", i, err)
					continue
				}
				latMu.Lock()
				latencies = append(latencies, lat)
				latMu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	check(rt.Shutdown(shutCtx))
	ln.Close()
	check(<-serveDone)

	snap := rt.MetricsSnapshot()
	rep := report{
		Shards:            o.shards,
		Tenants:           o.tenants,
		Contracts:         o.contracts,
		Completed:         len(latencies),
		Failed:            int(failed.Load()),
		DurationSeconds:   elapsed.Seconds(),
		ThroughputPerSec:  float64(len(latencies)) / elapsed.Seconds(),
		Spills:            snap.Spills,
		QuotaRefusals:     quotaRefusals.Load(),
		QueueFullRefusals: queueRefusals.Load(),
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if n := len(latencies); n > 0 {
		rep.P50Millis = float64(latencies[n*50/100].Microseconds()) / 1000
		rep.P95Millis = float64(latencies[min(n*95/100, n-1)].Microseconds()) / 1000
		rep.P99Millis = float64(latencies[min(n*99/100, n-1)].Microseconds()) / 1000
	}
	if rep.Completed == 0 {
		log.Fatal("no contract completed inside -max-duration")
	}

	js, err := json.MarshalIndent(rep, "", "  ")
	check(err)
	fmt.Printf("sustained load report:\n%s\n", js)
	if o.out != "" {
		check(mergeReport(o.out, rep))
		fmt.Printf("merged into %s under \"SustainedLoad\"\n", o.out)
	}
}

// runContract runs one contract end to end: sign, register (retrying
// typed refusals with backoff, counting each), upload both relations and
// receive the result over TCP. Returns the registration-to-receipt
// latency.
func runContract(ctx context.Context, rt *fleet.Router, addr string, o *options, i int, quotaRefusals, queueRefusals *atomic.Uint64) (time.Duration, error) {
	type party struct {
		pub  ed25519.PublicKey
		priv ed25519.PrivateKey
	}
	var parties [3]party
	for k := range parties {
		pub, priv, err := service.NewIdentity()
		if err != nil {
			return 0, err
		}
		parties[k] = party{pub, priv}
	}
	tenant := fmt.Sprintf("tenant-%d", i%o.tenants)
	c := &service.Contract{
		ID:     fmt.Sprintf("load-%s-%d", tenant, i),
		Tenant: tenant,
		Parties: []service.Party{
			{Name: "provA", Identity: parties[0].pub, Role: service.RoleProvider},
			{Name: "provB", Identity: parties[1].pub, Role: service.RoleProvider},
			{Name: "recip", Identity: parties[2].pub, Role: service.RoleRecipient},
		},
		Predicate: service.PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"},
		Algorithm: "alg5",
		Epsilon:   1e-9,
	}
	c.Sign(0, parties[0].priv)
	c.Sign(1, parties[1].priv)
	relA := relation.GenKeyed(relation.NewRand(uint64(2*i+1)), o.rows, 5)
	relB := relation.GenKeyed(relation.NewRand(uint64(2*i+2)), o.rows, 5)

	begin := time.Now()
	var job *server.Job
	for backoff := time.Millisecond; ; backoff = min(2*backoff, 50*time.Millisecond) {
		j, err := rt.Register(c)
		if err == nil {
			job = j
			break
		}
		switch {
		case errors.Is(err, server.ErrQuotaExceeded):
			quotaRefusals.Add(1)
		case errors.Is(err, server.ErrQueueFull):
			queueRefusals.Add(1)
		default:
			return 0, fmt.Errorf("register: %w", err)
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("register: gave up after refusals: %w", ctx.Err())
		case <-time.After(backoff):
		}
	}
	_, sh, err := rt.ShardFor(c.ID)
	if err != nil {
		return 0, err
	}
	deviceKey := sh.Device().DeviceKey()
	client := func(k int, name string) *service.Client {
		return &service.Client{Name: name, Identity: parties[k].priv, DeviceKey: deviceKey, Expected: service.ExpectedStack()}
	}

	provide := func(k int, name string, rel *relation.Relation) error {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		cs, err := client(k, name).ConnectContract(conn, service.RoleProvider, c.ID)
		if err != nil {
			return err
		}
		return cs.SubmitRelation(c.ID, rel)
	}
	errc := make(chan error, 2)
	go func() { errc <- provide(0, "provA", relA) }()
	go func() { errc <- provide(1, "provB", relB) }()
	for k := 0; k < 2; k++ {
		if err := <-errc; err != nil {
			return 0, fmt.Errorf("upload: %w", err)
		}
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	cs, err := client(2, "recip").ConnectContract(conn, service.RoleRecipient, c.ID)
	if err != nil {
		return 0, err
	}
	res, err := cs.ReceiveResult()
	if err != nil {
		return 0, fmt.Errorf("receive: %w", err)
	}
	if res == nil {
		return 0, fmt.Errorf("empty result delivery")
	}
	<-job.Done()
	return time.Since(begin), nil
}

// mergeReport folds the report into path under the "SustainedLoad" key,
// preserving whatever benchmark entries the file already holds. The
// artefact keeps its one-line-per-entry shape (every value compact on the
// line naming it) — the bench trajectory table greps it that way.
func mergeReport(path string, rep report) error {
	doc := map[string]json.RawMessage{}
	var order []string
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("existing %s is not a JSON object: %w", path, err)
		}
		// Preserve the file's entry order; top-level keys are unique, so
		// decoding key tokens at depth 1 recovers it.
		dec := json.NewDecoder(bytes.NewReader(raw))
		depth := 0
		for {
			tok, err := dec.Token()
			if err != nil {
				break
			}
			switch v := tok.(type) {
			case json.Delim:
				if v == '{' || v == '[' {
					depth++
				} else {
					depth--
				}
			case string:
				if depth == 1 {
					if _, known := doc[v]; known {
						order = append(order, v)
						// Skip the value so its own strings don't count.
						var skip json.RawMessage
						if err := dec.Decode(&skip); err != nil {
							return fmt.Errorf("reparsing %s: %w", path, err)
						}
					}
				}
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if _, had := doc["SustainedLoad"]; !had {
		order = append(order, "SustainedLoad")
	}
	enc, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	doc["SustainedLoad"] = enc

	var out bytes.Buffer
	out.WriteString("{\n")
	for i, key := range order {
		var compact bytes.Buffer
		if err := json.Compact(&compact, doc[key]); err != nil {
			return err
		}
		fmt.Fprintf(&out, "  %q: %s", key, compact.Bytes())
		if i < len(order)-1 {
			out.WriteByte(',')
		}
		out.WriteByte('\n')
	}
	out.WriteString("}\n")
	return os.WriteFile(path, out.Bytes(), 0o644)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
