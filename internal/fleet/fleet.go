package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ppj/internal/server"
	"ppj/internal/server/wal"
	"ppj/internal/service"
)

// Config parameterises a Router. The embedded server.Config is the
// per-shard template: Config.Shards picks the fleet width, DataDir names
// the fleet root (shard i keeps its WAL under DataDir/shard-<i>/), and
// every other field applies to each shard verbatim.
type Config struct {
	server.Config
	// ShardFaults, when set, gives shard i its own fault registry (tests
	// only): the partial-fleet crash suite seals one shard's WAL while the
	// others run clean. Nil shards fall back to Config.Faults.
	ShardFaults func(shard int) *wal.Faults
}

// Router is the multi-host fleet: N shards behind one dispatch surface.
// Contracts are placed by consistent hashing on their ID; sessions are
// routed to the shard that admitted their contract (which, after a
// spillover, may differ from the ring owner — the directory, not the ring,
// is the routing authority).
type Router struct {
	cfg    Config
	shards []*server.Server

	// mu guards the routing state: the directory, the ring (rebuilt when a
	// shard's liveness changes), and the liveness flags themselves.
	mu   sync.RWMutex
	ring *Ring
	dir  map[string]int // contract ID -> admitting shard
	live []bool         // live[i]: shard i accepts new placements

	spills       atomic.Uint64
	shuttingDown atomic.Bool
}

// New builds the fleet: cfg.Shards servers (at least 1), each booted with
// its own device and — when DataDir is set — recovered independently from
// its own WAL directory, so one shard's torn log fails only that shard's
// interrupted jobs while the rest of the fleet comes back clean. Recovered
// contracts are re-entered into the routing directory on whichever shard
// recovered them.
func New(cfg Config) (*Router, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	r := &Router{cfg: cfg, ring: NewRing(n), dir: make(map[string]int), live: make([]bool, n)}
	for i := range r.live {
		r.live[i] = true
	}
	// One quota enforcer is shared by every shard, so a tenant's in-flight
	// cap and submission rate hold fleet-wide no matter which shards its
	// contracts land on (spillover included).
	quotas := cfg.Quotas
	if quotas == nil {
		var now func() time.Time // nil is the system clock's
		if cfg.Clock != nil {
			now = cfg.Clock.Now
		}
		quotas = server.NewQuotas(server.QuotaConfig{
			MaxInFlight: cfg.TenantMaxInFlight,
			Rate:        cfg.TenantRate,
			Burst:       cfg.TenantBurst,
		}, now)
	}
	for i := 0; i < n; i++ {
		scfg := cfg.Config
		scfg.Shards = 0 // each server is exactly one shard
		scfg.Quotas = quotas
		if cfg.DataDir != "" {
			scfg.DataDir = filepath.Join(cfg.DataDir, "shard-"+strconv.Itoa(i))
		}
		if cfg.ShardFaults != nil {
			if f := cfg.ShardFaults(i); f != nil {
				scfg.Faults = f
			}
		}
		sh, err := server.New(scfg)
		if err != nil {
			r.closeShards()
			return nil, fmt.Errorf("fleet: booting shard %d: %w", i, err)
		}
		r.shards = append(r.shards, sh)
		for _, id := range sh.Registry().ContractIDs() {
			if prev, dup := r.dir[id]; dup {
				r.closeShards()
				return nil, fmt.Errorf("fleet: contract %q recovered on shards %d and %d", id, prev, i)
			}
			r.dir[id] = i
		}
	}
	return r, nil
}

// closeShards releases every shard booted so far (WAL descriptors and dir
// locks included) after a failed New.
func (r *Router) closeShards() {
	for _, sh := range r.shards {
		_ = sh.Shutdown(context.Background())
	}
}

// NumShards returns the fleet width.
func (r *Router) NumShards() int { return len(r.shards) }

// Shard exposes shard i (admin, tests).
func (r *Router) Shard(i int) *server.Server { return r.shards[i] }

// Owner returns the ring owner of a contract ID — where a registration is
// placed before any spillover. The ring covers only live shards.
func (r *Router) Owner(id string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring.Owner(id)
}

// SetShardLive marks shard i live or drained for NEW placements and
// rebuilds the ring over the live set. Removal does not touch the shard
// itself: contracts it already admitted stay in the directory, their
// sessions keep routing to it, and its workers keep draining — only the
// ring forgets it, so new contract IDs remap (about 1/N of the keyspace,
// the consistent-hashing property the removal suite pins). Re-adding the
// shard restores the identical ring, because ring construction is
// deterministic in the live ID set. Draining the last live shard is
// refused: a fleet with an empty ring could place nothing.
func (r *Router) SetShardLive(i int, live bool) error {
	if i < 0 || i >= len(r.shards) {
		return fmt.Errorf("fleet: shard %d out of range [0, %d)", i, len(r.shards))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.live[i] == live {
		return nil
	}
	var ids []int
	for j, l := range r.live {
		if j == i {
			l = live
		}
		if l {
			ids = append(ids, j)
		}
	}
	if len(ids) == 0 {
		return fmt.Errorf("fleet: refusing to drain shard %d: it is the last live shard", i)
	}
	r.live[i] = live
	r.ring = newRingIDs(ids)
	return nil
}

// ShardLive reports whether shard i currently accepts new placements.
func (r *Router) ShardLive(i int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.live[i]
}

// ShardFor resolves a registered contract to its admitting shard.
func (r *Router) ShardFor(id string) (int, *server.Server, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i, ok := r.dir[id]
	if !ok {
		return 0, nil, fmt.Errorf("%w: %q", server.ErrUnknownContract, id)
	}
	return i, r.shards[i], nil
}

// Register admits a contract on the shard owning its ID. If that shard
// refuses with ErrQueueFull (registration-time backpressure), the contract
// spills to the least-loaded shard with queue headroom; only when every
// shard is full does the tenant see the backpressure error. The directory
// entry is reserved before the shard admission runs, so two racing
// registrations of one ID cannot land on different shards.
func (r *Router) Register(c *service.Contract) (*server.Job, error) {
	return r.admit(c, func(sh *server.Server) (*server.Job, error) {
		return sh.Register(c)
	})
}

// RegisterScheduled admits a recurring contract — placed, spilled, and
// routed exactly like Register — whose schedule lives on the admitting
// shard: that shard journals the due-times in its own WAL and fires the
// re-executions through its Resubmit path, keeping the contract's whole
// execution history in one crash domain.
func (r *Router) RegisterScheduled(c *service.Contract, every time.Duration) (*server.Job, error) {
	return r.admit(c, func(sh *server.Server) (*server.Job, error) {
		return sh.RegisterScheduled(c, every)
	})
}

// admit runs one contract admission with directory reservation and
// ErrQueueFull spillover; register performs the shard-level registration.
func (r *Router) admit(c *service.Contract, register func(*server.Server) (*server.Job, error)) (*server.Job, error) {
	if r.shuttingDown.Load() {
		return nil, server.ErrShuttingDown
	}
	// The primary is read under the same lock as the reservation, so a
	// concurrent SetShardLive cannot slip a ring rebuild between the route
	// decision and the directory entry.
	r.mu.Lock()
	if _, dup := r.dir[c.ID]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("fleet: contract %q already registered", c.ID)
	}
	primary := r.ring.Owner(c.ID)
	r.dir[c.ID] = primary // reservation: rolled back if no shard admits
	r.mu.Unlock()

	j, err := register(r.shards[primary])
	if err != nil && errors.Is(err, server.ErrQueueFull) {
		if spill, ok := r.leastLoaded(primary); ok {
			if js, errs := register(r.shards[spill]); errs == nil {
				r.mu.Lock()
				r.dir[c.ID] = spill
				r.mu.Unlock()
				r.spills.Add(1)
				return js, nil
			} else {
				err = fmt.Errorf("fleet: shard %d full, spill to shard %d failed: %w", primary, spill, errs)
			}
		}
	}
	if err != nil {
		r.mu.Lock()
		delete(r.dir, c.ID)
		r.mu.Unlock()
		return nil, err
	}
	return j, nil
}

// Tick fires due recurring contracts on every shard, returning the number
// of re-executions submitted fleet-wide. Shards whose Config.TickEvery is
// set tick themselves; this is the explicit seam for tests and for
// deployments that drive the fleet clock centrally.
func (r *Router) Tick() int {
	fired := 0
	for _, sh := range r.shards {
		fired += sh.Tick()
	}
	return fired
}

// Resubmit re-executes a registered contract on the shard that admitted it.
// There is no spillover: the contract's execution history, WAL, and cached
// sorted forms live on that shard, so a re-execution elsewhere would both
// split the history and forfeit the cache. Backpressure and tenant quotas
// surface as the shard's own typed refusals.
func (r *Router) Resubmit(contractID string) (*server.Job, error) {
	if r.shuttingDown.Load() {
		return nil, server.ErrShuttingDown
	}
	_, sh, err := r.ShardFor(contractID)
	if err != nil {
		return nil, err
	}
	return sh.Resubmit(contractID)
}

// leastLoaded picks the spill target: the live shard (other than skip)
// with queue headroom and the smallest load, ties broken by index so the
// choice is deterministic. ok is false when the whole fleet is saturated.
// Drained shards never receive spillover — they are finishing what they
// have.
func (r *Router) leastLoaded(skip int) (shard int, ok bool) {
	r.mu.RLock()
	live := append([]bool(nil), r.live...)
	r.mu.RUnlock()
	var best server.Load
	for i, sh := range r.shards {
		if i == skip || !live[i] {
			continue
		}
		l := sh.Load()
		if l.QueueDepth >= l.QueueCap {
			continue
		}
		if !ok || l.Less(best) {
			shard, best, ok = i, l, true
		}
	}
	return shard, ok
}

// HandleConn serves one connection end to end: it reads the hello, resolves
// the contract to its admitting shard through the directory, and hands the
// open session to that shard. An empty contract ID is accepted only when
// exactly one contract is registered fleet-wide, mirroring the registry's
// single-contract fallback.
func (r *Router) HandleConn(conn io.ReadWriter) error {
	sess, hello, err := service.ReadHello(conn)
	if err != nil {
		return err
	}
	id := hello.ContractID
	if id == "" && hello.JobID != "" {
		// A job-addressed hello with no contract still routes: job IDs are
		// "<contract>#<seq>" (or the contract ID itself), so the owning
		// contract is derivable.
		id = hello.JobID
		if i := strings.Index(id, "#"); i >= 0 {
			id = id[:i]
		}
	}
	sh, err := r.route(id)
	if err != nil {
		return err
	}
	return sh.HandleSession(sess, hello)
}

// route maps a hello's contract ID to the shard serving it.
func (r *Router) route(id string) (*server.Server, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if id == "" {
		switch len(r.dir) {
		case 1:
			for _, i := range r.dir {
				return r.shards[i], nil
			}
		case 0:
			return nil, fmt.Errorf("%w: hello names no contract and none are registered", server.ErrUnknownContract)
		}
		return nil, fmt.Errorf("%w; %d are registered across the fleet", server.ErrAmbiguousContract, len(r.dir))
	}
	i, ok := r.dir[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", server.ErrUnknownContract, id)
	}
	return r.shards[i], nil
}

// Start launches every shard's worker pool.
func (r *Router) Start() {
	for _, sh := range r.shards {
		sh.Start()
	}
}

// Serve accepts connections from ln until it closes, routing each in its
// own goroutine. Accept errors after Shutdown are reported as a clean exit.
func (r *Router) Serve(ln net.Listener) error {
	r.Start()
	var conns sync.WaitGroup
	defer conns.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if r.shuttingDown.Load() {
				return nil
			}
			return err
		}
		conns.Add(1)
		go func(conn net.Conn) {
			defer conns.Done()
			defer conn.Close()
			if err := r.HandleConn(conn); err != nil {
				r.logf("fleet: %v", err)
			}
		}(conn)
	}
}

// Shutdown drains every shard concurrently, with each shard's own graceful
// semantics (queued and gathering jobs fail with ErrShuttingDown, in-flight
// jobs run out, stores close). The first error per shard is joined.
func (r *Router) Shutdown(ctx context.Context) error {
	r.shuttingDown.Store(true)
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i, sh := range r.shards {
		wg.Add(1)
		go func(i int, sh *server.Server) {
			defer wg.Done()
			errs[i] = sh.Shutdown(ctx)
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}
