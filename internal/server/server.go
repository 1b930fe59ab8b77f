// Package server is the serving layer over the paper's contract protocol: a
// long-running, multi-tenant join server. One attested device arbitrates
// many registered contracts; a single listener accepts sessions for any of
// them (the hello's ContractID routes each connection); and a bounded
// worker pool of simulated coprocessors executes ready jobs from a
// per-tenant round-robin scheduler with explicit backpressure. This is
// the shape TEE-backed encrypted
// databases take in production — a continuously available service
// dispatching oblivious joins across limited secure-worker capacity —
// rather than the thesis's one contract executed once (§3.2, §3.3.3).
package server

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ppj/internal/clock"
	"ppj/internal/secop"
	"ppj/internal/server/resultstore"
	"ppj/internal/server/wal"
	"ppj/internal/service"
)

// ErrQueueFull is the typed backpressure error: the ready-job queue is at
// capacity, so the job is rejected rather than buffered without bound.
var ErrQueueFull = errors.New("server: job queue full")

// ErrShuttingDown reports a job or registration refused because the server
// is draining.
var ErrShuttingDown = errors.New("server: shutting down")

// Config parameterises a Server.
type Config struct {
	// Workers is the coprocessor pool size P (concurrently running jobs).
	// Defaults to 2.
	Workers int
	// QueueDepth bounds the ready-job queue; a job that becomes ready
	// while the bound is hit fails with ErrQueueFull. The bound applies per
	// tenant (one tenant flooding refuses only its own jobs). Defaults
	// to 16.
	QueueDepth int
	// Clock overrides the server's time source (tests use clock.NewFake to
	// drive recurring contracts deterministically). Nil uses the system
	// clock. It governs recurrence due-times, the quota limiter, and the
	// result store's TTL clock.
	Clock clock.Clock
	// TickEvery, when positive, starts a background loop that fires due
	// recurring contracts every interval. Zero leaves firing to explicit
	// Tick calls (tests advance a fake clock and call Tick themselves).
	TickEvery time.Duration
	// Shards asks for a multi-host fleet. A Server is always exactly one
	// simulated host; the field is interpreted by internal/fleet.New, which
	// builds Shards of them behind one consistent-hashing router (each with
	// its own device pool, sealer, and WAL under DataDir/shard-<i>).
	// Server.New itself ignores values <= 1 and refuses larger ones so a
	// sharding request cannot be silently served by a single host.
	Shards int
	// Memory is the per-job coprocessor free memory M in tuples (0 =
	// effectively unbounded).
	Memory int
	// DevicesPerJob attaches that many coprocessors (sharing one sealer)
	// to each job's host; algorithms with a parallel schedule then run it —
	// the §4.4.4/§5.3.5 intra-job parallelism. The executed algorithm's
	// device rule (core.Algorithm.Devices) decides how many of them it can
	// exploit. Zero or 1 keeps jobs sequential.
	DevicesPerJob int
	// Seed pins every job's coprocessor randomness (tests only). Zero —
	// the production setting — draws fresh crypto/rand entropy per job.
	Seed uint64
	// JobTimeout, when positive, bounds each job's lifetime from
	// registration; expiry fails the job with context.DeadlineExceeded.
	JobTimeout time.Duration
	// MaxUploadBytes bounds the sealed payload bytes of one provider upload.
	// An oversize upload — or a stream that lies upward past its declared
	// row count — is refused with
	// service.ErrUploadTooLarge before the excess is opened, while the job
	// is still Uploading. Zero means unbounded.
	MaxUploadBytes int64
	// UploadWindow is the credit window W granted to uploaders: a
	// provider may have at most W unacknowledged chunks in flight, so the
	// server's ingest memory per connection is bounded by W x chunk bytes.
	// Zero selects service.DefaultUploadWindow.
	UploadWindow int
	// UploadDeadline, when positive, bounds one provider upload's wall
	// clock from its first frame. A stream that stalls past it
	// fails the job with service.ErrUploadTruncated (the provider has
	// committed to a row count it is no longer delivering). Zero leaves
	// only the job deadline.
	UploadDeadline time.Duration
	// MaxResultBytes caps the durable result store's accounted bytes
	// (segments plus in-memory results). When a new result would overflow
	// the cap, least-recently-fetched results are evicted first; a single
	// result larger than the whole cap is refused outright and its job
	// tombstoned as cap-evicted. Zero means unbounded.
	MaxResultBytes int64
	// ResultTTL expires stored results that have sat unfetched for this
	// long; late recipients are answered with the typed ttl eviction.
	// Zero disables expiry.
	ResultTTL time.Duration
	// MaxCacheBytes caps the durable sorted-relation cache's accounted
	// bytes. Cache entries are reuse hints, not results: eviction under the
	// cap merely makes the next re-execution sort cold. Zero means
	// unbounded.
	MaxCacheBytes int64
	// TenantMaxInFlight caps one tenant's unsettled jobs across Register
	// and Resubmit; the cap is checked before any WAL append or metric
	// mutation and refused with ErrQuotaExceeded. Zero means unlimited.
	TenantMaxInFlight int
	// TenantRate is the per-tenant token-bucket submission rate in
	// submissions per second (TenantBurst is the bucket capacity, floored
	// at 1). Zero disables rate limiting.
	TenantRate  float64
	TenantBurst float64
	// Quotas overrides the quota enforcer built from the Tenant* fields.
	// The fleet router injects one shared instance into every shard so
	// tenant caps hold fleet-wide regardless of which shard a contract
	// lands on.
	Quotas *Quotas
	// Logf, when set, receives the server's background errors: journal,
	// result-store, sort-cache and recurrence failures.
	Logf func(format string, args ...any)
	// DataDir, when set, enables the write-ahead journal: contract
	// registrations and job state transitions are fsynced to DataDir before
	// they are acknowledged, and New replays the log to rebuild the
	// registry and job table after a crash. Empty keeps jobs in memory.
	DataDir string
	// Faults injects named fault hooks into the journal (tests only):
	// short writes, fsync failures, torn records, and crash points between
	// state transitions. Nil — the production setting — is inert.
	Faults *wal.Faults
}

// Server owns the device, the contract registry, the worker pool, and the
// metrics.
type Server struct {
	cfg       Config
	device    *secop.Device
	registry  *Registry
	metrics   *Metrics
	journal   *journal
	results   *resultstore.Store
	sortcache *resultstore.Store
	cache     *sortedCache
	quotas    *Quotas
	sched     *fairScheduler
	clk       clock.Clock

	// recurMu guards the recurrence table. fireRecurrence holds it across
	// the due-check and the WAL append of the advanced due-time, so two
	// concurrent Ticks can never journal (and fire) the same due instant
	// twice. It is never held while regMu is taken — Resubmit runs outside
	// it.
	recurMu  sync.Mutex
	recur    map[string]*recurrence
	tickStop chan struct{}

	// regMu serialises admissions: the duplicate check, the WAL append,
	// and publication in the registry form one critical section, so a job
	// is never visible to connections before its registration is durable
	// and two racing Registers can never both append a record for one ID.
	regMu sync.Mutex

	mu           sync.Mutex
	started      bool
	shuttingDown bool

	wg sync.WaitGroup // workers
}

// New boots a device, loads the service's software stack onto it, and
// prepares (but does not start) the worker pool. With Config.DataDir set,
// it replays the write-ahead log first: registered contracts reappear in
// the registry, Pending jobs resume live, jobs that were Uploading or
// Running when the old process died are failed with ErrInterrupted, and
// terminal jobs become tombstones that answer reconnecting recipients.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Shards > 1 {
		return nil, fmt.Errorf("server: Config.Shards = %d: a Server is one shard; build a fleet with internal/fleet.New", cfg.Shards)
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System()
	}
	dev, err := service.BootDevice()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		device:   dev,
		registry: newRegistry(),
		metrics:  newMetrics(),
		journal:  &journal{},
		sched:    newFairScheduler(cfg.QueueDepth),
		clk:      clk,
		recur:    make(map[string]*recurrence),
		tickStop: make(chan struct{}),
	}
	// Both stores open after the journal exists (their manifests ride it)
	// and before recovery runs (recovery reconciles the replayed manifests
	// against the segments the stores' scans found on disk).
	var recs []wal.Record
	resultDir, cacheDir := "", ""
	if cfg.DataDir != "" {
		if s.journal, recs, err = openJournal(cfg.DataDir, cfg.Faults); err != nil {
			return nil, err
		}
		resultDir = filepath.Join(cfg.DataDir, "results")
		cacheDir = filepath.Join(cfg.DataDir, "sortcache")
	}
	s.results, err = resultstore.Open(resultstore.Config{
		Dir:      resultDir,
		MaxBytes: cfg.MaxResultBytes,
		TTL:      cfg.ResultTTL,
		Journal:  manifest{s, wal.TypeResultStored, SiteResultStored, wal.TypeResultEvicted, SiteResultEvicted, false},
		Now:      clk.Now,
	})
	if err == nil {
		// The sorted-relation cache is a second result store instance under
		// its own subdirectory: same segment format, same manifest through
		// the journal, but holding obliviously pre-sorted upload halves keyed
		// by cache key instead of sealed results keyed by job.
		s.sortcache, err = resultstore.Open(resultstore.Config{
			Dir:      cacheDir,
			MaxBytes: cfg.MaxCacheBytes,
			Journal:  manifest{s, wal.TypeCacheStored, SiteCacheStored, wal.TypeCacheEvicted, SiteCacheEvicted, true},
		})
	}
	if err != nil {
		s.journal.Close()
		return nil, err
	}
	s.cache = &sortedCache{srv: s}
	s.quotas = cfg.Quotas
	if s.quotas == nil {
		s.quotas = NewQuotas(QuotaConfig{
			MaxInFlight: cfg.TenantMaxInFlight,
			Rate:        cfg.TenantRate,
			Burst:       cfg.TenantBurst,
		}, clk.Now)
	}
	if err := s.recover(recs); err != nil {
		s.journal.Close()
		return nil, err
	}
	return s, nil
}

// newService builds one execution's service stack — the single place the
// server's per-job service configuration (devices, upload bounds, the
// sorted-relation cache) is applied, shared by Register, Resubmit, and
// crash recovery so every execution of a contract runs the same stack.
func (s *Server) newService(c *service.Contract) (*service.Service, error) {
	svc, err := service.NewServiceWithDevice(s.device, c, s.cfg.Memory, s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	svc.Devices = s.cfg.DevicesPerJob
	svc.MaxUploadBytes = s.cfg.MaxUploadBytes
	svc.UploadWindow = s.cfg.UploadWindow
	svc.SortCache = s.cache
	return svc, nil
}

// Device returns the server's attested device; clients pin its key.
func (s *Server) Device() *secop.Device { return s.device }

// Registry exposes the contract registry.
func (s *Server) Registry() *Registry { return s.registry }

// MetricsSnapshot is the admin method: a JSON-serialisable view of the
// server's counters and gauges, including the result store's live bytes
// and eviction counters.
func (s *Server) MetricsSnapshot() Snapshot {
	snap := s.metrics.Snapshot()
	snap.ResultStoreBytes = s.results.Bytes()
	snap.ResultStoreEvictions = s.results.Evictions()
	snap.ResultStoreRecoveryEvictions = s.results.RecoveryEvictions()
	snap.SortCacheBytes = s.sortcache.Bytes()
	snap.SortCacheEvictions = s.sortcache.Evictions() + s.sortcache.RecoveryEvictions()
	snap.SortCacheHits = s.metrics.sortCacheHits.Load()
	snap.SortCacheMisses = s.metrics.sortCacheMisses.Load()
	snap.RecurrencesFired = s.metrics.recurFired.Load()
	snap.RecurrencesSkipped = s.metrics.recurSkipped.Load()
	return snap
}

// Start launches the worker pool. fleet.Router.Start calls it for every
// shard; tests that drive HandleSession directly may delay it to control
// scheduling.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.cfg.TickEvery > 0 {
		s.wg.Add(1)
		go s.tickLoop(s.cfg.TickEvery)
	}
}

// admissible refuses new work while the server drains, and while the
// ready queue is full — registration-time backpressure, checked before any
// durable side effect, so a full shard's refusal lets the fleet router
// spill the contract to the least-loaded shard instead of failing the job
// when it becomes ready. The check is deliberately side-effect free (no
// metric, no WAL record), so a refused admission leaves no gauge drift
// behind when the router re-registers the contract on another shard.
func (s *Server) admissible() error {
	s.mu.Lock()
	down := s.shuttingDown
	s.mu.Unlock()
	if down {
		return ErrShuttingDown
	}
	if s.sched.Full() {
		return fmt.Errorf("%w (depth %d): admission refused", ErrQueueFull, s.sched.Cap())
	}
	return nil
}

// admit makes a constructed job live, in one order: quota → journal →
// publish → count → watch. Callers hold regMu, which makes the duplicate
// check, the append and the publication one critical section: a job is
// never visible to connections before its admission is durable (a
// concurrent HandleSession could otherwise start a handshake against an
// admission that is then unwound), and two racing admissions can never
// both append a record for one ID. The quota gate precedes the append — a
// refusal leaves no record and no metric drift — and every later refusal
// returns the slot and token it took.
//
// rec is the admission's record. A job replayed from the log has none: its
// admission is already durable and already paid for, so a live one only
// re-occupies its tenant's in-flight slot (settled ones returned theirs
// before the crash).
func (s *Server) admit(j *Job, site string, rec *wal.Record) error {
	refuse := func(err error) error {
		if j.quotaHeld {
			s.quotas.Release(j.tenant)
		}
		j.cancel()
		return err
	}
	if rec == nil {
		if !j.state.Settled() {
			s.quotas.restore(j.tenant)
			j.quotaHeld = true
		}
	} else {
		if s.registry.has(j.id) {
			return refuse(fmt.Errorf("server: contract %q already registered", j.id))
		}
		if err := s.quotas.Acquire(j.tenant); err != nil {
			return refuse(err)
		}
		j.quotaHeld = true
		if err := s.journal.append(site, *rec, true); err != nil {
			return refuse(fmt.Errorf("server: journaling %s of %q: %w", site, j.id, err))
		}
	}
	if err := s.registry.add(j); err != nil {
		return refuse(err)
	}
	s.metrics.jobAdmitted(j.state)
	if !j.state.Settled() {
		go j.watch()
	}
	return nil
}

// Register verifies and admits a contract, creating its job in state
// Pending. The job's deadline starts now when Config.JobTimeout is set.
func (s *Server) Register(c *service.Contract) (*Job, error) {
	if err := s.admissible(); err != nil {
		return nil, err
	}
	if err := c.CheckRoles(); err != nil {
		return nil, err
	}
	// '#' separates a contract ID from a re-execution sequence number in
	// job IDs ("c#2", "c#3"); a contract named with one could collide with
	// another contract's execution history, so it is refused at admission.
	if strings.Contains(c.ID, "#") {
		return nil, fmt.Errorf("server: contract ID %q: '#' is reserved for re-execution job IDs", c.ID)
	}
	raw := service.MarshalContract(c)
	j, err := s.newJob(c, c.ID, 1, StatePending)
	if err != nil {
		return nil, err
	}
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if err := s.admit(j, SiteRegister, &wal.Record{Type: wal.TypeRegistered, Contract: raw}); err != nil {
		return nil, err
	}
	return j, nil
}

// Resubmit re-executes a registered contract as a fresh job. The contract
// — parties, predicate, algorithm, signatures — is exactly the one
// Register verified; only the execution is new: a fresh job ID
// ("<contract>#<seq>"), a fresh service stack awaiting fresh uploads, a
// fresh deadline. Tenancy quotas gate it exactly like Register, and the
// resubmission is journaled (TypeResubmitted) before the job is published,
// so a restarted server rebuilds the full execution history. Providers and
// recipients address the new run with Hello.JobID — or implicitly, since
// an empty JobID routes to the contract's latest execution.
func (s *Server) Resubmit(contractID string) (*Job, error) {
	if err := s.admissible(); err != nil {
		return nil, err
	}
	c, err := s.registry.Contract(contractID)
	if err != nil {
		return nil, err
	}
	// The sequence number is read under regMu, so two racing Resubmits
	// cannot mint the same job ID.
	s.regMu.Lock()
	defer s.regMu.Unlock()
	seq := len(s.registry.Executions(contractID)) + 1
	j, err := s.newJob(c, fmt.Sprintf("%s#%d", contractID, seq), seq, StatePending)
	if err != nil {
		return nil, err
	}
	if err := s.admit(j, SiteResubmit, &wal.Record{Type: wal.TypeResubmitted, ContractID: contractID, JobID: j.id}); err != nil {
		return nil, err
	}
	return j, nil
}

// HandleSession serves one party's session end to end once its hello has
// been read: the fleet router reads the hello (service.ReadHello), picks the
// shard that owns hello.ContractID, and hands the open session to that
// shard here. It completes the attested handshake, then either ingests the
// provider's upload or parks the recipient session until the job delivers
// (the call blocks until then, keeping the connection alive).
func (s *Server) HandleSession(sess *service.Session, hello service.Hello) error {
	j, err := s.registry.Lookup(hello.ContractID, hello.JobID)
	if err != nil {
		return err
	}
	party, err := j.svc.Handshake(sess, hello)
	if err != nil {
		return fmt.Errorf("server: contract %s: %w", j.Contract().ID, err)
	}
	j.noteSession()
	switch party.Role {
	case service.RoleProvider:
		// The upload runs under the job context, tightened by the upload
		// deadline when one is configured: a provider that stalls mid-stream
		// cannot hold the slot (and the server's ingest window) open
		// forever.
		ctx := j.ctx
		if s.cfg.UploadDeadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.UploadDeadline)
			defer cancel()
		}
		if err := j.svc.ReceiveUploadCtx(ctx, party.Name, sess); err != nil {
			err = fmt.Errorf("server: upload from %s: %w", party.Name, err)
			// A stream the deadline killed mid-flight is unrecoverable by
			// waiting: the provider committed to rows it stopped delivering.
			// Fail the job now so recipients learn the truncation verdict
			// instead of idling until the job deadline. Other upload errors
			// release only the party slot — the provider may reconnect.
			if errors.Is(err, service.ErrUploadTruncated) && ctx.Err() != nil {
				j.fail(err)
			}
			return err
		}
		j.providerUploaded()
		return nil
	case service.RoleRecipient:
		// The recipient connection blocks until the job settles, then
		// streams the stored result (from the hello's resume offset on v2
		// sessions). A job already Stored answers immediately — including
		// re-fetches after a restart, served straight from the store.
		return s.serveRecipient(j, party.Name, sess, hello.ResumeChunks)
	}
	return fmt.Errorf("server: party %s has unknown role %q", party.Name, party.Role)
}

// enqueue hands a ready job to the scheduler, failing it with the
// scheduler's typed refusal — ErrQueueFull at the tenant's queue-depth
// bound or ErrShuttingDown during drain.
func (s *Server) enqueue(j *Job) {
	s.mu.Lock()
	if s.shuttingDown {
		s.mu.Unlock()
		j.fail(ErrShuttingDown)
		return
	}
	err := s.sched.Enqueue(j)
	if err == nil {
		s.metrics.queueAdd(1)
	}
	s.mu.Unlock()
	if err != nil {
		j.fail(err)
	}
}

// worker executes ready jobs until the scheduler closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.sched.Next()
		if !ok {
			return
		}
		s.metrics.queueAdd(-1)
		s.runJob(j)
	}
}

// runJob is one worker's handling of one job: honour cancellation and
// deadlines, execute the contract, deliver. The run clock brackets
// RunContract alone, so the per-algorithm latency is T's time and not the
// journal's.
func (s *Server) runJob(j *Job) {
	if err := j.ctx.Err(); err != nil {
		j.fail(err)
		return
	}
	if !j.startRun() {
		return // failed (canceled, deadline, shutdown) before pickup
	}
	start := time.Now()
	out := j.svc.RunContract()
	ran := time.Since(start)
	if err := j.ctx.Err(); err != nil && out.Err == nil {
		out.Err = err
	}
	j.finish(out, ran)
}

// Shutdown drains the server gracefully: no new registrations or enqueues
// are admitted, queued jobs fail with ErrShuttingDown, jobs still gathering
// sessions fail likewise, and in-flight jobs run to completion. It returns
// once the workers exit or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	var queued []*Job
	s.mu.Lock()
	if !s.shuttingDown {
		s.shuttingDown = true
		queued = s.sched.Close()
		for range queued {
			s.metrics.queueAdd(-1)
		}
		close(s.tickStop)
	}
	s.mu.Unlock()
	for _, j := range queued {
		j.fail(ErrShuttingDown)
	}
	for _, j := range s.registry.Jobs() {
		// Running jobs are spared: the workers drain them.
		j.transition(move{to: StateFailed, err: ErrShuttingDown, among: setOf(StatePending, StateUploading)})
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return s.journal.Close()
	case <-ctx.Done():
		// The WAL descriptor (and its data-dir lock) must not leak when the
		// drain deadline expires: close it now. A worker still finishing a
		// job appends to a closed log, which fails and is counted like any
		// other lost transition — the recovery path owns that gap.
		if cerr := s.journal.Close(); cerr != nil {
			s.logf("server: closing journal after drain timeout: %v", cerr)
		}
		return ctx.Err()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Load is a point-in-time load observation of one server, read from the
// scheduler and the metrics gauges. The fleet router's spillover policy
// orders shards by it.
type Load struct {
	// QueueDepth is the number of ready jobs waiting for a worker.
	QueueDepth int
	// QueueCap is the configured queue bound; QueueDepth == QueueCap means
	// the shard is refusing admissions.
	QueueCap int
	// Active counts registered jobs that have not reached a terminal state
	// (Pending + Uploading + Running).
	Active int
}

// Less orders loads for least-loaded selection: fewer queued jobs first,
// then fewer active jobs.
func (l Load) Less(o Load) bool {
	if l.QueueDepth != o.QueueDepth {
		return l.QueueDepth < o.QueueDepth
	}
	return l.Active < o.Active
}

// Load reports the server's current load.
func (s *Server) Load() Load {
	active := int64(0)
	for _, st := range []State{StatePending, StateUploading, StateRunning} {
		active += s.metrics.gauges[st].Load()
	}
	return Load{QueueDepth: s.sched.Depth(), QueueCap: s.sched.Cap(), Active: int(active)}
}
