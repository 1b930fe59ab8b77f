package main

import (
	"flag"
	"fmt"
	"time"
)

// options is the parsed and validated command line.
type options struct {
	addr           string
	rows           int
	workers        int
	queue          int
	timeout        time.Duration
	dataDir        string
	devices        int
	shards         int
	wal            bool
	maxUploadBytes int64
	uploadWindow   int
	uploadDeadline time.Duration
	chunkRows      int
	maxResultBytes int64
	resultTTL      time.Duration
	maxCacheBytes  int64
	tenantInFlight int
	tenantRate     float64
	tenantBurst    float64
	tick           time.Duration
}

// parseFlags binds the flag set, parses args, and validates the result.
// Split from main so the validation rules are unit-testable without
// exec'ing the binary.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.addr, "addr", "127.0.0.1:0", "listen address")
	fs.IntVar(&o.rows, "rows", 20, "rows per provider")
	fs.IntVar(&o.workers, "workers", 2, "coprocessor worker pool size P per shard")
	fs.IntVar(&o.queue, "queue", 8, "ready-job queue depth per shard")
	fs.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-job deadline")
	fs.StringVar(&o.dataDir, "data-dir", "", "write-ahead job store root; empty keeps jobs in memory")
	fs.IntVar(&o.devices, "devices-per-job", 1, "coprocessors attached per job; >1 enables intra-job parallel joins")
	fs.IntVar(&o.shards, "shards", 1, "simulated hosts in the fleet; contracts are routed by consistent hashing")
	fs.BoolVar(&o.wal, "wal", false, "require the durable write-ahead job store (needs -data-dir)")
	fs.Int64Var(&o.maxUploadBytes, "max-upload-bytes", 0, "sealed-byte budget per provider upload; 0 is unbounded")
	fs.IntVar(&o.uploadWindow, "upload-window", 0, "chunk credit window W per upload stream; 0 selects the default")
	fs.DurationVar(&o.uploadDeadline, "upload-deadline", 0, "per-upload wall-clock bound; a stalled stream fails the job (0 leaves only -timeout)")
	fs.IntVar(&o.chunkRows, "chunk-rows", 0, "rows per upload chunk sent by the demo clients; 0 selects the default")
	fs.Int64Var(&o.maxResultBytes, "max-result-bytes", 0, "byte cap of the durable result store per shard; LRU-evicts over it (0 is unbounded)")
	fs.DurationVar(&o.resultTTL, "result-ttl", 0, "stored results unfetched for this long are evicted; 0 keeps them forever")
	fs.Int64Var(&o.maxCacheBytes, "max-cache-bytes", 0, "byte cap of the sorted-relation cache per shard (0 is unbounded)")
	fs.IntVar(&o.tenantInFlight, "tenant-max-inflight", 0, "per-tenant cap on unsettled jobs, fleet-wide (0 is unlimited)")
	fs.Float64Var(&o.tenantRate, "tenant-rate", 0, "per-tenant submission rate in jobs/second (0 disables rate limiting)")
	fs.Float64Var(&o.tenantBurst, "tenant-burst", 0, "token-bucket capacity for -tenant-rate (floored at 1)")
	fs.DurationVar(&o.tick, "tick", 0, "recurring-contract tick interval per shard; 0 disables the tick loop (schedules only fire via explicit ticks)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// validate rejects configurations the serving layer would otherwise accept
// silently or fail on late: a fleet needs at least one shard, every job at
// least one device, asking for durability without saying where the WAL
// lives is a misconfiguration rather than an in-memory fallback, and the
// demo's row count and the ingest limits must not be negative (zero rows
// asks for empty relations, zero limits for "default"/"unbounded"; below
// that there is no meaning to ask for).
func (o *options) validate() error {
	if o.rows < 0 {
		return fmt.Errorf("-rows must not be negative, got %d", o.rows)
	}
	if o.shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", o.shards)
	}
	if o.devices < 1 {
		return fmt.Errorf("-devices-per-job must be at least 1, got %d", o.devices)
	}
	if o.wal && o.dataDir == "" {
		return fmt.Errorf("-wal requires -data-dir: a durable job store needs a directory to live in")
	}
	if o.maxUploadBytes < 0 {
		return fmt.Errorf("-max-upload-bytes must not be negative, got %d", o.maxUploadBytes)
	}
	if o.uploadWindow < 0 {
		return fmt.Errorf("-upload-window must not be negative, got %d", o.uploadWindow)
	}
	if o.uploadDeadline < 0 {
		return fmt.Errorf("-upload-deadline must not be negative, got %v", o.uploadDeadline)
	}
	if o.chunkRows < 0 {
		return fmt.Errorf("-chunk-rows must not be negative, got %d", o.chunkRows)
	}
	if o.maxResultBytes < 0 {
		return fmt.Errorf("-max-result-bytes must not be negative, got %d", o.maxResultBytes)
	}
	if o.resultTTL < 0 {
		return fmt.Errorf("-result-ttl must not be negative, got %v", o.resultTTL)
	}
	if o.maxCacheBytes < 0 {
		return fmt.Errorf("-max-cache-bytes must not be negative, got %d", o.maxCacheBytes)
	}
	if o.tenantInFlight < 0 {
		return fmt.Errorf("-tenant-max-inflight must not be negative, got %d", o.tenantInFlight)
	}
	if o.tenantRate < 0 {
		return fmt.Errorf("-tenant-rate must not be negative, got %v", o.tenantRate)
	}
	if o.tenantBurst < 0 {
		return fmt.Errorf("-tenant-burst must not be negative, got %v", o.tenantBurst)
	}
	if o.tenantBurst > 0 && o.tenantRate == 0 {
		return fmt.Errorf("-tenant-burst needs -tenant-rate: a bucket with no refill admits nothing after the burst")
	}
	if o.tick < 0 {
		return fmt.Errorf("-tick must not be negative, got %v", o.tick)
	}
	return nil
}
