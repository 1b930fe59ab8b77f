package server

// sortedCache adapts the server's durable sort-cache store to the
// core.SortedCache interface Algorithm 7 consumes. A cache entry's rows are
// the obliviously sorted, sealed cells of one upload half; its key is the
// public tuple (contract, side, row count, upload digest) the service
// computes inside the seal boundary. Every failure mode — missing entry,
// evicted entry, torn segment — degrades to a miss: the join re-sorts cold
// and correctness never depends on the cache.
type sortedCache struct{ srv *Server }

// Lookup implements core.SortedCache.
func (c *sortedCache) Lookup(key string) ([][]byte, bool) {
	_, rows, err := c.srv.sortcache.Get(key)
	if err != nil {
		c.srv.metrics.sortCacheMiss()
		return nil, false
	}
	c.srv.metrics.sortCacheHit()
	return rows, true
}

// Store implements core.SortedCache. A duplicate key means a concurrent
// execution of the same contract over the same upload already stored the
// identical cells (the sort is deterministic), so the put is dropped; a
// tombstoned key (a past eviction) is cleared and retried once, since the
// caller is handing us a fresh, intact sorted form. Any other refusal —
// over-cap, journal failure — is logged and ignored: the entry is a reuse
// hint, not state the job depends on.
func (c *sortedCache) Store(key string, cells [][]byte) {
	err := c.srv.sortcache.Put(key, nil, cells)
	if err == nil {
		return
	}
	if c.srv.sortcache.Has(key) {
		return
	}
	c.srv.sortcache.Remove(key)
	if err := c.srv.sortcache.Put(key, nil, cells); err != nil {
		c.srv.logf("server: sort cache: storing %s: %v", key, err)
	}
}
