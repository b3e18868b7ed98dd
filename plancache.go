package xqtp

import "xqtp/internal/lru"

// DefaultPlanCacheSize is the capacity of the package-level plan cache used
// by PrepareCached.
const DefaultPlanCacheSize = 256

// PlanCache is a bounded LRU cache of compiled queries keyed by (query
// text, compile options). A serving process prepares each distinct query
// once and reuses the compiled plan — and, through the Query's own physical
// plan memoization and prepared-pattern cache, the slot-resolved physical
// lowering and the resolved joins — on every subsequent request.
//
// All methods are safe for concurrent use. Cached *Query values are shared
// between callers; they are immutable after compilation and safe to Run
// from many goroutines.
type PlanCache struct {
	lru *lru.Cache[planKey, *Query]
}

type planKey struct {
	query string
	opts  CompileOptions
}

// NewPlanCache builds a cache holding at most size compiled queries
// (size <= 0 falls back to DefaultPlanCacheSize).
func NewPlanCache(size int) *PlanCache {
	if size <= 0 {
		size = DefaultPlanCacheSize
	}
	return &PlanCache{lru: lru.New[planKey, *Query](size)}
}

// Prepare returns the cached compilation of query under DefaultOptions,
// compiling and caching it on a miss.
func (c *PlanCache) Prepare(query string) (*Query, error) {
	return c.PrepareWithOptions(query, DefaultOptions)
}

// PrepareWithOptions returns the cached compilation of query under opts,
// compiling and caching it on a miss. The compile itself runs outside the
// cache lock, so a slow compilation never blocks cache hits; concurrent
// misses on the same key may compile twice, and the first stored entry
// wins, so every caller shares one Query (and one prepared-pattern cache).
func (c *PlanCache) PrepareWithOptions(query string, opts CompileOptions) (*Query, error) {
	key := planKey{query: query, opts: opts}
	if q, ok := c.lru.Get(key); ok {
		return q, nil
	}
	q, err := PrepareWithOptions(query, opts)
	if err != nil {
		return nil, err
	}
	return c.lru.Add(key, q), nil
}

// PlanCacheStats is a snapshot of cache activity.
type PlanCacheStats struct {
	Size      int    // entries currently cached
	Capacity  int    // maximum entries
	Hits      uint64 // lookups served from cache
	Misses    uint64 // lookups that compiled
	Evictions uint64 // entries dropped by the LRU bound
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() PlanCacheStats {
	st := c.lru.Stats()
	return PlanCacheStats{Size: st.Size, Capacity: st.Capacity, Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions}
}

// Reset empties the cache and zeroes its counters.
func (c *PlanCache) Reset() { c.lru.Reset() }

// defaultPlanCache backs PrepareCached / PrepareCachedWithOptions.
var defaultPlanCache = NewPlanCache(DefaultPlanCacheSize)

// PrepareCached is Prepare backed by a process-wide bounded LRU plan cache:
// the serving-path entry point for repeated queries.
func PrepareCached(query string) (*Query, error) {
	return defaultPlanCache.Prepare(query)
}

// PrepareCachedWithOptions is PrepareWithOptions backed by the process-wide
// plan cache.
func PrepareCachedWithOptions(query string, opts CompileOptions) (*Query, error) {
	return defaultPlanCache.PrepareWithOptions(query, opts)
}
