package xqtp

import "xqtp/internal/lru"

// planCacheCap is a plan cache's capacity when NewPlanCache is given
// none; the per-member prepared-join bound (collection.memberPrepCap) is
// sized against a full cache of this many queries.
const planCacheCap = 256

// PlanCache is a bounded LRU cache of queries compiled by Prepare, keyed by
// query text. A serving process prepares each distinct query once and reuses
// the compiled plan — and, through the Query's own physical plan memoization,
// the slot-resolved physical lowering — on every subsequent request.
//
// All methods are safe for concurrent use. Cached *Query values are shared
// between callers; they are immutable after compilation and safe to Run
// from many goroutines.
type PlanCache struct {
	lru *lru.Cache[string, *Query]
}

// NewPlanCache builds a cache holding at most size compiled queries
// (size <= 0 falls back to a default of 256).
func NewPlanCache(size int) *PlanCache {
	if size <= 0 {
		size = planCacheCap
	}
	return &PlanCache{lru: lru.New[string, *Query](size)}
}

// Prepare returns the cached compilation of query (Prepare, under
// DefaultOptions), compiling and caching it on a miss. The compile itself
// runs outside the cache lock, so a slow compilation never blocks cache hits;
// concurrent misses on the same text may compile twice, and the first stored
// entry wins, so every caller shares one Query.
func (c *PlanCache) Prepare(query string) (*Query, error) {
	if q, ok := c.lru.Get(query); ok {
		return q, nil
	}
	q, err := Prepare(query)
	if err != nil {
		return nil, err
	}
	return c.lru.Add(query, q), nil
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
