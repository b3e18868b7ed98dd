package server

import (
	"xqtp"
	"xqtp/internal/lru"
)

// cacheKey identifies one cacheable response: everything that determines the
// bytes a request streams. The corpus epoch is the invalidation hook — an
// Extend swap changes the epoch, so every entry computed against the old
// membership stops matching without any scan or flush. Workers are absent on
// purpose: the result is identical at any worker count (the corpus-order
// merge guarantees it), so requests differing only in parallelism share an
// entry.
type cacheKey struct {
	corpus string
	epoch  uint64
	query  string
	alg    string
	format string
	rows   int64 // effective row budget (0: unlimited)
	bytes  int64 // effective byte budget (0: unlimited)
}

// cacheEntry is one stored response: the rendered item lines (without the
// summary, which is re-rendered per hit so it can say cached=true) plus the
// summary fields of the original run.
type cacheEntry struct {
	key  cacheKey
	body []byte
	info xqtp.RunInfo
	// status is the original run's terminal status: "ok" or "limit-reached"
	// (nothing else is cached — a timeout's prefix depends on wall clock, not
	// on the request, so replaying it would be wrong).
	status string
}

// resultCache is a bounded LRU over rendered responses, limited both by
// entry count and by total stored bytes. Entries larger than the per-entry
// cap are never stored: one huge result must not evict the whole working set
// of small hot answers.
type resultCache struct {
	lru      *lru.Cache[cacheKey, *cacheEntry]
	perEntry int64
}

func newResultCache(maxN int, maxBytes int64) *resultCache {
	return &resultCache{
		lru: lru.NewWeighted[cacheKey](maxN, maxBytes, func(e *cacheEntry) int64 {
			return int64(len(e.body))
		}),
		perEntry: max(maxBytes/8, 1),
	}
}

// get returns the cached entry for key, marking it most recently used.
func (rc *resultCache) get(key cacheKey) (*cacheEntry, bool) {
	if rc == nil {
		return nil, false
	}
	return rc.lru.Get(key)
}

// put stores a completed response, evicting from the LRU tail until both
// bounds hold. Oversized bodies are dropped silently; of two concurrent
// misses on one key the first stored stays (same key, same bytes).
func (rc *resultCache) put(e *cacheEntry) {
	if rc == nil || int64(len(e.body)) > rc.perEntry {
		return
	}
	rc.lru.Add(e.key, e)
}

// invalidateCorpus drops every entry of the named corpus. The epoch key
// already makes stale entries unreachable after an Extend; this proactive
// sweep just returns their bytes to the budget immediately instead of
// waiting for LRU aging.
func (rc *resultCache) invalidateCorpus(name string) {
	if rc == nil {
		return
	}
	rc.lru.RemoveIf(func(k cacheKey, _ *cacheEntry) bool { return k.corpus == name })
}

// CacheStats is a snapshot of the result cache counters, exported on
// /metrics next to the plan- and prep-cache stats.
type CacheStats struct {
	Entries   int
	Bytes     int64
	Capacity  int
	MaxBytes  int64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

func (rc *resultCache) stats() CacheStats {
	if rc == nil {
		return CacheStats{}
	}
	st := rc.lru.Stats()
	return CacheStats{
		Entries: st.Size, Bytes: st.Weight, Capacity: st.Capacity, MaxBytes: st.MaxWeight,
		Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
	}
}
