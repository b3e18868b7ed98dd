// Package exec holds the prepared-join cache a compiled query threads into
// every run: PrepCache memoizes join.Prepare per (pattern, document,
// algorithm) behind the physical.PrepSource interface.
package exec

import (
	"xqtp/internal/join"
	"xqtp/internal/lru"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// DefaultPrepCacheSize bounds a PrepCache built by NewPrepCache. One entry
// per (pattern, document, algorithm) is tiny — resolved stream slices and a
// validated pattern reference — but each entry pins its document's tree, so
// the bound is what lets a long-lived query serve an unbounded stream of
// transient documents (or a corpus larger than memory should hold twice)
// without accreting every tree it ever touched.
const DefaultPrepCacheSize = 4096

// PrepCache memoizes join.Prepare results per (pattern, document,
// algorithm): the compile-once piece of the serving path. A cache owned by a
// compiled query and threaded into every run makes repeated Run calls skip
// pattern validation and stream resolution entirely. Least-recently-used
// preparations are evicted once the cap is exceeded (re-preparing is cheap
// and idempotent, so eviction only costs time). All methods are safe for
// concurrent use.
type PrepCache struct {
	lru *lru.Cache[prepKey, *join.Prepared]
}

type prepKey struct {
	pat  *pattern.Pattern
	tree *xdm.Tree
	alg  join.Algorithm
}

// NewPrepCache returns an empty cache with the default bound.
func NewPrepCache() *PrepCache { return NewPrepCacheSize(DefaultPrepCacheSize) }

// NewPrepCacheSize returns an empty cache holding at most size preparations
// (size <= 0 falls back to DefaultPrepCacheSize).
func NewPrepCacheSize(size int) *PrepCache {
	if size <= 0 {
		size = DefaultPrepCacheSize
	}
	return &PrepCache{lru: lru.New[prepKey, *join.Prepared](size)}
}

// Prepared returns the cached prepared pattern, building and caching it on
// first use (it implements physical.PrepSource). The preparation itself runs
// outside the cache lock, so a large document's stream resolution never
// blocks hits; concurrent misses on the same key may prepare twice, and the
// first stored entry wins.
func (pc *PrepCache) Prepared(alg join.Algorithm, ix *xmlstore.Index, pat *pattern.Pattern) (*join.Prepared, error) {
	key := prepKey{pat: pat, tree: ix.Tree, alg: alg}
	if p, ok := pc.lru.Get(key); ok {
		return p, nil
	}
	p, err := join.Prepare(alg, ix, pat)
	if err != nil {
		return nil, err
	}
	return pc.lru.Add(key, p), nil
}

// PrepCacheStats is a snapshot of cache activity.
type PrepCacheStats struct {
	Size      int    // entries currently cached
	Capacity  int    // maximum entries
	Hits      uint64 // lookups served from cache
	Misses    uint64 // lookups that prepared
	Evictions uint64 // entries dropped by the LRU bound
}

// Stats returns a snapshot of the cache counters.
func (pc *PrepCache) Stats() PrepCacheStats {
	st := pc.lru.Stats()
	return PrepCacheStats{Size: st.Size, Capacity: st.Capacity, Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions}
}
