// Package lru is the one bounded least-recently-used cache behind the plan
// cache (query text → compiled Query) and the server's result cache (request
// → rendered response). A cache is bounded by entry count and,
// optionally, by the summed weight of its values.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a bounded LRU map. All methods are safe for concurrent use; the
// callback of RemoveIf runs under the cache lock and must not call back into
// the cache.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	capacity  int
	maxWeight int64         // 0: no weight bound
	weigh     func(V) int64 // nil: every entry weighs 0
	order     *list.List    // front = most recently used; values are *entry[K, V]
	entries   map[K]*list.Element
	weight    int64

	hits, misses, evictions uint64
}

type entry[K comparable, V any] struct {
	key    K
	val    V
	weight int64
}

// New returns a cache holding at most capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return NewWeighted[K, V](capacity, 0, nil)
}

// NewWeighted returns a cache holding at most capacity entries whose weights
// (weigh of each value, taken once at insertion) sum to at most maxWeight.
func NewWeighted[K comparable, V any](capacity int, maxWeight int64, weigh func(V) int64) *Cache[K, V] {
	return &Cache[K, V]{
		capacity:  capacity,
		maxWeight: maxWeight,
		weigh:     weigh,
		order:     list.New(),
		entries:   make(map[K]*list.Element, min(capacity, 64)),
	}
}

// Get returns the value cached under key and marks it most recently used.
// Every call counts as one hit or one miss.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add stores val under key unless the key is already present, and returns
// the resident value: the callers' miss path computes outside the lock, so
// two concurrent misses may both arrive here, and the first one stored wins
// for everybody. The resident entry becomes most recently used, then entries
// are evicted from the least recently used end until both bounds hold.
func (c *Cache[K, V]) Add(key K, val V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val
	}
	e := &entry[K, V]{key: key, val: val}
	if c.weigh != nil {
		e.weight = c.weigh(val)
	}
	c.entries[key] = c.order.PushFront(e)
	c.weight += e.weight
	for c.order.Len() > c.capacity || (c.maxWeight > 0 && c.weight > c.maxWeight) {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		c.remove(oldest)
	}
	return val
}

// remove unlinks one entry and counts it as evicted. Caller holds the lock.
func (c *Cache[K, V]) remove(el *list.Element) {
	e := c.order.Remove(el).(*entry[K, V])
	delete(c.entries, e.key)
	c.weight -= e.weight
	c.evictions++
}

// RemoveIf evicts every entry for which pred returns true.
func (c *Cache[K, V]) RemoveIf(pred func(K, V) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*entry[K, V]); pred(e.key, e.val) {
			c.remove(el)
		}
		el = next
	}
}

// Stats is a snapshot of a cache's occupancy and activity.
type Stats struct {
	Size      int    // entries currently cached
	Capacity  int    // maximum entries
	Weight    int64  // summed weight of the cached entries (0 when unweighted)
	MaxWeight int64  // weight bound (0: none)
	Hits      uint64 // Get calls served from the cache
	Misses    uint64 // Get calls that found nothing
	Evictions uint64 // entries dropped by a bound or by RemoveIf
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Size:      c.order.Len(),
		Capacity:  c.capacity,
		Weight:    c.weight,
		MaxWeight: c.maxWeight,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
