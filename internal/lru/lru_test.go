package lru

import (
	"sync"
	"testing"
)

// keys lists the cached keys, most recently used first.
func keys(c *Cache[string, int]) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[string, int]).key)
	}
	return out
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The count bound evicts the least recently used entry, and both Get and a
// repeated Add refresh recency.
func TestEvictionOrder(t *testing.T) {
	c := New[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		c.Add(k, i)
	}
	if _, ok := c.Get("a"); !ok { // a becomes most recent
		t.Fatal("a missing before any eviction")
	}
	if got := c.Add("b", 99); got != 1 { // first stored wins, b refreshed
		t.Fatalf("Add of a present key returned %d, want the resident 1", got)
	}
	c.Add("d", 3) // evicts c, the least recently used
	if got, want := keys(c), []string{"d", "b", "a"}; !sameKeys(got, want) {
		t.Fatalf("recency order %v, want %v", got, want)
	}
	if _, ok := c.Get("c"); ok {
		t.Fatal("c survived the count bound")
	}
	st := c.Stats()
	if st.Size != 3 || st.Capacity != 3 || st.Evictions != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// The weight bound evicts from the tail until the summed weight fits; an
// entry heavier than the whole bound does not stay.
func TestWeightBound(t *testing.T) {
	c := NewWeighted[string](10, 100, func(v int) int64 { return int64(v) })
	c.Add("a", 40)
	c.Add("b", 40)
	c.Add("c", 40) // 120 > 100: a goes
	if got, want := keys(c), []string{"c", "b"}; !sameKeys(got, want) {
		t.Fatalf("after weight eviction %v, want %v", got, want)
	}
	if st := c.Stats(); st.Weight != 80 || st.MaxWeight != 100 || st.Evictions != 1 {
		t.Fatalf("stats %+v", st)
	}
	c.Add("huge", 500) // evicts everything, itself included
	if st := c.Stats(); st.Size != 0 || st.Weight != 0 {
		t.Fatalf("an over-weight entry left %+v", st)
	}
}

func TestRemoveIf(t *testing.T) {
	c := NewWeighted[string](10, 1000, func(v int) int64 { return int64(v) })
	for i, k := range []string{"x1", "y1", "x2", "y2"} {
		c.Add(k, 10*(i+1))
	}
	c.RemoveIf(func(k string, _ int) bool { return k[0] == 'x' })
	if got, want := keys(c), []string{"y2", "y1"}; !sameKeys(got, want) {
		t.Fatalf("after RemoveIf %v, want %v", got, want)
	}
	if st := c.Stats(); st.Weight != 60 || st.Evictions != 2 {
		t.Fatalf("stats after RemoveIf %+v", st)
	}
}

// Concurrent Get/Add over a key set larger than the cache, run under -race:
// the bound holds, every Add returns a value stored under its key, and the
// counters add up.
func TestConcurrentGetAdd(t *testing.T) {
	const goroutines, rounds, nkeys = 8, 500, 20
	c := New[int, int](8)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g + i) % nkeys
				v, ok := c.Get(k)
				if !ok {
					v = c.Add(k, k*10)
				}
				if v != k*10 {
					t.Errorf("key %d holds %d", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Size > 8 {
		t.Fatalf("cache exceeded its capacity: %+v", st)
	}
	if st.Hits+st.Misses != goroutines*rounds {
		t.Fatalf("%d hits + %d misses, want %d lookups", st.Hits, st.Misses, goroutines*rounds)
	}
	if st.Evictions == 0 {
		t.Fatalf("a churning key set should evict: %+v", st)
	}
}
