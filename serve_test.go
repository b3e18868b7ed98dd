package xqtp

import (
	"fmt"
	"sync"
	"testing"
)

// Concurrent serving from cached plans must produce the sequential results:
// many goroutines share one document, one plan cache, and each query's
// prepared-pattern cache (run with -race to validate the synchronization).
func TestConcurrentServing(t *testing.T) {
	doc := NewXMarkDocument(3, 200)
	cache := NewPlanCache(16)
	sources := make([]string, 0, len(Figure6Queries)*2)
	for _, pair := range Figure6Queries {
		sources = append(sources, pair.Child, pair.Descendant)
	}
	want := make(map[string][]string)
	for _, src := range sources {
		q, err := cache.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		items, err := q.Run(doc, Auto)
		if err != nil {
			t.Fatal(err)
		}
		strs := make([]string, len(items))
		for i, it := range items {
			strs[i] = SerializeItem(it)
		}
		want[src] = strs
	}
	const goroutines = 8
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				src := sources[(g+r)%len(sources)]
				alg := Algorithms[(g+r)%len(Algorithms)]
				q, err := cache.Prepare(src)
				if err != nil {
					errs <- err
					return
				}
				items, err := q.Run(doc, alg)
				if err != nil {
					errs <- fmt.Errorf("%s/%v: %w", src, alg, err)
					return
				}
				exp := want[src]
				if len(items) != len(exp) {
					errs <- fmt.Errorf("%s/%v: got %d items, want %d", src, alg, len(items), len(exp))
					return
				}
				for i, it := range items {
					if SerializeItem(it) != exp[i] {
						errs <- fmt.Errorf("%s/%v: item %d differs", src, alg, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("plan cache saw no hits: %+v", st)
	}
}

func TestPlanCacheSharesQueries(t *testing.T) {
	cache := NewPlanCache(4)
	q1, err := cache.Prepare(`$d//person/name`)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := cache.Prepare(`$d//person/name`)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Fatalf("same query text compiled twice")
	}
	st := cache.Stats()
	if st.Size != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want size 1, 1 miss, 1 hit", st)
	}
}

func TestPlanCacheEvictsLRU(t *testing.T) {
	cache := NewPlanCache(2)
	mk := func(i int) string { return fmt.Sprintf(`$d//person/name[%d]`, i) }
	for i := 1; i <= 2; i++ {
		if _, err := cache.Prepare(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 1 so 2 is the LRU entry, then insert 3 to evict 2.
	if _, err := cache.Prepare(mk(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Prepare(mk(3)); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want size 2, 1 eviction", st)
	}
	// 1 survived (hit), 2 was evicted (miss).
	if _, err := cache.Prepare(mk(1)); err != nil {
		t.Fatal(err)
	}
	if hits := cache.Stats().Hits; hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	if _, err := cache.Prepare(mk(2)); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 4 {
		t.Fatalf("misses = %d, want 4 (entry 2 was evicted)", st.Misses)
	}
}
