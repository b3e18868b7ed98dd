package collection_test

import (
	"fmt"
	"sync"
	"testing"

	"xqtp"
)

// Eight goroutines over the same members: fan-out runs (the member answers
// for its joins), fn:collection() runs (the corpus maps tree to member) and
// freshly compiled queries, whose first run inserts new patterns into every
// member's table — enough of them to push the oldest out while the others
// read. Run with -race.
func TestPreparedJoinsConcurrentMix(t *testing.T) {
	const members, people = 12, 3
	srcs := make([]xqtp.CorpusSource, members)
	for i := range srcs {
		srcs[i] = xqtp.CorpusSource{
			URI:  fmt.Sprintf("mem://mix-%02d.xml", i),
			Data: []byte(xqtp.NewXMarkDocument(int64(i+1), people).XML()),
		}
	}
	c, err := xqtp.LoadCorpus(srcs, 4)
	if err != nil {
		t.Fatal(err)
	}
	const (
		fanout  = `for $p in $input/site/people/person return $p/name`
		collect = `fn:collection()//person/name`
	)
	shared := map[string]*xqtp.Query{fanout: xqtp.MustPrepare(fanout), collect: xqtp.MustPrepare(collect)}
	run := func(q *xqtp.Query, workers int) error {
		seq, err := c.RunParallel(q, xqtp.Auto, workers)
		if err == nil && len(seq) != members*people {
			err = fmt.Errorf("%d items, want %d", len(seq), members*people)
		}
		return err
	}
	const goroutines, iters = 8, 20
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters && errs[g] == nil; i++ {
				switch g % 4 {
				case 0:
					errs[g] = run(shared[fanout], 2)
				case 1:
					errs[g] = run(shared[collect], 2)
				case 2: // two patterns per compile, 40 per goroutine
					errs[g] = run(xqtp.MustPrepare(fanout), 1)
				case 3:
					errs[g] = run(xqtp.MustPrepare(collect), 2)
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
	st := c.PrepStats()
	if st.Size > st.Capacity || st.Evictions == 0 || st.Hits == 0 {
		t.Fatalf("after the mix: %+v, want a full table that evicted and hit", st)
	}
	if err := run(shared[fanout], 2); err != nil {
		t.Fatal(err)
	}
}
