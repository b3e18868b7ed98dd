package xqtp

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// smallXMarkSources returns n XMark-like members of the given size.
func smallXMarkSources(prefix string, n, people int) []CorpusSource {
	srcs := make([]CorpusSource, n)
	for i := range srcs {
		srcs[i] = CorpusSource{
			URI:  fmt.Sprintf("mem://%s-%04d.xml", prefix, i),
			Data: []byte(NewXMarkDocument(int64(i+1), people).XML()),
		}
	}
	return srcs
}

// benchFLWOR is serve_corpus's FLWOR class: it lowers to two tree patterns,
// one of them evaluated once per person tuple.
const benchFLWOR = `for $p in $input/site/people/person where $p/emailaddress return ($p/name, $p/profile/interest)`

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A long-lived query keeps nothing of the corpora it ran against: prepared
// joins live on the members, so Close plus dropping the corpus frees the
// trees.
func TestClosedCorpusIsCollectable(t *testing.T) {
	q := MustPrepare(`$input//person[emailaddress]/name`)
	srcs := func() []CorpusSource { return smallXMarkSources("cycle", 20, 2) }
	const rounds = 50
	var freed atomic.Int32
	for r := 0; r < rounds; r++ {
		c, err := LoadCorpus(srcs(), 2)
		if err != nil {
			t.Fatal(err)
		}
		// The first member's index stands for its tree: a tree with built
		// nodes is cyclic (every node points back at it), and a
		// finalizer on a cycle never runs. A prepared join holds the index.
		runtime.SetFinalizer(c.c.Doc(0).Index, func(any) { freed.Add(1) })
		if _, _, err := c.RunWith(context.Background(), q, Auto, RunOptions{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		if st := c.PrepStats(); st.Size == 0 {
			t.Fatalf("round %d: the run left no prepared join on the members: %+v", r, st)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The first collection queues the finalizers, the finalizer goroutine
	// runs them.
	for i := 0; i < 100 && freed.Load() < rounds-1; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got < rounds-1 {
		t.Fatalf("%d of %d closed corpora were collected; the query (or something it holds) pins the rest", got, rounds)
	}
	if st := q.PrepStats(); st != (PrepCacheStats{}) {
		t.Fatalf("Query.PrepStats = %+v, want the zero value", st)
	}
}

// Extend shares members, and the prepared joins with them: the old members
// of a grown corpus only hit.
func TestPreparedJoinsSurviveExtend(t *testing.T) {
	q := MustPrepare(`$input//person[emailaddress]/name`)
	c, err := LoadCorpus(smallXMarkSources("base", 6, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	before, err := c.Run(q, Auto)
	if err != nil {
		t.Fatal(err)
	}
	base := c.PrepStats()
	if base.Misses != 6 || base.Size != 6 {
		t.Fatalf("first run: %+v, want one miss and one entry per member", base)
	}
	grown, err := c.Extend(smallXMarkSources("more", 2, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	after, err := grown.Run(q, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) <= len(before) {
		t.Fatalf("grown corpus answered %d items, the base %d", len(after), len(before))
	}
	// The base corpus's view covers exactly the shared members.
	if got := c.PrepStats(); got.Misses != base.Misses || got.Hits != base.Hits+6 || got.Evictions != 0 {
		t.Fatalf("old members after the grown run: %+v, want %d more hits and nothing else on %+v", got, 6, base)
	}
	if got := grown.PrepStats(); got.Misses != base.Misses+2 || got.Size != 8 {
		t.Fatalf("grown corpus: %+v, want two new members' misses on top of %+v", got, base)
	}
}

// The benchmark's FLWOR (one join per pattern per member) over a large
// corpus: the bound is per member, so nothing is evicted and a warm corpus
// prepares nothing.
func TestFLWORDoesNotThrash(t *testing.T) {
	const members = 1600
	c, err := LoadCorpus(smallXMarkSources("flwor", members, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	q := MustPrepare(benchFLWOR)
	first, err := c.RunParallel(q, Auto, 2)
	if err != nil {
		t.Fatal(err)
	}
	warm := c.PrepStats()
	// Up to two joins per member (a member without a matching person never
	// reaches the per-tuple pattern).
	if warm.Misses <= members || warm.Misses > 2*members || warm.Size != int(warm.Misses) || warm.Evictions != 0 {
		t.Fatalf("cold run: %+v, want %d < misses <= %d, all of them resident", warm, members, 2*members)
	}
	second, err := c.RunParallel(q, Auto, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("runs answered %d and %d items", len(first), len(second))
	}
	got := c.PrepStats()
	if got.Misses != warm.Misses || got.Evictions != 0 || got.Hits <= warm.Hits {
		t.Fatalf("warm run: %+v after %+v: it prepared again", got, warm)
	}
}

// More distinct patterns than a member's table holds: the oldest go, the
// table stays at its bound, and an evicted pattern is prepared again and
// answers as before.
func TestMemberTableBound(t *testing.T) {
	doc, err := LoadXMLString(`<r>` + strings.Repeat(`<a><b>x</b></a>`, 3) + `</r>`)
	if err != nil {
		t.Fatal(err)
	}
	const patterns = 40
	qs := make([]*Query, patterns)
	for i := range qs {
		// Distinct compiled queries: every one brings its own pattern.
		qs[i] = MustPrepare(`$d//a/b`)
	}
	runAll := func() {
		t.Helper()
		for i, q := range qs {
			seq, err := q.Run(doc, Auto)
			if err != nil || len(seq) != 3 {
				t.Fatalf("query %d: %d items, %v", i, len(seq), err)
			}
		}
	}
	runAll()
	st := doc.c.PrepStats()
	if st.Capacity == 0 || st.Capacity >= patterns {
		t.Fatalf("per-member bound %d does not sit below the %d patterns of this test", st.Capacity, patterns)
	}
	if st.Size != st.Capacity || st.Misses != patterns || int(st.Evictions) != patterns-st.Capacity {
		t.Fatalf("after %d patterns: %+v", patterns, st)
	}
	runAll() // oldest-out under a cyclic scan: every lookup prepares again
	if got := doc.c.PrepStats(); got.Size != st.Capacity || got.Misses != 2*patterns {
		t.Fatalf("second pass: %+v", got)
	}
}

// Nodes of another document bound into a run are indexed and prepared for
// that run alone: neither the target's catalog nor its member tables keep
// the other document alive.
func TestForeignTreeIsNotRetained(t *testing.T) {
	target, err := LoadXMLString(`<a><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	q := MustPrepare(`for $p in $x//person return $p/name`)
	const perRound = 100
	round := func(r int) {
		for i := 0; i < perRound; i++ {
			other := NewXMarkDocument(int64(r*perRound+i+1), 20)
			seq, _, err := q.RunWith(context.Background(), target, Auto, RunOptions{Vars: map[string]Sequence{"x": {other.Root()}}})
			if err != nil || len(seq) != 20 {
				t.Fatalf("round %d doc %d: %d items, %v", r, i, len(seq), err)
			}
		}
	}
	var heap [3]uint64
	for r := range heap {
		round(r)
		heap[r] = heapAfterGC()
		if n := target.c.Catalog().Len(); n != 1 {
			t.Fatalf("round %d: the target's catalog holds %d trees, want its 1 member", r, n)
		}
	}
	if st := target.c.PrepStats(); st.Size != 0 {
		t.Fatalf("the target's member holds %d joins prepared against other documents", st.Size)
	}
	// One retained 20-person document is ~270 KB: 100 of them would show as
	// ~27 MB per round.
	if grew := int64(heap[2]) - int64(heap[0]); grew > 4<<20 {
		t.Fatalf("heap after rounds: %d, %d, %d bytes: bound documents are being retained", heap[0], heap[1], heap[2])
	}
}

// A transient tree is indexed once per run, not once per tuple: the
// per-person pattern of the FLWOR finds the run's index again.
func TestForeignTreeIsIndexedOncePerRun(t *testing.T) {
	target, err := LoadXMLString(`<a><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	other := NewXMarkDocument(7, 200)
	q := MustPrepare(`for $p in $x//person return $p/name`)
	vars := map[string]Sequence{"x": {other.Root()}}
	run := func() {
		if seq, _, err := q.RunWith(context.Background(), target, Auto, RunOptions{Vars: vars}); err != nil || len(seq) != 200 {
			t.Fatalf("%d items, %v", len(seq), err)
		}
	}
	run()
	// An index build allocates per distinct symbol and per stream; 200
	// per-tuple rebuilds would be tens of thousands of allocations.
	perRun := testing.AllocsPerRun(5, run)
	own := testing.AllocsPerRun(5, func() {
		if seq, _, err := q.RunWith(context.Background(), other, Auto, RunOptions{Vars: vars}); err != nil || len(seq) != 200 {
			t.Fatalf("%d items, %v", len(seq), err)
		}
	})
	if perRun > own+500 {
		t.Fatalf("%.0f allocations per run over a bound foreign tree, %.0f over the same tree as the run's own member", perRun, own)
	}
}
