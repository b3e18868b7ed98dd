package xqtp

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
)

// discardSink counts delivered items without keeping them.
type discardSink struct{ n int }

func (s *discardSink) Push(Item) error { s.n++; return nil }

// xmarkCorpus loads one XMark member through the ingest path.
func xmarkCorpus(t testing.TB, seed int64, people int) *Corpus {
	t.Helper()
	c, err := LoadCorpus([]CorpusSource{{URI: "mem://xmark.xml", Data: []byte(NewXMarkDocument(seed, people).XML())}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// runCost measures one warm corpus run of q into a discarding sink: heap
// allocations and bytes per run, and the rows a run delivers.
func runCost(t *testing.T, c *Corpus, q *Query) (allocs, bytes float64, rows int) {
	t.Helper()
	sink := &discardSink{}
	run := func() {
		sink.n = 0
		if _, _, err := c.RunWith(context.Background(), q, Auto, RunOptions{Workers: 1, Sink: sink}); err != nil {
			t.Fatal(err)
		}
	}
	run() // builds the member's nodes and prepares its joins
	// A collection would empty the kernels' arena pools mid-measurement.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run() // refills the pools
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs, sink.n
}

// TestPatternRunAllocations pins what a pattern evaluation allocates now that
// bindings stay ranks until an item is delivered (DESIGN §8). Two shapes: a
// path that lowers to one pattern operator in items mode — a fixed number of
// allocations whatever the row count, and little more per row than the item
// itself — and a FLWOR that evaluates dependent patterns once per outer tuple.
func TestPatternRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	var allocs, bytes [2]float64
	var rows [2]int
	for i, people := range []int{200, 800} {
		c := xmarkCorpus(t, 7, people)
		allocs[i], bytes[i], rows[i] = runCost(t, c, MustPrepare(`$input//person[emailaddress]/name`))
		if rows[i] < people/4 {
			t.Fatalf("%d persons: %d rows, expected a real result", people, rows[i])
		}
		t.Logf("%d persons: %d rows, %.2f allocations, %.0f B", people, rows[i], allocs[i], bytes[i])
		if allocs[i] > 12 {
			t.Errorf("%d persons: %.2f allocations per run, want <= 12", people, allocs[i])
		}
	}
	if allocs[0] != allocs[1] {
		t.Errorf("allocations per run depend on the row count: %.2f at %d rows, %.2f at %d", allocs[0], rows[0], allocs[1], rows[1])
	}
	perRow := (bytes[1] - bytes[0]) / float64(rows[1]-rows[0])
	fixed := bytes[0] - perRow*float64(rows[0])
	t.Logf("%.1f B per result row, %.0f B per run", perRow, fixed)
	if perRow > 24 || fixed > 1024 {
		t.Errorf("%.1f B per result row and %.0f B per run, want <= 24 and <= 1024", perRow, fixed)
	}

	c := xmarkCorpus(t, 7, 200)
	outer, err := c.Run(MustPrepare(`$input/site/open_auctions/open_auction`), Auto)
	if err != nil || len(outer) == 0 {
		t.Fatalf("outer tuples: %d, %v", len(outer), err)
	}
	xq2, _, xq2Rows := runCost(t, c, MustPrepare(`for $b in $input/site/open_auctions/open_auction return $b/bidder[1]/increase`))
	t.Logf("XQ2: %d outer tuples, %d rows, %.1f allocations per outer tuple", len(outer), xq2Rows, xq2/float64(len(outer)))
	if xq2Rows == 0 {
		t.Fatal("XQ2 returned nothing")
	}
	if perTuple := xq2 / float64(len(outer)); perTuple > 8 {
		t.Errorf("XQ2: %.1f allocations per outer tuple, want <= 8", perTuple)
	}
}
