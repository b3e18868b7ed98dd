package xqtp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"xqtp/internal/xdm"
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
	allocs, bytes = warmCost(t, func() {
		sink.n = 0
		if _, _, err := c.RunWith(context.Background(), q, Auto, RunOptions{Workers: 1, Sink: sink}); err != nil {
			t.Fatal(err)
		}
	})
	return allocs, bytes, sink.n
}

// warmCost measures the heap allocations and bytes of one warm call of run.
func warmCost(t *testing.T, run func()) (allocs, bytes float64) {
	t.Helper()
	run() // builds the member's nodes and prepares its joins
	// A collection would empty the kernels' arena pools mid-measurement.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run() // refills the pools
	// The minimum over several batches, not one mean: sync.Pool is per P, so
	// a goroutine moved to another P between runs misses its arena and
	// allocates one more, about once in 40 fresh processes.
	const runs, batches = 20, 5
	allocs, bytes = math.Inf(1), math.Inf(1)
	for b := 0; b < batches; b++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/runs)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return allocs, bytes
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

// TestDependentEvaluationAllocations pins what the tuple operators around a
// pattern allocate now that tuples flow through one frame per run (DESIGN §9):
// a dependent sub-plan evaluated once per outer tuple allocates what the
// builtins and navigation steps it calls return, and nothing for its tuples,
// its rank buffer or its operands.
func TestDependentEvaluationAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	c := xmarkCorpus(t, 7, 200)
	for _, tc := range []struct {
		name, outer, query string
		perOuter           float64
	}{
		{"XQ2", `$input/site/open_auctions/open_auction`,
			`for $b in $input/site/open_auctions/open_auction return $b/bidder[1]/increase`, 3},
		{"XQ4", `$input/site/open_auctions/open_auction`,
			`for $b in $input/site/open_auctions/open_auction where $b/bidder[2] return $b/itemref`, 4},
		{"XQ17", `$input/site/people/person`,
			`for $p in $input/site/people/person where empty($p/emailaddress) return $p/name`, 2},
	} {
		outer, err := c.Run(MustPrepare(tc.outer), Auto)
		if err != nil || len(outer) == 0 {
			t.Fatalf("%s: outer tuples: %d, %v", tc.name, len(outer), err)
		}
		allocs, _, rows := runCost(t, c, MustPrepare(tc.query))
		if rows == 0 {
			t.Fatalf("%s returned nothing", tc.name)
		}
		got := allocs / float64(len(outer))
		t.Logf("%s: %d outer tuples, %d rows, %.2f allocations per outer tuple", tc.name, len(outer), rows, got)
		if got > tc.perOuter {
			t.Errorf("%s: %.2f allocations per outer tuple, want <= %v", tc.name, got, tc.perOuter)
		}
	}
}

// TestFanOutMemberAllocations pins the per-member cost of a one-worker
// fan-out: every admitted member's plan streams into the caller's sink from
// the one run state, so a member costs its kernel's rank buffer and little
// else — no runtime copy, no collected member Sequence, no frame.
func TestFanOutMemberAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const members = 64
	srcs := make([]CorpusSource, members)
	for i := range srcs {
		srcs[i] = CorpusSource{
			URI:  fmt.Sprintf("mem://member-%02d.xml", i),
			Data: []byte(NewMemberDocumentNodes(int64(i+1), 4, 12, 300).XML()),
		}
	}
	c, err := LoadCorpus(srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	q := MustPrepare(`$input//t01[t02]`)
	_, info, err := c.RunWith(context.Background(), q, Auto, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	admitted := info.Members - info.Skipped
	if admitted < members/2 {
		t.Fatalf("%d of %d members admitted, expected most", admitted, members)
	}
	allocs, bytes, rows := runCost(t, c, q)
	perMember := allocs / float64(admitted)
	t.Logf("%d admitted members, %d rows: %.2f allocations and %.0f B per member", admitted, rows, perMember, bytes/float64(admitted))
	// Before, a member cost 4.7 allocations: its copy of the runtime, two frame
	// arenas, its ranks and its collected Sequence. Now its ranks go into the
	// run state's buffer, which only grows.
	if perMember > 1 {
		t.Errorf("%.2f allocations per admitted member, want <= 1", perMember)
	}
}

// TestPrepareAllocations bounds what compiling costs now that the passes
// rebuild only the nodes they change (DESIGN §9): the mean allocations and
// bytes of one Prepare over the plan golden's texts, the minimum over five
// batches as in runCost.
func TestPrepareAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	texts := goldenTexts()
	prepareAll := func() {
		for _, text := range texts {
			if _, err := Prepare(text); err != nil {
				t.Fatal(err)
			}
		}
	}
	prepareAll()
	allocs, bytes := math.Inf(1), math.Inf(1)
	for b := 0; b < 5; b++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		prepareAll()
		runtime.ReadMemStats(&after)
		n := float64(len(texts))
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/n)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/n)
	}
	t.Logf("%d texts: %.0f allocations and %.1f KB per Prepare", len(texts), allocs, bytes/1024)
	if allocs > 560 || bytes > 24*1024 {
		t.Errorf("%.0f allocations and %.1f KB per Prepare, want <= 560 and <= 24 KB", allocs, bytes/1024)
	}
}

// discardRankSink is a discardSink that takes nodes as ranks, as the
// server's streamer does.
type discardRankSink struct{ discardSink }

func (s *discardRankSink) PushRank(*xdm.Tree, int32) error { s.n++; return nil }

// TestSteadyStateRunAllocations pins what a warm query allocates now that a
// plan pools its run states (DESIGN §9). Each run is under a deadline with
// one worker, as the server runs it. A warm run reuses the frame, the scratch
// slots, the gathered contexts and the rank tables that earlier runs of its
// plan grew, so what it allocates does not depend on how many members it
// walks (the fan-out shapes) or gathers (fn:collection). Under the race
// detector the runs are made and their row counts checked, not their
// allocations.
func TestSteadyStateRunAllocations(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, tc := range []struct {
		name, query string
		ranks       bool
		bound       float64
	}{
		// The fan-out shapes: run's record, the execution context, the skip
		// test. Before the pool, 11 at 8 and 64 members and, for the FLWOR,
		// 50 at 8 and 303 at 64.
		{"path-ranks", `$input//person[emailaddress]/name`, true, 7},
		{"flwor", benchFLWOR, false, 7},
		// No skip test; before the pool, 19 at 8 members and 28 at 64.
		{"collection", `fn:collection()//person[emailaddress]/name`, false, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := MustPrepare(tc.query)
			var allocs, bytes [2]float64
			for i, members := range []int{8, 64} {
				c, err := LoadCorpus(smallXMarkSources("steady", members, 3), 1)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				want, err := c.Run(q, Auto)
				if err != nil || len(want) < members {
					t.Fatalf("%d members: %d items, %v; expected a real result", members, len(want), err)
				}
				rs := &discardRankSink{}
				var sink Sink = &rs.discardSink
				if tc.ranks {
					sink = rs
				}
				run := func() {
					rs.n = 0
					if _, _, err := c.RunWith(ctx, q, Auto, RunOptions{Workers: 1, Sink: sink}); err != nil {
						t.Fatal(err)
					}
					if rs.n != len(want) {
						t.Fatalf("%d members: %d rows, want %d", members, rs.n, len(want))
					}
				}
				if raceEnabled {
					for k := 0; k < 3; k++ {
						run()
					}
					continue
				}
				allocs[i], bytes[i] = warmCost(t, run)
				t.Logf("%d members, %d rows: %.2f allocations, %.0f B per run", members, len(want), allocs[i], bytes[i])
			}
			if raceEnabled {
				return
			}
			if allocs[0] != allocs[1] {
				t.Errorf("allocations per run depend on the member count: %.2f at 8, %.2f at 64", allocs[0], allocs[1])
			}
			if allocs[1] > tc.bound {
				t.Errorf("%.2f allocations per warm run, want <= %v", allocs[1], tc.bound)
			}
		})
	}
}
