package xqtp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"xqtp/internal/collection"
	"xqtp/internal/gen"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// cancelLatencyBound is the time a run may take to return after its context
// is canceled: the checkpoint interval of the kernels plus the in-flight
// member evaluations of the fan-out. The race detector instruments every
// atomic and channel operation, so the bound gets generous headroom there.
func cancelLatencyBound() time.Duration {
	d := 10 * time.Millisecond
	if raceEnabled {
		d *= 20
	}
	return d
}

// cancelTestCorpus lazily builds the shared 1000-document mixed corpus
// (MemBeR-style and XMark-like members interleaved) the cancellation matrix
// runs against.
var (
	cancelCorpusOnce sync.Once
	cancelCorpus     *Corpus
	cancelCorpusErr  error
)

func cancelTestCorpus(t *testing.T) *Corpus {
	t.Helper()
	cancelCorpusOnce.Do(func() {
		cancelCorpus, cancelCorpusErr = LoadCorpus(collectionSources(1000, 7), 8)
	})
	if cancelCorpusErr != nil {
		t.Fatalf("building 1000-doc corpus: %v", cancelCorpusErr)
	}
	return cancelCorpus
}

// collectionSources generates a mixed corpus of n members: MemBeR-style and
// XMark-like documents interleaved, a few KB each, serialized through the
// generator-to-scanner path.
func collectionSources(n int, seed int64) []CorpusSource {
	out := make([]CorpusSource, n)
	for i := 0; i < n; i++ {
		var root *xdm.Node
		if i%2 == 0 {
			root = gen.MemberRoot(gen.MemberConfig{
				Seed: seed + int64(i), Depth: 4, NumTags: 20, NumNodes: 300,
			})
		} else {
			root = gen.XMarkRoot(gen.XMarkConfig{Seed: seed + int64(i), People: 8})
		}
		out[i] = CorpusSource{
			URI:  fmt.Sprintf("mem://corpus-%05d.xml", i),
			Data: xmlstore.AppendXML(nil, root),
		}
	}
	return out
}

// cancelingSink cancels the run's context on the first item it receives and
// keeps collecting, recording when the cancellation was issued.
type cancelingSink struct {
	cancel     context.CancelFunc
	once       sync.Once
	items      Sequence
	canceledAt time.Time
}

func (s *cancelingSink) Push(it Item) error {
	s.items = append(s.items, it)
	s.once.Do(func() {
		s.canceledAt = time.Now()
		s.cancel()
	})
	return nil
}

// waitNoGoroutineLeak retries the goroutine count for a bounded time: worker
// goroutines of a canceled run are allowed a moment to observe the stop and
// exit, but must all be gone well before the deadline.
func waitNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after canceled run: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Canceling a corpus run mid-evaluation — from the result stream itself, so
// the cancellation always lands while members are in flight — returns
// ErrCanceled within the checkpoint latency bound, leaks no goroutines, and
// the delivered items are a corpus-order prefix of the full result.
func TestCancelMidCorpusRun(t *testing.T) {
	corpus := cancelTestCorpus(t)
	q := MustPrepare(`$input//person[emailaddress]/name`)
	full, err := corpus.RunParallel(q, NestedLoop, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Fatal("query matches nothing; the cancellation test needs results to cancel from")
	}
	for _, alg := range []Algorithm{NestedLoop, Staircase, Twig, Auto} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%v/workers=%d", alg, workers), func(t *testing.T) {
				before := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				sink := &cancelingSink{cancel: cancel}
				_, _, err := corpus.RunWith(ctx, q, alg, RunOptions{Workers: workers, Sink: sink})
				returned := time.Now()
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("want ErrCanceled, got %v", err)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("error does not unwrap to context.Canceled: %v", err)
				}
				if sink.canceledAt.IsZero() {
					t.Fatal("sink never saw an item; cancellation was not mid-run")
				}
				if lat := returned.Sub(sink.canceledAt); lat > cancelLatencyBound() {
					t.Errorf("run returned %v after cancellation (bound %v)", lat, cancelLatencyBound())
				}
				if len(sink.items) == 0 || len(sink.items) >= len(full) {
					t.Fatalf("delivered %d of %d items; expected a proper nonempty prefix", len(sink.items), len(full))
				}
				for i, it := range sink.items {
					if it != full[i] {
						t.Fatalf("delivered item %d differs from the full run's prefix", i)
					}
				}
				waitNoGoroutineLeak(t, before)
			})
		}
	}
}

// A run canceled mid-evaluation must leave the pooled kernel state (staircase
// arenas, twig buffers) clean: an immediately following uncancelled run of
// the same query returns exactly the oracle result.
func TestCancelLeavesPoolsClean(t *testing.T) {
	corpus := cancelTestCorpus(t)
	for _, pq := range corpusDiffQueries() {
		q, err := Prepare(pq.Query)
		if err != nil {
			t.Fatalf("%s: %v", pq.Name, err)
		}
		oracle, err := corpus.RunParallel(q, NestedLoop, 8)
		if err != nil {
			t.Fatalf("%s: %v", pq.Name, err)
		}
		for _, alg := range []Algorithm{Staircase, Twig, Auto} {
			ctx, cancel := context.WithCancel(context.Background())
			sink := &cancelingSink{cancel: cancel}
			_, _, err := corpus.RunWith(ctx, q, alg, RunOptions{Workers: 8, Sink: sink})
			cancel()
			if err != nil && !errors.Is(err, ErrCanceled) {
				t.Fatalf("%s/%v canceled run: %v", pq.Name, alg, err)
			}
			got, err := corpus.RunParallel(q, alg, 8)
			if err != nil {
				t.Fatalf("%s/%v rerun after cancel: %v", pq.Name, alg, err)
			}
			if err := sameItems(oracle, got); err != nil {
				t.Errorf("%s/%v rerun after cancel differs from oracle: %v", pq.Name, alg, err)
			}
		}
	}
}

// A context that is already done returns ErrCanceled without evaluating, for
// both the document and the corpus entry points, and the error unwraps to
// the context's cause.
func TestPreCanceledContext(t *testing.T) {
	corpus := cancelTestCorpus(t)
	doc := corpus.DocumentAt(1)
	q := MustPrepare(`$input//person/name`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := q.RunWith(ctx, doc, Staircase, RunOptions{}); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Query.RunWith on canceled context: %v", err)
	}
	if _, _, err := corpus.RunWith(ctx, q, Staircase, RunOptions{Workers: 4}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Corpus.RunWith on canceled context: %v", err)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel2()
	if _, _, err := q.RunWith(expired, doc, Twig, RunOptions{}); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Query.RunWith on expired deadline: %v", err)
	}
	var re *RunError
	_, _, err := q.RunWith(ctx, doc, NestedLoop, RunOptions{})
	if !errors.As(err, &re) {
		t.Fatalf("canceled run error is not a *RunError: %v", err)
	}
}

// A MaxRows budget delivers exactly the first K items of the full result in
// document order, reports Rows = K, and returns ErrBudgetExceeded — for the
// single-document and the corpus fan-out paths, where the budget is charged
// at the corpus-order merge regardless of worker interleaving.
func TestMaxRowsPrefix(t *testing.T) {
	corpus := cancelTestCorpus(t)
	q := MustPrepare(`$input//person[emailaddress]/name`)
	full, err := corpus.RunParallel(q, Staircase, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 20 {
		t.Fatalf("only %d results; the budget test needs more", len(full))
	}
	for _, k := range []int64{1, 7, int64(len(full)) - 1} {
		got, info, err := corpus.RunWith(context.Background(), q, Staircase, RunOptions{Workers: 8, MaxRows: k})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("MaxRows=%d: want ErrBudgetExceeded, got %v", k, err)
		}
		if int64(len(got)) != k || info.Rows != k {
			t.Fatalf("MaxRows=%d: delivered %d items, info.Rows=%d", k, len(got), info.Rows)
		}
		for i := range got {
			if got[i] != full[i] {
				t.Fatalf("MaxRows=%d: item %d differs from the full run's prefix", k, i)
			}
		}
	}
	// A budget the result never reaches delivers everything and no error.
	got, info, err := corpus.RunWith(context.Background(), q, Staircase, RunOptions{Workers: 8, MaxRows: int64(len(full)) + 1})
	if err != nil {
		t.Fatalf("unreached budget: %v", err)
	}
	if err := sameItems(full, got); err != nil {
		t.Fatalf("unreached budget changed the result: %v", err)
	}
	if info.Rows != int64(len(full)) {
		t.Fatalf("info.Rows=%d, want %d", info.Rows, len(full))
	}

	// Single document, through Query.RunWith.
	doc := corpus.DocumentAt(1)
	dfull, err := q.Run(doc, Staircase)
	if err != nil {
		t.Fatal(err)
	}
	if len(dfull) < 3 {
		t.Fatalf("member query returned %d items; need more", len(dfull))
	}
	dgot, dinfo, err := q.RunWith(context.Background(), doc, Staircase, RunOptions{MaxRows: 2})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("doc MaxRows=2: want ErrBudgetExceeded, got %v", err)
	}
	if len(dgot) != 2 || dinfo.Rows != 2 {
		t.Fatalf("doc MaxRows=2: delivered %d, info.Rows=%d", len(dgot), dinfo.Rows)
	}
	for i := range dgot {
		if dgot[i] != dfull[i] {
			t.Fatalf("doc MaxRows=2: item %d differs from the full run's prefix", i)
		}
	}
}

// A MaxBytes budget stops the run with ErrBudgetExceeded after delivering a
// document-order prefix.
func TestMaxBytesBudget(t *testing.T) {
	corpus := cancelTestCorpus(t)
	q := MustPrepare(`$input//person`)
	full, err := corpus.RunParallel(q, Staircase, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := corpus.RunWith(context.Background(), q, Staircase, RunOptions{Workers: 8, MaxBytes: 256})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if len(got) == 0 || len(got) >= len(full) {
		t.Fatalf("delivered %d of %d items under a 256-byte budget", len(got), len(full))
	}
	for i := range got {
		if got[i] != full[i] {
			t.Fatalf("item %d differs from the full run's prefix", i)
		}
	}
	if info.Bytes == 0 {
		t.Fatal("info.Bytes not accounted")
	}
}

// errSink fails on the Nth push; the run must abort and return that error.
type errSink struct {
	failAt int
	n      int
}

var errSinkBoom = errors.New("sink refused the item")

func (s *errSink) Push(it Item) error {
	s.n++
	if s.n >= s.failAt {
		return errSinkBoom
	}
	return nil
}

// A sink error aborts the run and comes back verbatim.
func TestSinkErrorAbortsRun(t *testing.T) {
	corpus := cancelTestCorpus(t)
	q := MustPrepare(`$input//person/name`)
	_, _, err := corpus.RunWith(context.Background(), q, Staircase, RunOptions{Workers: 8, Sink: &errSink{failAt: 3}})
	if !errors.Is(err, errSinkBoom) {
		t.Fatalf("want the sink's error, got %v", err)
	}
	doc := corpus.DocumentAt(1)
	_, _, err = q.RunWith(context.Background(), doc, Staircase, RunOptions{Sink: &errSink{failAt: 1}})
	if !errors.Is(err, errSinkBoom) {
		t.Fatalf("doc run: want the sink's error, got %v", err)
	}
}

// A worker count has one meaning for run, ingest and Extend alike: members
// processed at once, <= 0 one per CPU, capped at the member count. Every
// count — zero, negative, more than there are members — resolves by that
// rule and gives the one-worker corpus and results.
func TestNormalizeWorkers(t *testing.T) {
	const members = 6
	cpus := runtime.GOMAXPROCS(0)
	q := MustPrepare(`$input//person[emailaddress]/name`)
	results := func(t *testing.T, c *Corpus, workers int) string {
		t.Helper()
		seq, _, err := c.RunWith(context.Background(), q, Staircase, RunOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: run: %v", workers, err)
		}
		return fmt.Sprint(c.URIs(), values(t, seq))
	}
	ingest := func(t *testing.T, workers int) (loaded, grown *Corpus) {
		t.Helper()
		srcs := collectionSources(members, 3)
		loaded, err := LoadCorpus(srcs, workers)
		if err != nil {
			t.Fatalf("workers=%d: ingest: %v", workers, err)
		}
		base, err := LoadCorpus(collectionSources(2, 3), 1)
		if err != nil {
			t.Fatal(err)
		}
		if grown, err = base.Extend(srcs[2:], workers); err != nil {
			t.Fatalf("workers=%d: Extend: %v", workers, err)
		}
		return loaded, grown
	}
	loaded, grown := ingest(t, 1)
	want := results(t, loaded, 1)
	if got := results(t, grown, 1); got != want {
		t.Fatalf("extended corpus gives %s, ingested %s", got, want)
	}
	for _, tc := range []struct {
		name          string
		workers, want int
	}{
		{"zero", 0, min(cpus, members)},
		{"negative", -3, min(cpus, members)},
		{"one", 1, 1},
		{"two", 2, 2},
		{"more-than-members", members + 5, members},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := collection.Workers(tc.workers, members); got != tc.want {
				t.Errorf("Workers(%d, %d) = %d, want %d", tc.workers, members, got, tc.want)
			}
			loaded, grown := ingest(t, tc.workers)
			for _, c := range []*Corpus{loaded, grown} {
				if got := results(t, c, tc.workers); got != want {
					t.Errorf("workers=%d: %s, want %s", tc.workers, got, want)
				}
			}
		})
	}
	if got := collection.Workers(4, 0); got != 1 {
		t.Errorf("Workers(4, 0) = %d, want 1", got)
	}
}

// RunWith under a live, never-canceled context (the kernels poll it) returns
// exactly what Run returns, for every algorithm.
func TestRunWithLiveContextEqualsRun(t *testing.T) {
	corpus := cancelTestCorpus(t)
	doc := corpus.DocumentAt(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, pq := range corpusDiffQueries() {
		q, err := Prepare(pq.Query)
		if err != nil {
			t.Fatalf("%s: %v", pq.Name, err)
		}
		for _, alg := range []Algorithm{NestedLoop, Staircase, Twig, Auto, Streaming} {
			want, err := q.Run(doc, alg)
			if err != nil {
				t.Fatalf("%s/%v: %v", pq.Name, alg, err)
			}
			got, _, err := q.RunWith(ctx, doc, alg, RunOptions{})
			if err != nil {
				t.Fatalf("%s/%v: %v", pq.Name, alg, err)
			}
			if err := sameItems(want, got); err != nil {
				t.Errorf("%s/%v: RunWith differs from Run: %v", pq.Name, alg, err)
			}
		}
	}
}

// RunInfo.Rows counts what a run delivered whether or not anything metered
// it: a run with neither deadline nor budget threads the nil execution
// context, which counts nothing, and used to report 0 rows for 3 items.
func TestRunInfoRowsWithoutContext(t *testing.T) {
	doc, err := LoadXMLString(`<r><a/><a/><a/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	q := MustPrepare(`$input//a`)
	got, info, err := q.RunWith(context.Background(), doc, Auto, RunOptions{})
	if err != nil || len(got) != 3 || info.Rows != 3 {
		t.Errorf("Query.RunWith: %d items, info.Rows=%d, err=%v; want 3 and 3", len(got), info.Rows, err)
	}

	corpus, err := LoadCorpus([]CorpusSource{
		{URI: "mem://1.xml", Data: []byte(`<r><a/><a/></r>`)},
		{URI: "mem://2.xml", Data: []byte(`<r><b/></r>`)},
		{URI: "mem://3.xml", Data: []byte(`<r><a/></r>`)},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Close()
	for _, text := range []string{`$input//a`, `fn:collection()//a`} {
		q := MustPrepare(text)
		for _, workers := range []int{1, 4} {
			got, info, err := corpus.RunWith(context.Background(), q, Auto, RunOptions{Workers: workers})
			if err != nil || len(got) != 3 || info.Rows != 3 {
				t.Errorf("Corpus.RunWith(%s, workers=%d): %d items, info.Rows=%d, err=%v; want 3 and 3", text, workers, len(got), info.Rows, err)
			}
			sink := &discardSink{}
			got, info, err = corpus.RunWith(context.Background(), q, Auto, RunOptions{Workers: workers, Sink: sink})
			if err != nil || got != nil || sink.n != 3 || info.Rows != 3 {
				t.Errorf("Corpus.RunWith(%s, workers=%d, Sink): sink got %d, info.Rows=%d, err=%v; want 3 and 3", text, workers, sink.n, info.Rows, err)
			}
		}
	}
	// A sink that refuses an item did not receive it.
	_, info, err = corpus.RunWith(context.Background(), MustPrepare(`$input//a`), Auto, RunOptions{Workers: 1, Sink: &errSink{failAt: 3}})
	if !errors.Is(err, errSinkBoom) || info.Rows != 2 {
		t.Errorf("refusing sink: info.Rows=%d, err=%v; want 2 rows and the sink's error", info.Rows, err)
	}
}
