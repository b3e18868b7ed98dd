package collection

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xqtp/internal/execctx"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// genSources builds n small documents with per-document distinguishable
// content: document i carries <id>i</id> and a tag unique to i%3.
func genSources(n int) []Source {
	out := make([]Source, n)
	for i := 0; i < n; i++ {
		var b strings.Builder
		fmt.Fprintf(&b, "<doc><id>%d</id>", i)
		switch i % 3 {
		case 0:
			b.WriteString("<alpha/>")
		case 1:
			b.WriteString("<beta/>")
		case 2:
			b.WriteString("<gamma/>")
		}
		b.WriteString("</doc>")
		out[i] = Source{URI: fmt.Sprintf("mem://doc-%03d.xml", i), Data: []byte(b.String())}
	}
	return out
}

func TestIngestOrderDeterminism(t *testing.T) {
	sources := genSources(50)
	for _, workers := range []int{1, 4, 16} {
		c, err := Ingest(sources, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if c.Len() != len(sources) {
			t.Fatalf("workers=%d: got %d members, want %d", workers, c.Len(), len(sources))
		}
		prevID := 0
		for i, d := range c.Docs() {
			if d.URI != sources[i].URI {
				t.Fatalf("workers=%d: member %d is %q, want %q", workers, i, d.URI, sources[i].URI)
			}
			if id := d.Tree().ID; id <= prevID {
				t.Fatalf("workers=%d: member %d tree ID %d not ascending after %d", workers, i, id, prevID)
			} else {
				prevID = id
			}
		}
	}
}

func TestResolveDocAndCollection(t *testing.T) {
	c, err := Ingest(genSources(5), 2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.ResolveDoc("mem://doc-003.xml")
	if err != nil {
		t.Fatal(err)
	}
	if n != c.Doc(3).Root() {
		t.Fatal("ResolveDoc returned the wrong document node")
	}
	if _, err := c.ResolveDoc("mem://missing.xml"); err == nil {
		t.Fatal("ResolveDoc of a missing URI should fail")
	}
	seq, err := c.ResolveCollection("")
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 5 {
		t.Fatalf("default collection has %d items, want 5", len(seq))
	}
	for i, it := range seq {
		if it != c.Doc(i).Root() {
			t.Fatalf("collection item %d is not member %d's root", i, i)
		}
	}
	if _, err := c.ResolveCollection("named"); err == nil {
		t.Fatal("named collections are not defined and should fail")
	}
}

func TestDuplicateURIRejected(t *testing.T) {
	sources := genSources(3)
	sources[2].URI = sources[0].URI
	if _, err := Ingest(sources, 2); err == nil {
		t.Fatal("duplicate URI should be rejected")
	}
}

func TestIngestErrorIsDeterministic(t *testing.T) {
	sources := genSources(20)
	sources[7].Data = []byte("<broken")
	sources[13].Data = []byte("<also-broken")
	for _, workers := range []int{1, 8} {
		_, err := Ingest(sources, workers)
		if err == nil {
			t.Fatalf("workers=%d: malformed member should fail ingest", workers)
		}
		if !strings.Contains(err.Error(), "doc-007") {
			t.Fatalf("workers=%d: error should name the first bad source, got: %v", workers, err)
		}
	}
}

// A panic while ingesting one source is that source's error, from Ingest
// (LoadCorpus) and from Extend alike: the pool stops as for a malformed
// source, and every worker has exited when the call returns.
func TestIngestPanicIsSourceError(t *testing.T) {
	defer func(f func(*xmlstore.Loader, Source) (*xmlstore.Index, error)) { ingestSource = f }(ingestSource)
	var ingested atomic.Int64
	ingestSource = func(ld *xmlstore.Loader, s Source) (*xmlstore.Index, error) {
		if s.URI == "mem://doc-005.xml" {
			panic("injected fault")
		}
		ingested.Add(1)
		return ingestOne(ld, s)
	}
	base, err := Ingest(genSources(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()
	check := func(label string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), `ingest "mem://doc-005.xml": panic: injected fault`) {
			t.Fatalf("%s: error %v, want the panicking source's", label, err)
		}
	}
	for _, workers := range []int{1, 4} {
		ingested.Store(0)
		_, err := Ingest(genSources(40), workers)
		check(fmt.Sprintf("Ingest workers=%d", workers), err)
		if n := ingested.Load(); workers == 1 && n != 5 {
			t.Errorf("Ingest workers=1: %d sources ingested, want the 5 before the panic", n)
		}
		_, err = base.Extend(genSources(40), workers)
		check(fmt.Sprintf("Extend workers=%d", workers), err)
	}
	// The workers call wg.Done before they return: give them the moment.
	for i := 0; runtime.NumGoroutine() > goroutines; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines after the failed ingests, %d before", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestNameTable(t *testing.T) {
	c, err := Ingest(genSources(9), 3)
	if err != nil {
		t.Fatal(err)
	}
	nt := c.Names()
	if got := nt.DocsWith("doc"); got != 9 {
		t.Fatalf("DocsWith(doc) = %d, want 9", got)
	}
	if got := nt.DocsWith("alpha"); got != 3 {
		t.Fatalf("DocsWith(alpha) = %d, want 3", got)
	}
	if got := nt.DocsWith("nosuch"); got != 0 {
		t.Fatalf("DocsWith(nosuch) = %d, want 0", got)
	}
	for i := 0; i < 9; i++ {
		wantAlpha := i%3 == 0
		if nt.Has("alpha", i) != wantAlpha {
			t.Fatalf("Has(alpha, %d) = %v, want %v", i, !wantAlpha, wantAlpha)
		}
		// The per-document symbol must agree with the member's own table.
		s := nt.Sym("id", i)
		if want, ok := c.Doc(i).Tree().Syms.Lookup("id"); !ok || s != want {
			t.Fatalf("Sym(id, %d) = %v, want %v", i, s, want)
		}
		if !nt.HasAll(i, []string{"doc", "id"}) {
			t.Fatalf("HasAll(doc,id) false for member %d", i)
		}
		if nt.HasAll(i, []string{"doc", "nosuch"}) {
			t.Fatalf("HasAll with a missing name true for member %d", i)
		}
	}
}

// perDocSeq is a synthetic evaluation: a one-item sequence naming the member.
func perDocSeq(d *Doc) (xdm.Sequence, error) {
	return xdm.Sequence{xdm.String(d.URI)}, nil
}

// seqMember adapts a synthetic evaluation to a fan-out Member that delivers
// the member's sequence.
type seqMember func(d *Doc) (xdm.Sequence, error)

func (f seqMember) Eval(d *Doc, ec *execctx.Ctx, sink execctx.Sink) error {
	seq, err := f(d)
	if err != nil {
		return err
	}
	return execctx.Deliver(ec, sink, seq)
}

func (f seqMember) Fork() Member { return f }
func (seqMember) Release()       {}

// runAll collects a fan-out's results without an execution context.
func runAll(c *Corpus, workers int, skip func(int) bool, eval func(*Doc) (xdm.Sequence, error)) (xdm.Sequence, error) {
	var out execctx.Collector
	err := c.FanOut(nil, workers, skip, &out, seqMember(eval))
	return out.Seq, err
}

func TestRunAllMergeOrder(t *testing.T) {
	c, err := Ingest(genSources(40), 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runAll(c, 1, nil, perDocSeq)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 64} {
		got, err := runAll(c, workers, nil, perDocSeq)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d items, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: item %d = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestRunAllSkip(t *testing.T) {
	c, err := Ingest(genSources(12), 4)
	if err != nil {
		t.Fatal(err)
	}
	skip := func(doc int) bool { return doc%2 == 1 }
	for _, workers := range []int{1, 4} {
		got, err := runAll(c, workers, skip, perDocSeq)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 6 {
			t.Fatalf("workers=%d: %d items after skip, want 6", workers, len(got))
		}
		for i, it := range got {
			if want := xdm.String(c.Doc(2 * i).URI); it != want {
				t.Fatalf("workers=%d: item %d = %v, want %v", workers, i, it, want)
			}
		}
	}
}

func TestRunAllError(t *testing.T) {
	c, err := Ingest(genSources(20), 4)
	if err != nil {
		t.Fatal(err)
	}
	evalErr := func(d *Doc) (xdm.Sequence, error) {
		if strings.Contains(d.URI, "doc-011") {
			return nil, fmt.Errorf("poisoned")
		}
		return perDocSeq(d)
	}
	for _, workers := range []int{1, 8} {
		if _, err := runAll(c, workers, nil, evalErr); err == nil {
			t.Fatalf("workers=%d: poisoned member should fail the run", workers)
		} else if !strings.Contains(err.Error(), "doc-011") {
			t.Fatalf("workers=%d: error should name the member, got: %v", workers, err)
		}
	}
}

// TestExtendSnapshotUnderQueries is the concurrency contract: a corpus is an
// immutable snapshot, so queries keep running against the old corpus while
// Extend assembles a new one. Run with -race.
func TestExtendSnapshotUnderQueries(t *testing.T) {
	base, err := Ingest(genSources(10), 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := runAll(base, 3, nil, perDocSeq)
				if err != nil {
					t.Errorf("query during Extend: %v", err)
					return
				}
				if len(got) != 10 {
					t.Errorf("query during Extend saw %d members, want 10", len(got))
					return
				}
			}
		}()
	}
	grown := base
	for round := 0; round < 5; round++ {
		extra := make([]Source, 4)
		for i := range extra {
			extra[i] = Source{
				URI:  fmt.Sprintf("mem://extra-%d-%d.xml", round, i),
				Data: []byte(fmt.Sprintf("<extra><round>%d</round></extra>", round)),
			}
		}
		next, err := grown.Extend(extra, 4)
		if err != nil {
			t.Fatal(err)
		}
		if next.Len() != grown.Len()+4 {
			t.Fatalf("Extend: %d members, want %d", next.Len(), grown.Len()+4)
		}
		grown = next
	}
	close(stop)
	wg.Wait()
	if base.Len() != 10 {
		t.Fatalf("base corpus mutated by Extend: %d members", base.Len())
	}
	if grown.Len() != 30 {
		t.Fatalf("grown corpus has %d members, want 30", grown.Len())
	}
	// The old members are shared, not reparsed: same indexes, same IDs.
	for i := 0; i < 10; i++ {
		if grown.Doc(i) != base.Doc(i) {
			t.Fatalf("Extend copied member %d instead of sharing it", i)
		}
	}
	prevID := 0
	for i, d := range grown.Docs() {
		if d.Tree().ID <= prevID {
			t.Fatalf("grown corpus member %d breaks the ascending-ID invariant", i)
		}
		prevID = d.Tree().ID
	}
}

// A claimed position below the lowest failure is evaluated even when a later
// member failed first, so the run reports the earliest failure in corpus
// order. Two workers: the one that claims position 1 is held there until the
// other has failed position 3 and claimed past it; position 1 fails too, and
// its failure is the run's.
func TestFanOutFirstFailureInCorpusOrder(t *testing.T) {
	c, err := Ingest(genSources(6), 2)
	if err != nil {
		t.Fatal(err)
	}
	failing := func(d *Doc) (xdm.Sequence, error) {
		if strings.Contains(d.URI, "doc-001") || strings.Contains(d.URI, "doc-003") {
			return nil, fmt.Errorf("poisoned")
		}
		return perDocSeq(d)
	}
	past := make(chan struct{})
	var pastOnce sync.Once
	claimHook = func(pos int) {
		switch {
		case pos == 1:
			select {
			case <-past:
			case <-time.After(10 * time.Second):
				t.Error("no position past 3 was claimed while position 1 was held")
			}
		case pos > 3:
			pastOnce.Do(func() { close(past) })
		}
	}
	defer func() { claimHook = nil }()
	_, err = runAll(c, 2, nil, failing)
	if err == nil || !strings.Contains(err.Error(), "doc-001") {
		t.Fatalf("error %v, want position 1's (doc-001)", err)
	}
	claimHook = nil
	if _, err := runAll(c, 1, nil, failing); err == nil || !strings.Contains(err.Error(), "doc-001") {
		t.Fatalf("one worker: error %v, want doc-001's", err)
	}
}
