package xqtp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"xqtp/internal/gen"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// genCorpusSources builds a mixed corpus: MemBeR-style and XMark-like
// members interleaved, with per-member seeds and sizes so no two members are
// identical.
func genCorpusSources(n int, seed int64) []CorpusSource {
	out := make([]CorpusSource, n)
	for i := 0; i < n; i++ {
		var root *xdm.Node
		if i%2 == 0 {
			root = gen.MemberRoot(gen.MemberConfig{
				Seed: seed + int64(i), Depth: 4, NumTags: 20, NumNodes: 150 + 37*i,
			})
		} else {
			root = gen.XMarkRoot(gen.XMarkConfig{Seed: seed + int64(i), People: 4 + i%7})
		}
		out[i] = CorpusSource{
			URI:  fmt.Sprintf("mem://corpus-%03d.xml", i),
			Data: xmlstore.AppendXML(nil, root),
		}
	}
	return out
}

// corpusDiffQueries is the query set of the corpus differential: root-bound
// paper queries that exercise the pattern algorithms. XMark names are absent
// from the MemBeR members (and vice versa), so the set also exercises the
// name-table skip path.
func corpusDiffQueries() []PaperQuery {
	return []PaperQuery{
		{"person-email", `$input//person[emailaddress]/name`},
		{"interest", `$input//person[profile/interest]/name`},
		{"t01", `$input//t01`},
		{"t01-t02", `$input//t01[t02]`},
		{"bidder", `$input//open_auction[bidder/increase]/current`},
	}
}

// Corpus.Run over a mixed corpus equals the concatenation of per-member
// nested-loop oracle runs, for every set-at-a-time algorithm, the chooser
// and the streaming automaton — at one worker and at eight.
func TestCorpusDifferential(t *testing.T) {
	corpus, err := LoadCorpus(genCorpusSources(12, 42), 4)
	if err != nil {
		t.Fatal(err)
	}
	algs := []Algorithm{Staircase, Twig, Auto, Streaming}
	for _, pq := range corpusDiffQueries() {
		q, err := Prepare(pq.Query)
		if err != nil {
			t.Fatalf("%s: %v", pq.Name, err)
		}
		// The oracle: one nested-loop run per member, concatenated in corpus
		// order.
		var oracle Sequence
		for i := 0; i < corpus.Len(); i++ {
			part, err := q.Run(corpus.DocumentAt(i), NestedLoop)
			if err != nil {
				t.Fatalf("%s/member-%d/NL: %v", pq.Name, i, err)
			}
			oracle = append(oracle, part...)
		}
		for _, alg := range algs {
			for _, workers := range []int{1, 8} {
				got, err := corpus.RunParallel(q, alg, workers)
				if err != nil {
					t.Fatalf("%s/%v/workers=%d: %v", pq.Name, alg, workers, err)
				}
				if err := sameItems(oracle, got); err != nil {
					t.Errorf("%s/%v/workers=%d differs from NL oracle: %v", pq.Name, alg, workers, err)
				}
			}
		}
	}
}

// fn:collection() queries — evaluated once over the whole corpus — match the
// concatenation of per-member runs of the equivalent root-bound query, and
// are identical at every worker count.
func TestCollectionFunctionDifferential(t *testing.T) {
	corpus, err := LoadCorpus(genCorpusSources(10, 7), 4)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		name       string
		collection string
		perDoc     string
	}{
		{"names", `fn:collection()//person[emailaddress]/name`, `$input//person[emailaddress]/name`},
		{"tags", `fn:collection()//t01[t02]`, `$input//t01[t02]`},
	}
	algs := []Algorithm{NestedLoop, Staircase, Twig, Auto}
	for _, pair := range pairs {
		qc := MustPrepare(pair.collection)
		qd := MustPrepare(pair.perDoc)
		var oracle Sequence
		for i := 0; i < corpus.Len(); i++ {
			part, err := qd.Run(corpus.DocumentAt(i), NestedLoop)
			if err != nil {
				t.Fatal(err)
			}
			oracle = append(oracle, part...)
		}
		for _, alg := range algs {
			for _, workers := range []int{1, 8} {
				got, err := corpus.RunParallel(qc, alg, workers)
				if err != nil {
					t.Fatalf("%s/%v/workers=%d: %v", pair.name, alg, workers, err)
				}
				if err := sameItems(oracle, got); err != nil {
					t.Errorf("%s/%v/workers=%d differs from per-member oracle: %v", pair.name, alg, workers, err)
				}
			}
		}
	}
}

// fn:doc resolves members by URI, both through Corpus.Run and on a member
// Document; unknown URIs and unbound documents fail cleanly.
func TestDocFunction(t *testing.T) {
	corpus, err := LoadCorpus(genCorpusSources(6, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	uri := corpus.URIs()[1] // an XMark member
	q := MustPrepare(fmt.Sprintf(`fn:doc(%q)//person[emailaddress]/name`, uri))
	member, _ := corpus.Document(uri)
	oracle, err := MustPrepare(`$input//person[emailaddress]/name`).Run(member, NestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	got, err := corpus.Run(q, Staircase)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameItems(oracle, got); err != nil {
		t.Errorf("doc() through the corpus differs: %v", err)
	}
	// A member Document resolves corpus-wide.
	got, err = q.Run(member, Staircase)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameItems(oracle, got); err != nil {
		t.Errorf("doc() on a member document differs: %v", err)
	}
	// Unknown URI errors.
	if _, err := corpus.Run(MustPrepare(`fn:doc("mem://nope.xml")//a`), Staircase); err == nil {
		t.Error("doc() of an unknown URI should fail")
	}
	// A standalone document is the degenerate one-document collection.
	solo, err := LoadXMLString(`<doc><a>x</a></doc>`)
	if err != nil {
		t.Fatal(err)
	}
	solo.SetURI("mem://solo.xml")
	seq, err := MustPrepare(`fn:collection()//a`).Run(solo, Staircase)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 1 {
		t.Errorf("collection() on a standalone document: %d items, want 1", len(seq))
	}
	seq, err = MustPrepare(`fn:doc("mem://solo.xml")//a`).Run(solo, Staircase)
	if err != nil || len(seq) != 1 {
		t.Errorf("doc() on a standalone document: %d items, err %v", len(seq), err)
	}
}

// The required-name analysis feeding the corpus skip path: conjunctive
// pattern names are required, aggregates and collection access void the
// claim.
func TestRequiredNamesAnalysis(t *testing.T) {
	reqOf := func(src string) []string {
		q := MustPrepare(src)
		p, err := q.physicalPlan(Staircase)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return p.RequiredNames()
	}
	got := reqOf(`$input//person[emailaddress]/name`)
	for _, want := range []string{"person", "emailaddress", "name"} {
		found := false
		for _, n := range got {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("RequiredNames missing %q: %v", want, got)
		}
	}
	if got := reqOf(`count($input//person)`); got != nil {
		t.Errorf("count() result can be non-empty on any document; got required names %v", got)
	}
	if got := reqOf(`fn:collection()//person`); got != nil {
		t.Errorf("collection access voids per-document claims; got %v", got)
	}
}

// Concurrent corpus use under -race: many goroutines run queries while
// Extend snapshots grow the corpus; old snapshots keep answering with their
// member set.
func TestCorpusConcurrentExtend(t *testing.T) {
	base, err := LoadCorpus(genCorpusSources(8, 99), 4)
	if err != nil {
		t.Fatal(err)
	}
	q := MustPrepare(`$input//person[emailaddress]/name`)
	oracle, err := base.Run(q, NestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		alg := []Algorithm{Staircase, Twig, Auto}[g]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := base.RunParallel(q, alg, 4)
				if err != nil {
					t.Errorf("%v during Extend: %v", alg, err)
					return
				}
				if err := sameItems(oracle, got); err != nil {
					t.Errorf("%v during Extend differs: %v", alg, err)
					return
				}
			}
		}()
	}
	grown := base
	for round := 0; round < 4; round++ {
		extra := genCorpusSources(3, int64(1000+100*round))
		for i := range extra {
			extra[i].URI = fmt.Sprintf("mem://extend-%d-%d.xml", round, i)
		}
		next, err := grown.Extend(extra, 2)
		if err != nil {
			t.Fatal(err)
		}
		grown = next
	}
	close(stop)
	wg.Wait()
	if base.Len() != 8 || grown.Len() != 20 {
		t.Fatalf("snapshot sizes: base %d (want 8), grown %d (want 20)", base.Len(), grown.Len())
	}
	// The grown snapshot answers over all members, strictly extending the
	// base result.
	all, err := grown.RunParallel(q, Staircase, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < len(oracle) {
		t.Fatalf("grown corpus returned fewer items (%d) than its base (%d)", len(all), len(oracle))
	}
	if err := sameItems(oracle, all[:len(oracle)]); err != nil {
		t.Errorf("grown corpus does not extend the base result: %v", err)
	}
	if !strings.HasPrefix(grown.URIs()[8], "mem://extend-") {
		t.Errorf("extended members should follow the base members, got %q at position 8", grown.URIs()[8])
	}
}

// Every convenience entry point is RunWith under fixed options: each returns
// item for item what its RunWith spelling returns, on the 12-member
// MemBeR+XMark corpus under every set-at-a-time algorithm, the chooser and
// the streaming automaton.
func TestRunWrappersEqualRunWith(t *testing.T) {
	corpus, err := LoadCorpus(genCorpusSources(12, 42), 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	doc := corpus.DocumentAt(3)
	root := Sequence{doc.Root()}
	for _, pq := range corpusDiffQueries() {
		q := MustPrepare(pq.Query)
		for _, alg := range []Algorithm{Staircase, Twig, Auto, Streaming} {
			docWant, docInfo, err := q.RunWith(ctx, doc, alg, RunOptions{})
			if err != nil {
				t.Fatalf("%s/%v: Query.RunWith: %v", pq.Name, alg, err)
			}
			// A Document run is a one-member corpus run.
			if docInfo.Members != 1 || docInfo.Skipped != 0 {
				t.Errorf("%s/%v: Document run reports %d members, %d skipped; want 1, 0",
					pq.Name, alg, docInfo.Members, docInfo.Skipped)
			}
			corpusWant, corpusInfo, err := corpus.RunWith(ctx, q, alg, RunOptions{Workers: 1})
			if err != nil {
				t.Fatalf("%s/%v: Corpus.RunWith: %v", pq.Name, alg, err)
			}
			wrappers := []struct {
				name string
				want Sequence
				run  func() (Sequence, error)
			}{
				{"Query.Run", docWant, func() (Sequence, error) { return q.Run(doc, alg) }},
				{"Query.RunWith/Vars", docWant, func() (Sequence, error) {
					seq, _, err := q.RunWith(ctx, doc, alg, RunOptions{Vars: map[string]Sequence{"input": root, "dot": root}})
					return seq, err
				}},
				{"Corpus.Run", corpusWant, func() (Sequence, error) { return corpus.Run(q, alg) }},
				{"Corpus.RunParallel", corpusWant, func() (Sequence, error) { return corpus.RunParallel(q, alg, 8) }},
				{"Corpus.RunParallelStats", corpusWant, func() (Sequence, error) {
					seq, stats, err := corpus.RunParallelStats(q, alg, 8)
					if stats.Members != corpusInfo.Members || stats.Skipped != corpusInfo.Skipped {
						t.Errorf("%s/%v: RunParallelStats reports %+v, RunWith %d members, %d skipped",
							pq.Name, alg, stats, corpusInfo.Members, corpusInfo.Skipped)
					}
					return seq, err
				}},
			}
			for _, w := range wrappers {
				got, err := w.run()
				if err != nil {
					t.Fatalf("%s/%v: %s: %v", pq.Name, alg, w.name, err)
				}
				if err := sameItems(w.want, got); err != nil {
					t.Errorf("%s/%v: %s differs from RunWith: %v", pq.Name, alg, w.name, err)
				}
			}
		}
	}
}

// A standalone document is a one-member corpus: the same bytes loaded through
// LoadXMLString and through LoadCorpus answer fn:doc and fn:collection()
// queries alike, whether the corpus is run as a whole or through its member
// view.
func TestStandaloneDocumentIsOneMemberCorpus(t *testing.T) {
	const xml, uri = `<doc><a>x</a><b><a>y</a></b></doc>`, "mem://solo.xml"
	solo, err := LoadXMLString(xml)
	if err != nil {
		t.Fatal(err)
	}
	solo.SetURI(uri)
	corpus, err := LoadCorpus([]CorpusSource{{URI: uri, Data: []byte(xml)}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	same := func(Item) (string, bool) { return "", true }
	for _, src := range []string{
		`fn:doc("mem://solo.xml")//a`,
		`fn:collection()//a`,
		`for $d in fn:collection() return $d//b/a`,
		`count(fn:collection())`,
	} {
		q := MustPrepare(src)
		want, err := q.Run(solo, Staircase)
		if err != nil {
			t.Fatalf("%s: standalone: %v", src, err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: standalone document returned nothing", src)
		}
		whole, err := corpus.Run(q, Staircase)
		if err != nil {
			t.Fatalf("%s: corpus: %v", src, err)
		}
		if err := equivItems(want, whole, same, same); err != nil {
			t.Errorf("%s: one-member corpus differs from standalone document: %v", src, err)
		}
		view, err := q.Run(corpus.DocumentAt(0), Staircase)
		if err != nil {
			t.Fatalf("%s: member view: %v", src, err)
		}
		if err := equivItems(want, view, same, same); err != nil {
			t.Errorf("%s: member view differs from standalone document: %v", src, err)
		}
	}
	if _, err := MustPrepare(`fn:doc("mem://other.xml")//a`).Run(solo, Staircase); err == nil {
		t.Error("fn:doc of a URI the standalone document does not carry should fail")
	}
}

// LoadCorpus keeps no reference to its sources' data: overwriting every
// input byte once it returns leaves each member as a corpus loaded from
// copies serializes it.
func TestLoadCorpusRetainsNoInput(t *testing.T) {
	srcs := genCorpusSources(6, 11)
	srcs = append(srcs, CorpusSource{
		URI: "mem://entities.xml",
		Data: []byte(`<r xmlns="urn:d" xmlns:p="urn:p"><p:a p:k="v &amp; w" k="plain">clean<![CDATA[c<d]]>t &lt; u&#x41;</p:a>` +
			`<b xml:lang="en">text</b><?pi data?><!--note--></r>`),
	})
	copies := make([]CorpusSource, len(srcs))
	for i, s := range srcs {
		copies[i] = CorpusSource{URI: s.URI, Data: []byte(string(s.Data))}
	}
	want, err := LoadCorpus(copies, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	got, err := LoadCorpus(srcs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	for _, s := range srcs {
		for i := range s.Data {
			s.Data[i] = 'X'
		}
	}
	for i := 0; i < want.Len(); i++ {
		if w, g := want.DocumentAt(i).XML(), got.DocumentAt(i).XML(); w != g {
			t.Fatalf("member %d changed after its input was overwritten:\n%s\n%s", i, w, g)
		}
	}
}

// collectSink keeps the items pushed to it (a caller's sink, unlike the
// default collector, is pushed to item by item).
type collectSink struct{ items Sequence }

func (s *collectSink) Push(it Item) error { s.items = append(s.items, it); return nil }

// The one-worker fan-out streams each member's plan into the sink; with more
// workers member Sequences are merged in corpus order. Both deliver the same
// items, counts and errors over serve_corpus's query classes, with and
// without a row budget — whose cutoff is the exact corpus-order prefix either
// way — and name the same failing member.
func TestOneWorkerFanOutEqualsMerge(t *testing.T) {
	srcs := genCorpusSources(24, 11)
	srcs = append(srcs, CorpusSource{URI: "mem://needle.xml", Data: []byte(`<r><needle><pin>1</pin><pin>2</pin></needle></r>`)})
	corpus, err := LoadCorpus(srcs, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Close()
	for _, query := range []string{
		`$input//needle/pin`,
		`$input//t01[t02]`,
		`$input//person[emailaddress]/name`,
		`for $p in $input/site/people/person where $p/emailaddress return ($p/name, $p/profile/interest)`,
		`fn:collection()//person[emailaddress]/name`,
		`for $p in $input//person return $p/name + 1`, // fails in the first member that has a person
	} {
		q := MustPrepare(query)
		for _, maxRows := range []int64{0, 1, 5, 50} {
			var seqs [2]Sequence
			var infos [2]RunInfo
			var errs [2]error
			var pushed [2]Sequence
			for i, workers := range []int{1, 4} {
				seqs[i], infos[i], errs[i] = corpus.RunWith(context.Background(), q, Auto, RunOptions{Workers: workers, MaxRows: maxRows})
				var col collectSink
				_, sinkInfo, sinkErr := corpus.RunWith(context.Background(), q, Auto, RunOptions{Workers: workers, MaxRows: maxRows, Sink: &col})
				pushed[i] = col.items
				// A stopped run skipped as many members as it got to: only a
				// complete run's Skipped is comparable.
				if errs[i] != nil {
					infos[i].Skipped, sinkInfo.Skipped = 0, 0
				}
				if sinkInfo != infos[i] || fmt.Sprint(sinkErr) != fmt.Sprint(errs[i]) {
					t.Errorf("%s MaxRows=%d workers=%d: a sink changed the run: %+v, %v vs %+v, %v", query, maxRows, workers, sinkInfo, sinkErr, infos[i], errs[i])
				}
				if err := sameItems(seqs[i], pushed[i]); err != nil && errs[i] == nil {
					t.Errorf("%s MaxRows=%d workers=%d: pushed items differ from collected ones: %v", query, maxRows, workers, err)
				}
			}
			if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
				t.Errorf("%s MaxRows=%d: errors differ: %v vs %v", query, maxRows, errs[0], errs[1])
			}
			if errs[0] != nil && !errors.Is(errs[0], ErrBudgetExceeded) {
				if !strings.HasPrefix(errs[0].Error(), "collection: mem://corpus-") {
					t.Errorf("%s: member failure not attributed to its member: %v", query, errs[0])
				}
				continue // how much a failing run delivered first is not pinned
			}
			if infos[0] != infos[1] {
				t.Errorf("%s MaxRows=%d: run info differs: %+v vs %+v", query, maxRows, infos[0], infos[1])
			}
			if err := sameItems(seqs[0], seqs[1]); err != nil {
				t.Errorf("%s MaxRows=%d: workers 1 vs 4: %v", query, maxRows, err)
			}
			if err := sameItems(pushed[0], pushed[1]); err != nil {
				t.Errorf("%s MaxRows=%d: workers 1 vs 4 into a sink: %v", query, maxRows, err)
			}
			if maxRows > 0 && errs[0] != nil && int64(len(seqs[0])) != maxRows {
				t.Errorf("%s MaxRows=%d: %d items delivered with %v", query, maxRows, len(seqs[0]), errs[0])
			}
		}
	}
}
