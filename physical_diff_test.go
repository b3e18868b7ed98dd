package xqtp

import (
	"fmt"
	"sync"
	"testing"

	"xqtp/internal/xdm"
)

// physicalDiffCorpus is the full query corpus of the repository: the Fig. 1
// motivating queries, the Table 1 QE set, both forms of every Fig. 6 pair,
// the Fig. 4 path, a §5.3 positional chain, and the XMark catalog.
func physicalDiffCorpus() []PaperQuery {
	corpus := make([]PaperQuery, 0, 32)
	corpus = append(corpus, Figure1Queries...)
	corpus = append(corpus, QEQueries...)
	for _, pair := range Figure6Queries {
		corpus = append(corpus, PaperQuery{pair.Name + "-child", pair.Child})
		corpus = append(corpus, PaperQuery{pair.Name + "-desc", pair.Descendant})
	}
	corpus = append(corpus, PaperQuery{"Fig4", Fig4Query})
	corpus = append(corpus, PaperQuery{"Sec53-k3", Section53Query(3)})
	corpus = append(corpus, XMarkQueries...)
	return corpus
}

// sameItems requires item-for-item equality: identical node pointers for
// nodes, identical values for atomics.
func sameItems(a, b Sequence) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		an, aIsNode := a[i].(*xdm.Node)
		bn, bIsNode := b[i].(*xdm.Node)
		if aIsNode != bIsNode || (aIsNode && an != bn) || (!aIsNode && a[i] != b[i]) {
			return fmt.Errorf("item %d: %s vs %s", i, ItemString(a[i]), ItemString(b[i]))
		}
	}
	return nil
}

// The physical executor under every set-at-a-time algorithm and the cost
// based chooser matches the nested-loop oracle item for item, on every
// corpus query over both document families.
func TestPhysicalDifferentialCorpus(t *testing.T) {
	docs := []struct {
		name string
		doc  *Document
	}{
		{"xmark", NewXMarkDocument(7, 120)},
		{"member", NewMemberDocument(7, 150_000)},
	}
	algs := []Algorithm{Staircase, Twig, Auto, Streaming}
	for _, pq := range physicalDiffCorpus() {
		q, err := Prepare(pq.Query)
		if err != nil {
			t.Fatalf("%s: %v", pq.Name, err)
		}
		for _, d := range docs {
			oracle, err := q.Run(d.doc, NestedLoop)
			if err != nil {
				t.Fatalf("%s/%s/NL: %v", pq.Name, d.name, err)
			}
			for _, alg := range algs {
				got, err := q.Run(d.doc, alg)
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", pq.Name, d.name, alg, err)
				}
				if err := sameItems(oracle, got); err != nil {
					t.Errorf("%s/%s/%v differs from NL oracle: %v", pq.Name, d.name, alg, err)
				}
			}
		}
	}
}

// One compiled physical plan (one Query, one memoized lowering per
// algorithm) is shared by many goroutines running concurrently; every run
// must match the sequential oracle. Run under -race this exercises the
// plan's concurrency contract: immutable operators, per-call frames, and
// the atomic per-operator prepared-join cache.
func TestPhysicalPlanConcurrentRuns(t *testing.T) {
	doc := NewXMarkDocument(11, 100)
	q := MustPrepare(`$input//person[emailaddress]/name`)
	oracle, err := q.Run(doc, NestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	algs := []Algorithm{NestedLoop, Staircase, Twig, Auto}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		alg := algs[g%len(algs)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				got, err := q.Run(doc, alg)
				if err != nil {
					errs <- fmt.Errorf("%v: %v", alg, err)
					return
				}
				if err := sameItems(oracle, got); err != nil {
					errs <- fmt.Errorf("%v: %v", alg, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// The physical explain surfaces the compiled slot layout and, under Auto
// with a document, Auto's per-pattern choice.
func TestExplainPhysicalAnnotations(t *testing.T) {
	doc := NewXMarkDocument(3, 60)
	q := MustPrepare(`$input//person[emailaddress]/name`)
	fixed, err := q.ExplainPhysical(Staircase, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"physical plan:", "slots", "alg=SCJoin", "TupleTreePattern"} {
		if !contains(fixed, want) {
			t.Errorf("ExplainPhysical(SC) missing %q:\n%s", want, fixed)
		}
	}
	auto, err := q.ExplainPhysical(Auto, doc)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(auto, "alg=Auto→") {
		t.Errorf("ExplainPhysical(Auto, doc) missing Auto's choice:\n%s", auto)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// A first-match filter must return the document-order first of its path,
// under every algorithm. On this document the nested loop meets the matches
// of //a/b and //b/parent::a out of document order (the outer a's child b
// before the inner a's), so its lexically first binding is not the answer
// unless the spine is child-only.
func TestFirstMatchIsDocumentOrderFirst(t *testing.T) {
	doc, err := LoadXMLString(`<r><a><a><b>1</b></a><b>2</b></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{`($d//a/b)[1]`, `($d//b/parent::a)[1]`, `($d//a//b)[1]`, `($d//b/ancestor::a)[1]`} {
		std, err := PrepareWithOptions(text, StandardEngineOptions)
		if err != nil {
			t.Fatal(err)
		}
		want, err := std.Run(doc, NestedLoop)
		if err != nil || len(want) != 1 {
			t.Fatalf("%s: standard engine %v, %v", text, want, err)
		}
		q := MustPrepare(text)
		for _, alg := range []Algorithm{NestedLoop, Staircase, Twig, Streaming, Auto} {
			got, err := q.Run(doc, alg)
			if err != nil {
				t.Fatalf("%s/%v: %v", text, alg, err)
			}
			if err := sameItems(want, got); err != nil {
				t.Errorf("%s/%v: %v (standard engine first)", text, alg, err)
			}
		}
	}
}
