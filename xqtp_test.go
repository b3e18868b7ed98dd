package xqtp

import (
	"context"
	"errors"
	"strings"
	"testing"
)

const personDoc = `<doc>
  <person><name>John</name><emailaddress>j@x</emailaddress></person>
  <person><name>Mary</name></person>
  <person>
    <person><name>Nested</name><emailaddress>n@x</emailaddress></person>
    <name>Outer</name>
    <emailaddress>o@x</emailaddress>
  </person>
</doc>`

func values(t *testing.T, s Sequence) []string {
	t.Helper()
	out := make([]string, len(s))
	for i, it := range s {
		if n, ok := it.(*Node); ok {
			out[i] = n.StringValue()
		} else {
			out[i] = ItemString(it)
		}
	}
	return out
}

func TestQuickstart(t *testing.T) {
	doc, err := LoadXMLString(personDoc)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Prepare(`$d//person[emailaddress]/name`)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		items, err := q.Run(doc, alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got := strings.Join(values(t, items), ","); got != "John,Nested,Outer" {
			t.Errorf("%v: %s", alg, got)
		}
	}
	if q.TreePatterns() != 1 {
		t.Errorf("Q1a should compile to one tree pattern, got %d:\n%s", q.TreePatterns(), q.Plan())
	}
}

func TestFigure1QueriesRun(t *testing.T) {
	doc, err := LoadXMLString(personDoc)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"Q1a": "John,Nested,Outer",
		"Q1b": "John,Nested,Outer",
		"Q1c": "John,Nested,Outer",
		"Q2":  "j@x",
		"Q3":  "John",
		"Q4":  "j@x",
		"Q5":  "John,Outer,Nested",
	}
	for _, pq := range Figure1Queries {
		q, err := Prepare(pq.Query)
		if err != nil {
			t.Fatalf("%s: %v", pq.Name, err)
		}
		for _, alg := range Algorithms {
			items, err := q.Run(doc, alg)
			if err != nil {
				t.Fatalf("%s/%v: %v", pq.Name, alg, err)
			}
			if got := strings.Join(values(t, items), ","); got != want[pq.Name] {
				t.Errorf("%s/%v: got %s, want %s", pq.Name, alg, got, want[pq.Name])
			}
		}
	}
}

// §5.1 validation: every variant compiles to the identical plan containing
// exactly one TupleTreePattern, and all variants return identical results.
func TestFig4VariantValidation(t *testing.T) {
	variants := Fig4Variants()
	if len(variants) < 20 {
		t.Fatalf("only %d variants generated", len(variants))
	}
	doc := NewXMarkDocument(11, 60)
	var refPlan string
	var refResult string
	for i, v := range variants {
		q, err := Prepare(v)
		if err != nil {
			t.Fatalf("variant %d (%s): %v", i, v, err)
		}
		if q.TreePatterns() != 1 {
			t.Errorf("variant %d has %d tree patterns (%s):\n%s", i, q.TreePatterns(), v, q.Plan())
		}
		items, err := q.Run(doc, Staircase)
		if err != nil {
			t.Fatalf("variant %d run: %v", i, err)
		}
		res := strings.Join(values(t, items), "|")
		if i == 0 {
			refPlan = q.Plan()
			refResult = res
			continue
		}
		if q.Plan() != refPlan {
			t.Errorf("variant %d produced a different plan (%s):\n  %s\n  %s", i, v, refPlan, q.Plan())
		}
		if res != refResult {
			t.Errorf("variant %d produced different results (%s)", i, v)
		}
	}
	// The "standard engine" (no rewrites, no tree patterns) still computes
	// the same result, just without the operator.
	old, err := PrepareWithOptions(Fig4Query, StandardEngineOptions)
	if err != nil {
		t.Fatal(err)
	}
	if old.TreePatterns() != 0 {
		t.Errorf("standard engine should have no tree patterns")
	}
	items, err := old.Run(doc, NestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(values(t, items), "|"); got != refResult {
		t.Errorf("standard engine result differs")
	}
}

// PathVariants convergence holds for other child-step families too, with
// nested path predicates.
func TestPathVariantsOtherFamilies(t *testing.T) {
	families := []struct {
		steps []string
		pred  string
	}{
		{[]string{"people", "person", "name"}, ""},
		{[]string{"people", "person", "profile", "interest"}, "name"},
		{[]string{"regions", "australia", "item", "name"}, "quantity"},
	}
	for _, f := range families {
		variants := PathVariants("$input", f.steps, 1, f.pred)
		var ref string
		for i, v := range variants {
			q, err := Prepare(v)
			if err != nil {
				t.Fatalf("%v variant %d (%s): %v", f.steps, i, v, err)
			}
			if q.TreePatterns() != 1 {
				t.Errorf("%s: %d patterns:\n%s", v, q.TreePatterns(), q.Plan())
			}
			if i == 0 {
				ref = q.Plan()
			} else if q.Plan() != ref {
				t.Errorf("%v variant %d diverges (%s):\n  %s\n  %s", f.steps, i, v, ref, q.Plan())
			}
		}
	}
}

// A predicate whose input type is unknown at compile time keeps its runtime
// typeswitch: numeric values select positionally, node sets select
// existentially (XPath's dynamic predicate semantics).
func TestRuntimeTypeSwitch(t *testing.T) {
	doc, err := LoadXMLString(personDoc)
	if err != nil {
		t.Fatal(err)
	}
	q := MustPrepare(`$d//person[$k]/name`)
	if q.Operators()["TypeSwitch"] == 0 {
		t.Fatalf("typeswitch eliminated despite unknown type: %s", q.Plan())
	}
	vars := func(k Sequence) map[string]Sequence {
		return map[string]Sequence{
			"d": Sequence{doc.Root()}, "dot": Sequence{doc.Root()}, "k": k,
		}
	}
	// Numeric: positional.
	items, _, err := q.RunWith(context.Background(), doc, NestedLoop, RunOptions{Vars: vars(Sequence{Integer(2)})})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(values(t, items), ","); got != "Mary" {
		t.Errorf("person[$k=2] = %s", got)
	}
	// Boolean-ish: effective boolean value.
	items, _, err = q.RunWith(context.Background(), doc, NestedLoop, RunOptions{Vars: vars(Sequence{Bool(true)})})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 4 {
		t.Errorf("person[$k=true] returned %d names", len(items))
	}
}

// QE queries run identically under all three algorithms on a MemBeR
// document.
func TestQEQueriesAgree(t *testing.T) {
	doc := NewMemberDocumentNodes(5, 4, 100, 4000)
	for _, pq := range QEQueries {
		q, err := Prepare(pq.Query)
		if err != nil {
			t.Fatalf("%s: %v", pq.Name, err)
		}
		var ref string
		for _, alg := range Algorithms {
			items, err := q.Run(doc, alg)
			if err != nil {
				t.Fatalf("%s/%v: %v", pq.Name, alg, err)
			}
			res := strings.Join(values(t, items), "|")
			if ref == "" {
				ref = res
			} else if res != ref {
				t.Errorf("%s/%v disagrees", pq.Name, alg)
			}
		}
	}
}

// Fig. 6 pairs: the child and descendant forms return the same results on
// the XMark-like documents.
func TestFigure6PairsEquivalent(t *testing.T) {
	doc := NewXMarkDocument(2, 80)
	for _, pair := range Figure6Queries {
		qc := MustPrepare(pair.Child)
		qd := MustPrepare(pair.Descendant)
		for _, alg := range Algorithms {
			rc, err := qc.Run(doc, alg)
			if err != nil {
				t.Fatalf("%s child/%v: %v", pair.Name, alg, err)
			}
			rd, err := qd.Run(doc, alg)
			if err != nil {
				t.Fatalf("%s desc/%v: %v", pair.Name, alg, err)
			}
			if strings.Join(values(t, rc), "|") != strings.Join(values(t, rd), "|") {
				t.Errorf("%s/%v: child and descendant forms disagree", pair.Name, alg)
			}
		}
	}
}

// §5.3 chains return the spine nodes; all algorithms agree.
func TestSection53Chain(t *testing.T) {
	doc := NewDeepDocument(3, 5000, 15, "t1")
	for _, k := range []int{1, 5, 10, 14} {
		q, err := Prepare(Section53Query(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		var ref string
		for _, alg := range Algorithms {
			items, err := q.Run(doc, alg)
			if err != nil {
				t.Fatalf("k=%d/%v: %v", k, alg, err)
			}
			if len(items) != 1 {
				t.Fatalf("k=%d/%v: %d items, want 1 (spine)", k, alg, len(items))
			}
			res := ItemString(items[0])
			if ref == "" {
				ref = res
			} else if res != ref {
				t.Errorf("k=%d/%v disagrees", k, alg)
			}
		}
	}
}

// The standard engine (unrewritten, unoptimized plans) agrees with the
// full pipeline on every Fig. 1 query — the baseline is semantically
// faithful, just slower.
func TestStandardEngineAgrees(t *testing.T) {
	doc, err := LoadXMLString(personDoc)
	if err != nil {
		t.Fatal(err)
	}
	for _, pq := range Figure1Queries {
		newQ := MustPrepare(pq.Query)
		oldQ, err := PrepareWithOptions(pq.Query, StandardEngineOptions)
		if err != nil {
			t.Fatalf("%s: %v", pq.Name, err)
		}
		if oldQ.TreePatterns() != 0 {
			t.Errorf("%s: standard engine has tree patterns", pq.Name)
		}
		want, err := newQ.Run(doc, Staircase)
		if err != nil {
			t.Fatal(err)
		}
		got, err := oldQ.Run(doc, NestedLoop)
		if err != nil {
			t.Fatalf("%s standard: %v", pq.Name, err)
		}
		if strings.Join(values(t, want), "|") != strings.Join(values(t, got), "|") {
			t.Errorf("%s: standard engine disagrees", pq.Name)
		}
	}
	// And its plans are syntax-dependent: Q1a and Q1b differ.
	a, _ := PrepareWithOptions(Figure1Queries[0].Query, StandardEngineOptions)
	b, _ := PrepareWithOptions(Figure1Queries[1].Query, StandardEngineOptions)
	if a.Plan() == b.Plan() {
		t.Error("standard engine plans for Q1a and Q1b should differ")
	}
}

func TestExplainAndPhases(t *testing.T) {
	q := MustPrepare(`$d//person[emailaddress]/name`)
	ex := q.Explain()
	for _, want := range []string{"Normalized", "typeswitch", "TPNF", "TupleTreePattern", "MapFromItem"} {
		if !strings.Contains(ex, want) {
			t.Errorf("Explain missing %q", want)
		}
	}
	if !strings.Contains(q.UnoptimizedPlan(), "TreeJoin") {
		t.Error("UnoptimizedPlan should keep TreeJoins")
	}
	if !strings.Contains(q.Core(), "ddo") {
		t.Error("Core should contain ddo calls")
	}
	if !strings.Contains(q.Rewritten(), "for $") {
		t.Error("Rewritten should contain for loops")
	}
}

func TestDocumentAccessors(t *testing.T) {
	doc, err := LoadXMLString(`<a><b>x</b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.NumNodes() != 4 { // document, a, b, text
		t.Errorf("NumNodes = %d", doc.NumNodes())
	}
	if doc.SizeBytes() == 0 || !strings.Contains(doc.XML(), "<b>x</b>") {
		t.Errorf("serialization broken: %s", doc.XML())
	}
	if doc.Root().Kind.String() != "document" {
		t.Errorf("root kind = %s", doc.Root().Kind)
	}
}

func TestPrepareErrors(t *testing.T) {
	if _, err := Prepare(`$d//person[`); err == nil {
		t.Error("syntax error not reported")
	}
	if _, err := Prepare(`unknown-fn($d)`); err == nil {
		t.Error("unknown function not reported")
	}
}

// RunOptions.Vars binds free variables explicitly, composes with a row
// budget and a caller's sink, and on a Corpus run evaluates once with the
// corpus as resolver: bindings that reach two members give one result, not
// one per member.
func TestRunOptionsVars(t *testing.T) {
	ctx := context.Background()
	doc, _ := LoadXMLString(personDoc)
	q := MustPrepare(`$v//name`)
	first, err := MustPrepare(`$d//person[1]`).Run(doc, NestedLoop)
	if err != nil || len(first) != 1 {
		t.Fatal(err)
	}
	items, _, err := q.RunWith(ctx, doc, Staircase, RunOptions{Vars: map[string]Sequence{"v": first, "dot": first}})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(values(t, items), ","); got != "John" {
		t.Errorf("got %s", got)
	}

	persons, err := MustPrepare(`$d//person`).Run(doc, NestedLoop)
	if err != nil || len(persons) != 4 {
		t.Fatalf("%d persons, %v", len(persons), err)
	}
	vars := map[string]Sequence{"v": persons}
	for _, alg := range []Algorithm{NestedLoop, Staircase, Auto} {
		all, info, err := q.RunWith(ctx, doc, alg, RunOptions{Vars: vars})
		if got := strings.Join(values(t, all), ","); err != nil || got != "John,Mary,Nested,Outer" || info.Rows != 4 {
			t.Fatalf("%v: %s (%d rows), %v", alg, got, info.Rows, err)
		}
		var sink collectSink
		seq, info, err := q.RunWith(ctx, doc, alg, RunOptions{Vars: vars, MaxRows: 2, Sink: &sink})
		if !errors.Is(err, ErrBudgetExceeded) || seq != nil || info.Rows != 2 {
			t.Fatalf("%v: MaxRows 2 into a sink: seq %v, %d rows, %v", alg, seq, info.Rows, err)
		}
		if got := strings.Join(values(t, sink.items), ","); got != "John,Mary" {
			t.Errorf("%v: sink got %s, want the first two of the full result", alg, got)
		}
	}

	corpus, err := LoadCorpus([]CorpusSource{
		{URI: "a.xml", Data: []byte(`<a><n>1</n></a>`)},
		{URI: "b.xml", Data: []byte(`<a><n>2</n><n>3</n></a>`)},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Close()
	roots := map[string]Sequence{"x": {corpus.DocumentAt(0).Root(), corpus.DocumentAt(1).Root()}}
	for _, tc := range []struct{ text, want string }{
		{`$x//n`, "1,2,3"},
		{`count($x//n)`, "3"},
	} {
		cq := MustPrepare(tc.text)
		want, _, err := cq.RunWith(ctx, corpus.DocumentAt(0), Auto, RunOptions{Vars: roots})
		if err != nil || strings.Join(values(t, want), ",") != tc.want {
			t.Fatalf("%s on one member: %v, %v; want %s", tc.text, want, err, tc.want)
		}
		for _, workers := range []int{1, 4} {
			got, info, err := corpus.RunWith(ctx, cq, Auto, RunOptions{Workers: workers, Vars: roots})
			if err != nil {
				t.Fatal(err)
			}
			if g := strings.Join(values(t, got), ","); g != tc.want {
				t.Errorf("%s, %d workers: corpus run %s, want one evaluation's %s", tc.text, workers, g, tc.want)
			}
			if info.Rows != int64(len(want)) || info.Members != 2 || info.Skipped != 0 {
				t.Errorf("%s, %d workers: info %+v", tc.text, workers, info)
			}
		}
	}
}

// AppendItem is the one rendering path: it extends dst in place with exactly
// what SerializeItem returns, for nodes and atomics alike.
func TestAppendItemMatchesSerializeItem(t *testing.T) {
	doc, err := LoadXMLString(`<r><p id="a&quot;b">T&amp;C &lt;b&gt;</p><p/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{`$d//p`, `$d//p/@id`, `count($d//p)`, `string($d/r/p[1])`} {
		seq, err := MustPrepare(query).Run(doc, Auto)
		if err != nil || len(seq) == 0 {
			t.Fatalf("%s: %d items, %v", query, len(seq), err)
		}
		for _, it := range seq {
			if got, want := string(AppendItem([]byte("x"), it)), "x"+SerializeItem(it); got != want {
				t.Errorf("%s: AppendItem = %q, want %q", query, got, want)
			}
		}
	}
}

// Auto runs every Fig. 1 query correctly.
func TestAutoAlgorithm(t *testing.T) {
	doc, err := LoadXMLString(personDoc)
	if err != nil {
		t.Fatal(err)
	}
	for _, pq := range Figure1Queries {
		q := MustPrepare(pq.Query)
		want, err := q.Run(doc, Staircase)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.Run(doc, Auto)
		if err != nil {
			t.Fatalf("%s (Auto): %v", pq.Name, err)
		}
		if strings.Join(values(t, want), "|") != strings.Join(values(t, got), "|") {
			t.Errorf("%s: Auto disagrees with Staircase", pq.Name)
		}
	}
}
