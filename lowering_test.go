package xqtp

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
)

// paperTexts is every query text the benchmark's compile_adhoc workload and
// the paper's experiments draw from: the lists the lowering-sensitive tests
// sweep.
func paperTexts() []string {
	var out []string
	for _, q := range Figure1Queries {
		out = append(out, q.Query)
	}
	for _, q := range QEQueries {
		out = append(out, q.Query)
	}
	for _, q := range XMarkQueries {
		out = append(out, q.Query)
	}
	out = append(out, Fig4Variants()...)
	out = append(out, PathVariants("$input", []string{"site", "people", "person", "name"}, 2, "emailaddress")...)
	out = append(out, PathVariants("$input", []string{"site", "open_auctions", "open_auction", "bidder", "increase"}, 0, "")...)
	out = append(out, PathVariants("$input", []string{"site", "closed_auctions", "closed_auction", "price"}, 0, "")...)
	out = append(out, PathVariants("$input", []string{"site", "people", "person", "profile", "interest"}, 0, "")...)
	for k := 1; k <= 8; k++ {
		out = append(out, Section53Query(k))
	}
	return out
}

// TestRequiredStepsSurviveLowering pins what the corpus skip test and the
// benchmark's probes read off a lowered plan — the required steps, the
// patterns and which of them are root-bound — to the values of the commit
// before MapToItem(TupleTreePattern) started lowering to one operator (the
// golden file is this test's rendering, written by a run at that commit). A
// lowering the analysis cannot see through admits every member: every answer
// stays right and only the benchmark notices.
func TestRequiredStepsSurviveLowering(t *testing.T) {
	const golden = "testdata/required_steps_pr18.golden"
	var b strings.Builder
	for _, text := range paperTexts() {
		q, err := Prepare(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		p, err := q.physicalPlan(Auto)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		fmt.Fprintf(&b, "%s\n  steps:", text)
		for _, s := range p.RequiredSteps() {
			if s.Attr {
				fmt.Fprintf(&b, " @%s", s.Name)
			} else {
				fmt.Fprintf(&b, " %s", s.Name)
			}
		}
		b.WriteString("\n  patterns:")
		for _, pat := range p.Patterns() {
			fmt.Fprintf(&b, " %s;", pat)
		}
		fmt.Fprintf(&b, "\n  root-bound: %v\n", p.RootBoundPatterns())
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("lowered plans diverge from %s at line %d:\n got  %q\n want %q", golden, i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("lowered plans diverge from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// itemKeys identifies a result across two parses of the same bytes: a node by
// its member's URI and its preorder rank, an atomic by its lexical value.
func itemKeys(c *Corpus, seq Sequence) []string {
	out := make([]string, len(seq))
	for i, it := range seq {
		if n, ok := it.(*Node); ok {
			uri, _ := c.URIOf(it)
			out[i] = fmt.Sprintf("%s#%d", uri, n.Pre)
		} else {
			out[i] = "=" + ItemString(it)
		}
	}
	return out
}

// TestLoweredPlansMatchOracle runs every paper text through every way a plan
// reaches a pattern operator in items mode — a Document run (the operator
// feeds the sink), the corpus fan-out at 1 and 4 workers (a member run
// collects its sequence) and the same text over fn:collection() (contexts
// from every member in one evaluation) — under every algorithm, against the
// benchmark's oracle: the query compiled without rewrites or tree patterns,
// evaluated by nested loops over a corpus parsed afresh from the same bytes.
func TestLoweredPlansMatchOracle(t *testing.T) {
	sources := func() []CorpusSource {
		return []CorpusSource{
			{URI: "mem://xmark.xml", Data: []byte(NewXMarkDocument(5, 24).XML())},
			{URI: "mem://member.xml", Data: []byte(NewMemberDocumentNodes(5, 4, 6, 600).XML())},
			{URI: "mem://deep.xml", Data: []byte(NewDeepDocument(5, 300, 10, "t1").XML())},
			{URI: "mem://xmark2.xml", Data: []byte(NewXMarkDocument(6, 9).XML())},
		}
	}
	corpus, err := LoadCorpus(sources(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Close()
	fresh, err := LoadCorpus(sources(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()

	algs := []Algorithm{NestedLoop, Staircase, Twig, Auto}
	check := func(label string, want []string, got Sequence, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: %v", label, err)
		} else if keys := itemKeys(corpus, got); fmt.Sprint(keys) != fmt.Sprint(want) {
			t.Errorf("%s: %d items %v, oracle %d items %v", label, len(keys), keys, len(want), want)
		}
	}
	nonEmpty := 0
	for _, text := range paperTexts() {
		shapes := []string{text}
		if over := strings.NewReplacer("$input", "fn:collection()", "$d", "fn:collection()").Replace(text); over != text {
			shapes = append(shapes, over)
		}
		for _, shape := range shapes {
			std, err := PrepareWithOptions(shape, StandardEngineOptions)
			if err != nil {
				t.Fatalf("oracle: %s: %v", shape, err)
			}
			q, err := Prepare(shape)
			if err != nil {
				t.Fatalf("%s: %v", shape, err)
			}
			oracle, err := fresh.Run(std, NestedLoop)
			if err != nil {
				t.Fatalf("oracle: %s: %v", shape, err)
			}
			want := itemKeys(fresh, oracle)
			nonEmpty += min(len(want), 1)
			for _, alg := range algs {
				for _, workers := range []int{1, 4} {
					got, _, err := corpus.RunWith(context.Background(), q, alg, RunOptions{Workers: workers})
					check(fmt.Sprintf("%s/%v/workers=%d", shape, alg, workers), want, got, err)
				}
			}
			if shape != text {
				continue
			}
			for i := 0; i < corpus.Len(); i++ {
				oracle, err := std.Run(fresh.DocumentAt(i), NestedLoop)
				if err != nil {
					t.Fatalf("oracle: %s on member %d: %v", shape, i, err)
				}
				want := itemKeys(fresh, oracle)
				for _, alg := range algs {
					got, err := q.Run(corpus.DocumentAt(i), alg)
					check(fmt.Sprintf("%s/%v/member %d", shape, alg, i), want, got, err)
				}
			}
		}
	}
	if nonEmpty < 150 {
		t.Errorf("only %d of the shapes returned anything: the documents do not exercise the queries", nonEmpty)
	}
}

// Dependent patterns over contexts that nest and repeat: a for clause keeps
// one evaluation per outer tuple — duplicates across tuples stay, in tuple
// order — while the same steps as one path are one pattern evaluation in
// distinct document order; explicit bindings can hand a pattern contexts from
// two documents in any order. The oracle is the engine without rewrites or
// tree patterns on the same nodes.
func TestDependentPatternsOverNestingContexts(t *testing.T) {
	const nested = `<r><a><b/><a><b/><b/></a></a><a><b/></a><c><a><b/></a></c></r>`
	doc, err := LoadXMLString(nested)
	if err != nil {
		t.Fatal(err)
	}
	other, err := LoadXMLString(`<r><b/><a><b/><a><b/></a></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	as, err := MustPrepare(`$input//a`).Run(doc, NestedLoop)
	if err != nil || len(as) != 4 {
		t.Fatalf("contexts: %d, %v", len(as), err)
	}
	bs, err := MustPrepare(`$input//a`).Run(other, NestedLoop)
	if err != nil || len(bs) != 2 {
		t.Fatalf("contexts: %d, %v", len(bs), err)
	}
	// The other document's contexts first, then this one's inner-first and
	// with a repeat.
	mixed := Sequence{bs[1], bs[0], as[1], as[0], as[3], as[1], as[2]}
	for _, tc := range []struct {
		text string
		vars map[string]Sequence
	}{
		{`for $x in $input//a return $x//b`, nil},
		{`for $x in $input//a return $x/b`, nil},
		{`for $x in $input//a, $y in $x//a return $y/b`, nil},
		{`$input//a//b`, nil},
		{`($input//a)//b`, nil},
		{`for $x in $input//a where $x//a return $x//b`, nil},
		{`$v//b`, map[string]Sequence{"v": mixed}},
		// (A for clause over $v itself is left out: the rewrites take every
		// free variable for a singleton and fold it into a path.)
		{`$v/b`, map[string]Sequence{"v": mixed}},
	} {
		std, err := PrepareWithOptions(tc.text, StandardEngineOptions)
		if err != nil {
			t.Fatal(err)
		}
		q := MustPrepare(tc.text)
		run := func(q *Query, alg Algorithm) (Sequence, error) {
			if tc.vars == nil {
				return q.Run(doc, alg)
			}
			seq, _, err := q.RunWith(context.Background(), doc, alg, RunOptions{Vars: tc.vars})
			return seq, err
		}
		want, err := run(std, NestedLoop)
		if err != nil || len(want) == 0 {
			t.Fatalf("oracle: %s: %d items, %v", tc.text, len(want), err)
		}
		for _, alg := range []Algorithm{NestedLoop, Staircase, Twig, Auto} {
			got, err := run(q, alg)
			if err != nil {
				t.Errorf("%s/%v: %v", tc.text, alg, err)
			} else if err := sameItems(want, got); err != nil {
				t.Errorf("%s/%v differs from the oracle: %v", tc.text, alg, err)
			}
		}
	}
}
