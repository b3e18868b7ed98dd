package join

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xdm/xdmref"
	"xqtp/internal/xmlstore"
)

const twigDoc = `<a>
  <b id="1"><c><d/></c></b>
  <b><c/></b>
  <c><b><c><d/><d/></c></b></c>
  <b id="2"><d/></b>
</a>`

func mustIndex(t *testing.T, doc string) *xmlstore.Index {
	t.Helper()
	tr, err := xmlstore.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	return xmlstore.BuildIndex(tr)
}

// chain builds a linear pattern from (axis, test) pairs with the output on
// the last step.
func chain(field string, steps ...*pattern.Step) *pattern.Pattern {
	for i := 0; i < len(steps)-1; i++ {
		steps[i].Next = steps[i+1]
	}
	steps[len(steps)-1].Out = "out"
	return pattern.New(field, steps[0])
}

func st(axis xdm.Axis, name string) *pattern.Step {
	return pattern.NewStep(axis, xdm.NameTest(name))
}

// eval is Prepare followed by EvalCtx.
func eval(alg Algorithm, ix *xmlstore.Index, ctx *xdm.Node, pat *pattern.Pattern) ([]Binding, error) {
	p, err := Prepare(alg, ix, pat)
	if err != nil {
		return nil, err
	}
	return p.EvalCtx(nil, ctx), nil
}

// evalFirst is Prepare followed by AppendFirstFor from ctx alone, resolved to
// the first of the appended bindings in document order.
func evalFirst(alg Algorithm, ix *xmlstore.Index, ctx *xdm.Node, pat *pattern.Pattern) (Binding, bool, error) {
	p, err := Prepare(alg, ix, pat)
	if err != nil {
		return nil, false, err
	}
	ranks, _ := p.AppendFirstFor(nil, []int32{int32(ctx.Pre)}, nil, nil)
	nf := len(p.OutputFields())
	if len(ranks) == 0 {
		return nil, false, nil
	}
	first := ranks[:nf]
	for i := nf; i < len(ranks); i += nf {
		if slices.Compare(ranks[i:i+nf], first) < 0 {
			first = ranks[i : i+nf]
		}
	}
	b := make(Binding, nf)
	for i, r := range first {
		b[i] = ix.Tree.Node(r)
	}
	return b, true, nil
}

func evalNodes(t *testing.T, alg Algorithm, ix *xmlstore.Index, ctx *xdm.Node, p *pattern.Pattern) []*xdm.Node {
	t.Helper()
	bs, err := eval(alg, ix, ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*xdm.Node, len(bs))
	for i, b := range bs {
		if len(b) != 1 {
			t.Fatalf("binding width %d", len(b))
		}
		out[i] = b[0]
	}
	return out
}

func TestAlgorithmsOnFixedPatterns(t *testing.T) {
	ix := mustIndex(t, twigDoc)
	ctx := ix.Tree.RootNode()
	cases := []struct {
		name string
		pat  *pattern.Pattern
		want int // distinct matched nodes
	}{
		{"desc-b", chain("dot", st(xdm.AxisDescendant, "b")), 4},
		{"desc-c", chain("dot", st(xdm.AxisDescendant, "c")), 4},
		{"desc-b/child-c", chain("dot", st(xdm.AxisDescendant, "b"), st(xdm.AxisChild, "c")), 3},
		{"desc-c/desc-d", chain("dot", st(xdm.AxisDescendant, "c"), st(xdm.AxisDescendant, "d")), 3},
		{"desc-b/child-c/child-d", chain("dot", st(xdm.AxisDescendant, "b"), st(xdm.AxisChild, "c"), st(xdm.AxisChild, "d")), 3},
	}
	distinct := func(ns []*xdm.Node) map[*xdm.Node]bool {
		set := map[*xdm.Node]bool{}
		for _, n := range ns {
			set[n] = true
		}
		return set
	}
	for _, tc := range cases {
		var ref map[*xdm.Node]bool
		for _, alg := range []Algorithm{NestedLoop, Staircase, Twig} {
			// NL reports one binding per match path (duplicates across
			// nested contexts possible; the operator dedupes); compare
			// distinct node sets.
			got := distinct(evalNodes(t, alg, ix, ctx, tc.pat.Clone()))
			if len(got) != tc.want {
				t.Errorf("%s/%s: got %d distinct nodes, want %d", tc.name, alg, len(got), tc.want)
			}
			if alg == NestedLoop {
				ref = got
				continue
			}
			for n := range got {
				if !ref[n] {
					t.Errorf("%s/%s: node %v not in NL result", tc.name, alg, n)
				}
			}
			for n := range ref {
				if !got[n] {
					t.Errorf("%s/%s: node %v missing", tc.name, alg, n)
				}
			}
		}
	}
}

func TestPredicateBranches(t *testing.T) {
	ix := mustIndex(t, twigDoc)
	ctx := ix.Tree.RootNode()
	// descendant::b[child::c[child::d]] — twig with nested branch.
	p := chain("dot", st(xdm.AxisDescendant, "b"))
	inner := st(xdm.AxisChild, "c")
	inner.Preds = []*pattern.Step{st(xdm.AxisChild, "d")}
	p.Root.Preds = []*pattern.Step{inner}
	for _, alg := range []Algorithm{NestedLoop, Staircase, Twig} {
		got := evalNodes(t, alg, ix, ctx, p.Clone())
		if len(got) != 2 { // b(id=1) and the inner b
			t.Errorf("%s: got %d matches, want 2", alg, len(got))
		}
	}
	// Attribute predicate: descendant::b[@id].
	p2 := chain("dot", st(xdm.AxisDescendant, "b"))
	p2.Root.Preds = []*pattern.Step{pattern.NewStep(xdm.AxisAttribute, xdm.NameTest("id"))}
	for _, alg := range []Algorithm{NestedLoop, Staircase, Twig} {
		got := evalNodes(t, alg, ix, ctx, p2.Clone())
		if len(got) != 2 {
			t.Errorf("%s @id: got %d matches, want 2", alg, len(got))
		}
	}
}

func TestEvalFirst(t *testing.T) {
	ix := mustIndex(t, twigDoc)
	ctx := ix.Tree.RootNode()
	p := chain("dot", st(xdm.AxisChild, "a"), st(xdm.AxisChild, "b"), st(xdm.AxisChild, "c"))
	for _, alg := range []Algorithm{NestedLoop, Staircase, Twig} {
		b, ok, err := evalFirst(alg, ix, ctx, p.Clone())
		if err != nil || !ok {
			t.Fatalf("%s: %v ok=%v", alg, err, ok)
		}
		full := evalNodes(t, alg, ix, ctx, p.Clone())
		if b[0] != full[0] {
			t.Errorf("%s: EvalFirst = %v, full[0] = %v", alg, b[0], full[0])
		}
	}
	// No match.
	p2 := chain("dot", st(xdm.AxisChild, "zz"))
	if _, ok, _ := evalFirst(NestedLoop, ix, ctx, p2); ok {
		t.Error("EvalFirst on empty pattern returned a match")
	}
}

func TestOutputInPredicateRejected(t *testing.T) {
	ix := mustIndex(t, twigDoc)
	p := chain("dot", st(xdm.AxisDescendant, "b"))
	bad := st(xdm.AxisChild, "c")
	bad.Out = "leak"
	p.Root.Preds = []*pattern.Step{bad}
	if _, err := eval(NestedLoop, ix, ix.Tree.RootNode(), p); err == nil {
		t.Error("output annotation in predicate should be rejected")
	}
}

// randomPattern builds a random single-output pattern over tags a-d.
func randomPattern(rng *rand.Rand) *pattern.Pattern {
	tags := []string{"a", "b", "c", "d"}
	axes := []xdm.Axis{xdm.AxisChild, xdm.AxisDescendant}
	var mk func(depth int) *pattern.Step
	mk = func(depth int) *pattern.Step {
		s := pattern.NewStep(axes[rng.Intn(2)], xdm.NameTest(tags[rng.Intn(len(tags))]))
		if depth < 2 && rng.Intn(3) == 0 {
			s.Preds = append(s.Preds, mk(depth+1))
		}
		if depth < 2 && rng.Intn(4) == 0 {
			s.Preds = append(s.Preds, mk(depth+1))
		}
		return s
	}
	spine := 1 + rng.Intn(3)
	first := mk(0)
	cur := first
	for i := 1; i < spine; i++ {
		cur.Next = mk(0)
		cur = cur.Next
	}
	cur.Out = "out"
	return pattern.New("dot", first)
}

func randomTree(rng *rand.Rand, n int) *xdm.Tree {
	tags := []string{"a", "b", "c", "d"}
	root := xdmref.NewElement("a")
	nodes := []*xdmref.Node{root}
	for i := 0; i < n; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		el := xdmref.NewElement(tags[rng.Intn(len(tags))])
		parent.AppendChild(el)
		nodes = append(nodes, el)
	}
	return xdmref.Finalize(root).Tree
}

// Property: the three algorithms agree (as node sets) on random patterns
// over random documents, from random context nodes.
func TestAlgorithmAgreementProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 3+rng.Intn(80))
		ix := xmlstore.BuildIndex(tr)
		ctx := tr.Nodes()[rng.Intn(len(tr.Nodes()))]
		if ctx.Kind == xdm.AttributeNode {
			ctx = tr.RootNode()
		}
		pat := randomPattern(rng)
		nl, err := eval(NestedLoop, ix, ctx, pat)
		if err != nil {
			return false
		}
		ref := map[*xdm.Node]bool{}
		for _, b := range nl {
			ref[b[0]] = true
		}
		for _, alg := range []Algorithm{Staircase, Twig} {
			got, err := eval(alg, ix, ctx, pat)
			if err != nil {
				return false
			}
			if len(got) < len(ref) {
				// Set-at-a-time algorithms return duplicate-free results;
				// NL can repeat nodes across nested contexts. Compare sets.
			}
			seen := map[*xdm.Node]bool{}
			for _, b := range got {
				if !ref[b[0]] {
					t.Logf("seed %d: %s returned extra node %v for %s", seed, alg, b[0], pat)
					return false
				}
				seen[b[0]] = true
			}
			if len(seen) != len(ref) {
				t.Logf("seed %d: %s returned %d distinct nodes, NL %d, pattern %s", seed, alg, len(seen), len(ref), pat)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: SC and Twig results are in document order and duplicate-free.
func TestSetAlgorithmsOrderedProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 3+rng.Intn(60))
		ix := xmlstore.BuildIndex(tr)
		pat := randomPattern(rng)
		for _, alg := range []Algorithm{Staircase, Twig} {
			got, err := eval(alg, ix, tr.RootNode(), pat)
			if err != nil {
				return false
			}
			for i := 1; i < len(got); i++ {
				if xdm.CompareOrder(got[i-1][0], got[i][0]) >= 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
