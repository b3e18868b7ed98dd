package join

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

func TestStreamingFixed(t *testing.T) {
	ix := mustIndex(t, twigDoc)
	ctx := ix.Tree.RootNode()
	cases := []struct {
		pat  *pattern.Pattern
		want int
	}{
		{chain("dot", st(xdm.AxisDescendant, "b")), 4},
		{chain("dot", st(xdm.AxisDescendant, "b"), st(xdm.AxisChild, "c")), 3},
		{chain("dot", st(xdm.AxisDescendant, "c"), st(xdm.AxisDescendant, "d")), 3},
		{chain("dot", st(xdm.AxisChild, "a"), st(xdm.AxisChild, "b"), st(xdm.AxisChild, "d")), 1},
		{chain("dot", st(xdm.AxisChild, "zz")), 0},
	}
	for _, tc := range cases {
		got := evalNodes(t, Streaming, ix, ctx, tc.pat.Clone())
		if len(got) != tc.want {
			t.Errorf("%s: got %d nodes, want %d", tc.pat, len(got), tc.want)
		}
		if !xdm.IsDocOrdered(xdm.SequenceOf(got)) {
			t.Errorf("%s: streaming result not in document order", tc.pat)
		}
	}
	// Star tests.
	star := chain("dot", st(xdm.AxisDescendant, "b"), pattern.NewStep(xdm.AxisChild, xdm.StarTest()))
	got := evalNodes(t, Streaming, ix, ctx, star)
	nl := evalNodes(t, NestedLoop, ix, ctx, star.Clone())
	set := map[*xdm.Node]bool{}
	for _, n := range nl {
		set[n] = true
	}
	if len(got) != len(set) {
		t.Errorf("star pattern: streaming %d distinct, NL %d", len(got), len(set))
	}
}

// Property: streaming agrees with the nested loop on random linear
// patterns (predicate-bearing patterns fall back to NL and trivially
// agree).
func TestStreamingAgreementProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 3+rng.Intn(80))
		ix := xmlstore.BuildIndex(tr)
		ctx := tr.Nodes()[rng.Intn(len(tr.Nodes()))]
		if ctx.Kind == xdm.AttributeNode {
			ctx = tr.RootNode()
		}
		// Linear pattern only.
		tags := []string{"a", "b", "c", "d"}
		axes := []xdm.Axis{xdm.AxisChild, xdm.AxisDescendant}
		first := pattern.NewStep(axes[rng.Intn(2)], xdm.NameTest(tags[rng.Intn(4)]))
		cur := first
		for i := rng.Intn(3); i > 0; i-- {
			cur.Next = pattern.NewStep(axes[rng.Intn(2)], xdm.NameTest(tags[rng.Intn(4)]))
			cur = cur.Next
		}
		cur.Out = "out"
		pat := pattern.New("dot", first)

		nl, err := eval(NestedLoop, ix, ctx, pat)
		if err != nil {
			return false
		}
		ref := map[*xdm.Node]bool{}
		for _, b := range nl {
			ref[b[0]] = true
		}
		got, err := eval(Streaming, ix, ctx, pat)
		if err != nil {
			return false
		}
		if len(got) != len(ref) {
			return false
		}
		for _, b := range got {
			if !ref[b[0]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestStreamingEdgeCases pins the scan's boundary behavior: an empty
// document (childless root element), a root-only single-step pattern, the
// unconstrained //* pattern, and a spine whose final step matches nothing
// even though every earlier step matches.
func TestStreamingEdgeCases(t *testing.T) {
	t.Run("empty-document", func(t *testing.T) {
		ix := mustIndex(t, `<a/>`)
		// The root element has no subtree to scan.
		if got := evalNodes(t, Streaming, ix, ix.Tree.RootNode(), chain("dot", st(xdm.AxisDescendant, "b"))); len(got) != 0 {
			t.Errorf("//b on <a/> = %d nodes, want 0", len(got))
		}
		// The root element itself is still reachable from the document node.
		got := evalNodes(t, Streaming, ix, ix.Tree.RootNode(), chain("dot", st(xdm.AxisChild, "a")))
		if len(got) != 1 || got[0] != ix.Tree.DocElem() {
			t.Errorf("/a on <a/> = %v, want the root element", got)
		}
		// Evaluating from the (leaf) root element scans zero nodes.
		if got := evalNodes(t, Streaming, ix, ix.Tree.DocElem(), chain("dot", st(xdm.AxisChild, "a"))); len(got) != 0 {
			t.Errorf("/a from leaf element = %d nodes, want 0", len(got))
		}
	})
	t.Run("root-only-pattern", func(t *testing.T) {
		ix := mustIndex(t, twigDoc)
		got := evalNodes(t, Streaming, ix, ix.Tree.RootNode(), chain("dot", st(xdm.AxisChild, "a")))
		if len(got) != 1 || got[0] != ix.Tree.DocElem() {
			t.Errorf("single-step /a = %v, want the root element", got)
		}
	})
	t.Run("descendant-star", func(t *testing.T) {
		ix := mustIndex(t, twigDoc)
		pat := chain("dot", pattern.NewStep(xdm.AxisDescendant, xdm.StarTest()))
		got := evalNodes(t, Streaming, ix, ix.Tree.RootNode(), pat)
		elements := 0
		for _, n := range ix.Tree.Nodes() {
			if n.Kind == xdm.ElementNode {
				elements++
			}
		}
		if len(got) != elements {
			t.Errorf("//* = %d nodes, want every element (%d)", len(got), elements)
		}
		if !xdm.IsDocOrdered(xdm.SequenceOf(got)) {
			t.Error("//* result not in document order")
		}
	})
	t.Run("zero-match-final-step", func(t *testing.T) {
		ix := mustIndex(t, twigDoc)
		// desc::b/child::c matches; the trailing child::zz must empty the
		// result without tripping the subtree-skip bookkeeping.
		pat := chain("dot", st(xdm.AxisDescendant, "b"), st(xdm.AxisChild, "c"), st(xdm.AxisChild, "zz"))
		if got := evalNodes(t, Streaming, ix, ix.Tree.RootNode(), pat); len(got) != 0 {
			t.Errorf("//b/c/zz = %d nodes, want 0", len(got))
		}
	})
}

func TestStreamingFallsBack(t *testing.T) {
	ix := mustIndex(t, twigDoc)
	// Predicates are outside the streaming fragment: the fallback must
	// still answer correctly.
	p := chain("dot", st(xdm.AxisDescendant, "b"))
	p.Root.Preds = []*pattern.Step{st(xdm.AxisChild, "c")}
	got := evalNodes(t, Streaming, ix, ix.Tree.RootNode(), p)
	if len(got) != 3 {
		t.Errorf("fallback result = %d nodes, want 3", len(got))
	}
}
