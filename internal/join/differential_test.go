package join

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xqtp/internal/gen"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// The differential tests pin the integer kernels to the nested-loop
// evaluator: for every pattern, document and context, the rank sequence an
// integer kernel returns must be byte-for-byte the nested loop's result after
// document-order sort and duplicate elimination — same pre ranks, same order.
// The nested loop touches no rank stream (it navigates context by context
// through xdm.EachStepRank, which TestStepMatchesPointerReference holds to the
// pointer data model's step), so agreement here checks the index streams and
// the kernels against an independent implementation.

// rankSeq extracts the pre ranks of single-output bindings, in result order.
func rankSeq(t *testing.T, bs []Binding) []int32 {
	t.Helper()
	out := make([]int32, len(bs))
	for i, b := range bs {
		if len(b) != 1 {
			t.Fatalf("binding width %d", len(b))
		}
		out[i] = int32(b[0].Pre)
	}
	return out
}

// nlReference evaluates the pattern with the nested loop and returns the
// reference rank sequence: sorted, duplicate-free.
func nlReference(t *testing.T, ix *xmlstore.Index, ctx *xdm.Node, pat *pattern.Pattern) []int32 {
	t.Helper()
	bs, err := eval(NestedLoop, ix, ctx, pat)
	if err != nil {
		t.Fatal(err)
	}
	ranks := rankSeq(t, bs)
	slices.Sort(ranks)
	return slices.Compact(ranks)
}

// checkKernels evaluates the pattern under every applicable integer kernel
// and compares the exact rank sequence against the nested-loop reference.
func checkKernels(t *testing.T, label string, ix *xmlstore.Index, ctx *xdm.Node, pat *pattern.Pattern) {
	t.Helper()
	want := nlReference(t, ix, ctx, pat)
	for _, alg := range []Algorithm{Staircase, Twig} {
		p, err := Prepare(alg, ix, pat)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, alg, err)
		}
		got := rankSeq(t, p.EvalCtx(nil, ctx))
		if !slices.Equal(got, want) {
			t.Errorf("%s/%s from pre=%d: ranks %v, nested loop %v (pattern %s)",
				label, alg, ctx.Pre, got, want, pat)
		}
		// The kernel's own exit, in ranks, behind whatever dst already holds.
		if ranks := p.AppendRanks(nil, ctx, []int32{-1}); ranks[0] != -1 || !slices.Equal(ranks[1:], got) {
			t.Errorf("%s/%s from pre=%d: AppendRanks %v, Eval's ranks %v (pattern %s)",
				label, alg, ctx.Pre, ranks, got, pat)
		}
	}
}

// corpusDocs are hand-picked edge-shape documents: a childless root, an
// attribute-only element, text between elements, repeated tags at multiple
// depths, and tag-equal nesting (ancestor and descendant share the name).
var corpusDocs = []string{
	`<a/>`,
	`<a id="1" class="x"/>`,
	`<a>text<b/>more<c/>tail</a>`,
	`<a><b><a><b><a/></b></a></b></a>`,
	`<a><b x="1"/><b x="2"><c/></b><c><b/></c></a>`,
	twigDoc,
	// Same-name elements nest recursively, so that a candidate failing a
	// descendant branch covers candidates inside it, and a descendant
	// step's entry failing the rest of its branch covers entries inside it.
	`<a><b><a><b><a k="2"><c/></a></b></a><c>t</c></b><b id="1"><b><d/></b><a><a><b/></a></a></b></a>`,
	`<r><a k="1"><a><b><c/></b></a><b/></a><a><x><b><c/></b></x></a><a><b/><y><c/></y></a></r>`,
}

// corpusPatterns builds the fixed pattern set run against every corpus
// document: linear spines, star tests, predicate branches (branchPatterns)
// and attribute steps over the corpus tags.
func corpusPatterns() []*pattern.Pattern {
	mk := func(steps ...*pattern.Step) *pattern.Pattern { return chain("dot", steps...) }
	withPred := func(p *pattern.Pattern, pred *pattern.Step) *pattern.Pattern {
		p.Root.Preds = []*pattern.Step{pred}
		return p
	}
	return append([]*pattern.Pattern{
		mk(st(xdm.AxisChild, "a")),
		mk(st(xdm.AxisDescendant, "a")),
		mk(st(xdm.AxisDescendant, "b")),
		mk(pattern.NewStep(xdm.AxisDescendant, xdm.StarTest())),
		mk(st(xdm.AxisDescendant, "a"), st(xdm.AxisChild, "b")),
		mk(st(xdm.AxisDescendant, "b"), st(xdm.AxisDescendant, "a")),
		mk(st(xdm.AxisChild, "a"), st(xdm.AxisChild, "b"), st(xdm.AxisChild, "c")),
		mk(st(xdm.AxisDescendant, "zz")),
		mk(st(xdm.AxisDescendant, "a"), st(xdm.AxisChild, "zz")),
		withPred(mk(st(xdm.AxisDescendant, "b")), st(xdm.AxisChild, "c")),
		withPred(mk(st(xdm.AxisDescendant, "b")), pattern.NewStep(xdm.AxisAttribute, xdm.NameTest("x"))),
		withPred(mk(st(xdm.AxisDescendant, "a")), st(xdm.AxisDescendant, "a")),
	}, branchPatterns()...)
}

// branchPatterns are corpusPatterns' predicate-branch shapes: branches of
// two and three steps, nested predicates, descendant-or-self, self,
// attribute, star and text() branches, several branches on one step,
// predicates on more than one spine step, and the spine's self and
// attribute steps behind a predicate.
func branchPatterns() []*pattern.Pattern {
	mk := func(steps ...*pattern.Step) *pattern.Pattern { return chain("dot", steps...) }
	path := func(steps ...*pattern.Step) *pattern.Step {
		for i := 0; i < len(steps)-1; i++ {
			steps[i].Next = steps[i+1]
		}
		return steps[0]
	}
	with := func(s *pattern.Step, preds ...*pattern.Step) *pattern.Step {
		s.Preds = append(s.Preds, preds...)
		return s
	}
	ch := func(name string) *pattern.Step { return st(xdm.AxisChild, name) }
	de := func(name string) *pattern.Step { return st(xdm.AxisDescendant, name) }
	dos := func(test xdm.NodeTest) *pattern.Step { return pattern.NewStep(xdm.AxisDescendantOrSelf, test) }
	attr := func(name string) *pattern.Step { return pattern.NewStep(xdm.AxisAttribute, xdm.NameTest(name)) }
	self := func(name string) *pattern.Step { return pattern.NewStep(xdm.AxisSelf, xdm.NameTest(name)) }
	star := func(axis xdm.Axis) *pattern.Step { return pattern.NewStep(axis, xdm.StarTest()) }
	text := func(axis xdm.Axis) *pattern.Step { return pattern.NewStep(axis, xdm.TextTest()) }
	return []*pattern.Pattern{
		mk(with(de("a"), path(ch("b"), ch("c")))),                         // a[b/c]
		mk(with(de("a"), path(de("b"), ch("c")))),                         // a[.//b/c]
		mk(with(de("a"), path(ch("b"), de("c")))),                         // a[b//c]
		mk(with(de("a"), path(de("a"), de("c")))),                         // a[.//a//c]
		mk(with(de("a"), path(de("b"), de("d")))),                         // a[.//b//d]
		mk(with(de("a"), path(ch("b"), ch("c"), ch("d")))),                // a[b/c/d]
		mk(with(de("a"), path(de("b"), ch("b"), de("d")))),                // a[.//b/b//d]
		mk(with(de("a"), with(ch("b"), ch("c")))),                         // a[b[c]]
		mk(with(de("a"), path(with(de("b"), ch("c")), ch("d")))),          // a[.//b[c]/d]
		mk(with(de("a"), path(with(de("b"), de("d")), ch("d")))),          // a[.//b[.//d]/d]
		mk(with(de("a"), with(de("a"), with(de("b"), de("c"))))),          // a[.//a[.//b[.//c]]]
		mk(with(de("a"), dos(xdm.NameTest("b")))),                         // a[descendant-or-self::b]
		mk(with(de("a"), path(dos(xdm.NameTest("a")), ch("c")))),          // a[descendant-or-self::a/c]
		mk(with(de("b"), path(dos(xdm.AnyNodeTest()), ch("d")))),          // b[.//d] the long way
		mk(with(de("b"), self("b"))),                                      // b[self::b]
		mk(with(de("b"), self("a"))),                                      // b[self::a]
		mk(with(de("a"), attr("k"))),                                      // a[@k]
		mk(with(de("a"), path(ch("b"), attr("id")))),                      // a[b/@id]
		mk(with(de("a"), path(de("a"), attr("k")))),                       // a[.//a/@k]
		mk(with(de("a"), star(xdm.AxisChild))),                            // a[*]
		mk(with(de("a"), path(star(xdm.AxisDescendant), ch("c")))),        // a[.//*/c]
		mk(with(de("b"), star(xdm.AxisAttribute))),                        // b[@*]
		mk(with(de("b"), text(xdm.AxisChild))),                            // b[text()]
		mk(with(de("a"), text(xdm.AxisDescendant))),                       // a[.//text()]
		mk(with(de("a"), path(ch("c"), text(xdm.AxisChild)))),             // a[c/text()]
		mk(with(de("a"), ch("b"), de("c"))),                               // a[b][.//c]
		mk(with(de("a"), de("d"), de("c"), attr("k"))),                    // a[.//d][.//c][@k]
		mk(with(de("a"), de("b"), ch("zz"))),                              // a[.//b][zz]
		mk(with(de("a"), de("b")), with(ch("b"), ch("c"))),                // a[.//b]/b[c]
		mk(de("a"), with(de("b"), de("d"))),                               // a//b[.//d]
		mk(with(ch("a"), de("c")), with(de("b"), path(de("a"), de("c")))), // a[.//c]//b[.//a//c]
		mk(de("b"), with(self("b"), ch("d"))),                             // b/self::b[d]
		mk(with(de("b"), de("d")), attr("id")),                            // b[.//d]/@id
	}
}

func TestDifferentialCorpus(t *testing.T) {
	for di, doc := range corpusDocs {
		ix := mustIndex(t, doc)
		for pi, pat := range corpusPatterns() {
			label := "doc" + string(rune('0'+di)) + "/pat" + string(rune('0'+pi))
			// From the document node and from every element.
			checkKernels(t, label, ix, ix.Tree.RootNode(), pat.Clone())
			for _, n := range ix.Tree.Nodes() {
				if n.Kind == xdm.ElementNode {
					checkKernels(t, label, ix, n, pat.Clone())
				}
			}
		}
	}
}

// TestDifferentialRandomTrees fuzzes the kernels over random tree shapes,
// random patterns and random element contexts.
func TestDifferentialRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		tr := randomTree(rng, 3+rng.Intn(100))
		ix := xmlstore.BuildIndex(tr)
		pat := randomPattern(rng)
		ctx := tr.Nodes()[rng.Intn(len(tr.Nodes()))]
		if ctx.Kind != xdm.ElementNode && ctx.Kind != xdm.DocumentNode {
			ctx = tr.RootNode()
		}
		checkKernels(t, "random", ix, ctx, pat)
	}
}

// xmarkTags are element names that occur in the generated XMark documents.
var xmarkTags = []string{
	"site", "people", "person", "profile", "interest", "name",
	"open_auctions", "open_auction", "bidder", "increase",
	"regions", "item", "description", "text", "emailaddress",
}

// randomXMarkPattern builds a random pattern over XMark tag names.
func randomXMarkPattern(rng *rand.Rand) *pattern.Pattern {
	axes := []xdm.Axis{xdm.AxisChild, xdm.AxisDescendant}
	mk := func() *pattern.Step {
		if rng.Intn(8) == 0 {
			return pattern.NewStep(axes[rng.Intn(2)], xdm.StarTest())
		}
		return st(axes[rng.Intn(2)], xmarkTags[rng.Intn(len(xmarkTags))])
	}
	first := mk()
	cur := first
	for n := rng.Intn(3); n > 0; n-- {
		cur.Next = mk()
		cur = cur.Next
	}
	if rng.Intn(2) == 0 {
		cur.Preds = append(cur.Preds, mk())
	}
	cur.Out = "out"
	return pattern.New("dot", first)
}

// TestDifferentialXMarkFragments fuzzes the kernels over fragments of an
// XMark document: random subtree roots serve as evaluation contexts.
func TestDifferentialXMarkFragments(t *testing.T) {
	tr := gen.XMark(gen.XMarkConfig{Seed: 11, People: 40})
	ix := xmlstore.BuildIndex(tr)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 150; trial++ {
		pat := randomXMarkPattern(rng)
		ctx := tr.Nodes()[rng.Intn(len(tr.Nodes()))]
		if ctx.Kind != xdm.ElementNode {
			ctx = tr.RootNode()
		}
		checkKernels(t, "xmark", ix, ctx, pat)
	}
}

// qeShapes are the tree patterns of Table 1's QE1–QE6 (Fig. 5) from the
// document node. QE2 and QE5 carry a positional predicate, which splits the
// plan's pattern there; their shapes here drop it and run as one pattern.
func qeShapes() []*pattern.Pattern {
	t := func(axis xdm.Axis, i int) *pattern.Step { return st(axis, fmt.Sprintf("t%02d", i)) }
	with := func(s *pattern.Step, preds ...*pattern.Step) *pattern.Step {
		s.Preds = append(s.Preds, preds...)
		return s
	}
	var out []*pattern.Pattern
	for _, ax := range []xdm.Axis{xdm.AxisChild, xdm.AxisDescendant} {
		d := xdm.AxisDescendant
		// QE1 / QE4: t01[t02[t03[t04]]]
		out = append(out, chain("dot", with(t(d, 1), with(t(ax, 2), with(t(ax, 3), t(ax, 4))))))
		// QE2 / QE5: t01/t02/t03[t04]
		out = append(out, chain("dot", t(d, 1), t(ax, 2), with(t(ax, 3), t(ax, 4))))
		// QE3 / QE6: t01[t02[t03]/t04[t03]]
		t02 := with(t(ax, 2), t(ax, 3))
		t02.Next = with(t(ax, 4), t(ax, 3))
		out = append(out, chain("dot", with(t(d, 1), t02)))
	}
	return out
}

// TestDifferentialQEShapes runs Table 1's pattern shapes on a MemBeR
// document with few tags, so that the names nest into one another and most
// candidates have witnesses to find, from the document node and from every
// element.
func TestDifferentialQEShapes(t *testing.T) {
	tr := gen.Member(gen.MemberConfig{Seed: 5, Depth: 6, NumTags: 5, NumNodes: 400})
	ix := xmlstore.BuildIndex(tr)
	for i, pat := range qeShapes() {
		label := fmt.Sprintf("QE%d", i+1)
		checkKernels(t, label, ix, tr.RootNode(), pat.Clone())
		for _, n := range tr.Nodes() {
			if n.Kind == xdm.ElementNode {
				checkKernels(t, label, ix, n, pat.Clone())
			}
		}
	}
}
