package join

import (
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
	algs := []Algorithm{Staircase, Twig}
	if streamSupported(pat) {
		algs = append(algs, Streaming)
	}
	for _, alg := range algs {
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
}

// corpusPatterns builds the fixed pattern set run against every corpus
// document: linear spines, star tests, predicate branches and attribute
// steps over the corpus tags.
func corpusPatterns() []*pattern.Pattern {
	mk := func(steps ...*pattern.Step) *pattern.Pattern { return chain("dot", steps...) }
	withPred := func(p *pattern.Pattern, pred *pattern.Step) *pattern.Pattern {
		p.Root.Preds = []*pattern.Step{pred}
		return p
	}
	return []*pattern.Pattern{
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
