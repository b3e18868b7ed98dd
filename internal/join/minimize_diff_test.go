package join

import (
	"math/rand"
	"slices"
	"testing"

	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// The minimization differential suite pins pattern.Minimize to semantic
// equivalence: on every document and context, the minimized pattern must
// return exactly the ranks of the original under every kernel, with the
// nested loop on the ORIGINAL pattern as the oracle — so a minimization bug
// cannot hide behind a matching bug in a set-at-a-time kernel.

// countSteps totals the steps of a chain, spine and predicates alike.
func countSteps(s *pattern.Step) int {
	n := 0
	for c := s; c != nil; c = c.Next {
		n++
		for _, p := range c.Preds {
			n += countSteps(p)
		}
	}
	return n
}

// checkMinimized verifies pattern.Minimize's contract for one (doc, ctx,
// pattern) triple: result equivalence under every applicable kernel,
// idempotence, never-growing size, and preserved output fields.
func checkMinimized(t *testing.T, label string, ix *xmlstore.Index, ctx *xdm.Node, pat *pattern.Pattern) {
	t.Helper()
	min := pattern.Minimize(pat)

	if got, want := countSteps(min.Root), countSteps(pat.Root); got > want {
		t.Fatalf("%s: minimization grew %s (%d steps) to %s (%d steps)",
			label, pat, want, min, got)
	}
	if !slices.Equal(min.OutputFields(), pat.OutputFields()) {
		t.Fatalf("%s: minimization changed output fields %v -> %v (pattern %s -> %s)",
			label, pat.OutputFields(), min.OutputFields(), pat, min)
	}
	if again := pattern.Minimize(min); again != min {
		t.Fatalf("%s: minimization not idempotent: %s -> %s -> %s", label, pat, min, again)
	}

	want := nlReference(t, ix, ctx, pat)
	for _, alg := range []Algorithm{NestedLoop, Staircase, Twig, Auto} {
		p, err := Prepare(alg, ix, min)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, alg, err)
		}
		got := rankSeq(t, p.EvalCtx(nil, ctx))
		slices.Sort(got)
		got = slices.Compact(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s/%s from pre=%d: minimized %s returns %v, original %s returns %v",
				label, alg, ctx.Pre, min, got, pat, want)
		}
	}
}

// redundantPatterns are hand-built patterns exercising each minimization
// rule: duplicate branches, child/descendant subsumption, spine-continuation
// subsumption, vacuous self::node() steps, and near-misses that must NOT be
// minimized (distinct names, descendant not implied by child, output-carrying
// branches).
func redundantPatterns() []*pattern.Pattern {
	mk := func(steps ...*pattern.Step) *pattern.Pattern { return chain("dot", steps...) }
	withPreds := func(p *pattern.Pattern, preds ...*pattern.Step) *pattern.Pattern {
		p.Root.Preds = preds
		return p
	}
	selfNode := func() *pattern.Step { return pattern.NewStep(xdm.AxisSelf, xdm.AnyNodeTest()) }
	out := []*pattern.Pattern{
		// Duplicate branch: a[b][b] == a[b].
		withPreds(mk(st(xdm.AxisDescendant, "a")),
			st(xdm.AxisChild, "b"), st(xdm.AxisChild, "b")),
		// Child implies descendant: a[.//b][b] == a[b].
		withPreds(mk(st(xdm.AxisDescendant, "a")),
			st(xdm.AxisDescendant, "b"), st(xdm.AxisChild, "b")),
		// Name implies star: a[*][b] == a[b] is WRONG (star also matches c),
		// but a[*] with sibling branch b may drop the star: a[b][*] == a[b].
		withPreds(mk(st(xdm.AxisDescendant, "a")),
			st(xdm.AxisChild, "b"),
			pattern.NewStep(xdm.AxisChild, xdm.StarTest())),
		// Spine continuation implies the branch: a[b]/b == a/b ranks-wise
		// only from the b child — NOT an equivalence on bindings of a, but
		// the branch b is implied by the spine child b, so a[b]/b == a/b.
		withPreds(mk(st(xdm.AxisDescendant, "a"), st(xdm.AxisChild, "b")),
			st(xdm.AxisChild, "b")),
		// Descendant branch implied through a child path: a[.//c][b/c] keeps
		// both (b/c does not imply an arbitrary .//c? it does: a/b/c is a
		// downward path to c) — a[.//c][b[c]] == a[b[c]].
		withPreds(mk(st(xdm.AxisDescendant, "a")),
			st(xdm.AxisDescendant, "c"),
			func() *pattern.Step {
				b := st(xdm.AxisChild, "b")
				b.Preds = []*pattern.Step{st(xdm.AxisChild, "c")}
				return b
			}()),
		// Nested duplicate: a[b[c]][b[c]] == a[b[c]].
		withPreds(mk(st(xdm.AxisDescendant, "a")),
			func() *pattern.Step {
				b := st(xdm.AxisChild, "b")
				b.Preds = []*pattern.Step{st(xdm.AxisChild, "c")}
				return b
			}(),
			func() *pattern.Step {
				b := st(xdm.AxisChild, "b")
				b.Preds = []*pattern.Step{st(xdm.AxisChild, "c")}
				return b
			}()),
		// Attribute branch duplicate: b[@x][@x] == b[@x].
		withPreds(mk(st(xdm.AxisDescendant, "b")),
			pattern.NewStep(xdm.AxisAttribute, xdm.NameTest("x")),
			pattern.NewStep(xdm.AxisAttribute, xdm.NameTest("x"))),
		// Vacuous self::node() mid-spine: a/self::node()/b == a/b.
		mk(st(xdm.AxisDescendant, "a"), selfNode(), st(xdm.AxisChild, "b")),
		// self::node() carrying a predicate folds it into the previous step:
		// a/self::node()[b]/c == a[b]/c.
		mk(st(xdm.AxisDescendant, "a"),
			func() *pattern.Step {
				s := selfNode()
				s.Preds = []*pattern.Step{st(xdm.AxisChild, "b")}
				return s
			}(),
			st(xdm.AxisChild, "c")),

		// Near-misses that must survive minimization unchanged:
		// distinct names,
		withPreds(mk(st(xdm.AxisDescendant, "a")),
			st(xdm.AxisChild, "b"), st(xdm.AxisChild, "c")),
		// child NOT implied by descendant (descendant is the general one),
		withPreds(mk(st(xdm.AxisDescendant, "a")), st(xdm.AxisDescendant, "b")),
		// the deeper branch is the stronger one and must be the survivor.
		withPreds(mk(st(xdm.AxisDescendant, "a")),
			func() *pattern.Step {
				b := st(xdm.AxisChild, "b")
				b.Preds = []*pattern.Step{st(xdm.AxisChild, "c")}
				return b
			}(),
			st(xdm.AxisChild, "b")),
	}
	return out
}

// TestMinimizeDifferentialCorpus runs every redundant pattern and every
// corpus pattern over the corpus documents, from the document node and from
// every element context.
func TestMinimizeDifferentialCorpus(t *testing.T) {
	pats := append(redundantPatterns(), corpusPatterns()...)
	for di, doc := range corpusDocs {
		ix := mustIndex(t, doc)
		for pi, pat := range pats {
			label := "doc" + string(rune('0'+di)) + "/min" + string(rune('0'+pi))
			checkMinimized(t, label, ix, ix.Tree.RootNode(), pat.Clone())
			for _, n := range ix.Tree.Nodes() {
				if n.Kind == xdm.ElementNode {
					checkMinimized(t, label, ix, n, pat.Clone())
				}
			}
		}
	}
}

// addRedundancy grafts a random redundant branch onto the pattern: a clone
// of an existing predicate branch, or a descendant-relaxed copy of the
// spine continuation. The result is semantically equivalent by construction,
// so minimization has real work to do and the differential check is tight.
func addRedundancy(rng *rand.Rand, pat *pattern.Pattern) *pattern.Pattern {
	out := pat.Clone()
	for s := out.Root; s != nil; s = s.Next {
		if len(s.Preds) > 0 && rng.Intn(2) == 0 {
			dup := s.Preds[rng.Intn(len(s.Preds))].Clone()
			s.Preds = append(s.Preds, dup)
		}
		if s.Next != nil && s.Next.Out == "" && rng.Intn(3) == 0 &&
			(s.Next.Axis == xdm.AxisChild || s.Next.Axis == xdm.AxisDescendant) {
			relaxed := pattern.NewStep(xdm.AxisDescendant, s.Next.Test)
			s.Preds = append(s.Preds, relaxed)
		}
	}
	return out
}

// TestMinimizeDifferentialRandom fuzzes minimization over random trees and
// random patterns augmented with random redundancy.
func TestMinimizeDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		tr := randomTree(rng, 3+rng.Intn(80))
		ix := xmlstore.BuildIndex(tr)
		pat := addRedundancy(rng, randomPattern(rng))
		ctx := tr.Nodes()[rng.Intn(len(tr.Nodes()))]
		if ctx.Kind != xdm.ElementNode && ctx.Kind != xdm.DocumentNode {
			ctx = tr.RootNode()
		}
		checkMinimized(t, "random", ix, ctx, pat)
	}
}

// FuzzMinimize drives the same differential check from fuzzer-chosen seeds:
// each input seeds the tree, the pattern and the redundancy independently.
func FuzzMinimize(f *testing.F) {
	f.Add(int64(1), int64(2), int64(3))
	f.Add(int64(7), int64(11), int64(13))
	f.Add(int64(42), int64(42), int64(42))
	f.Fuzz(func(t *testing.T, treeSeed, patSeed, augSeed int64) {
		tr := randomTree(rand.New(rand.NewSource(treeSeed)), 3+int(uint64(treeSeed)%60))
		ix := xmlstore.BuildIndex(tr)
		pat := addRedundancy(rand.New(rand.NewSource(augSeed)),
			randomPattern(rand.New(rand.NewSource(patSeed))))
		checkMinimized(t, "fuzz", ix, tr.RootNode(), pat)
	})
}
