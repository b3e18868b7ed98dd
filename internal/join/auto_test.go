package join

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// Auto must return the nested loop's answer — same ranks, same order after
// the document-order sort — from every context a plan can hand it: the
// document node and every element, not only the root.
func TestAutoAgreesWithFixedAlgorithms(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 3+rng.Intn(60))
		ix := xmlstore.BuildIndex(tr)
		pat := randomPattern(rng)
		auto, err := Prepare(Auto, ix, pat)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, ctx := range tr.Nodes() {
			if ctx.Kind != xdm.ElementNode && ctx.Kind != xdm.DocumentNode {
				continue
			}
			want := nlReference(t, ix, ctx, pat)
			if got := rankSeq(t, auto.EvalCtx(nil, ctx)); !slices.Equal(got, want) {
				t.Logf("seed %d from pre=%d: Auto ranks %v, nested loop %v (pattern %s)", seed, ctx.Pre, got, want, pat)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Auto resolves to SCJoin with one assignment, so evaluating under it must
// cost exactly what evaluating under SCJoin costs.
func TestAutoAllocatesLikeStaircase(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := randomTree(rng, 4000)
	ix := xmlstore.BuildIndex(tr)
	pat := chain("dot", st(xdm.AxisDescendant, "b"), st(xdm.AxisChild, "c"))
	pat.Root.Preds = []*pattern.Step{st(xdm.AxisChild, "d")}
	ctx := xdm.Step(tr.DocElem(), xdm.AxisChild, xdm.AnyNodeTest())[0]
	if ctx.Kind != xdm.ElementNode || ctx.Size < 30 {
		t.Fatalf("context pre=%d is not an inner element (size %d)", ctx.Pre, ctx.Size)
	}
	allocs := func(alg Algorithm) float64 {
		p, err := Prepare(alg, ix, pat)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.EvalCtx(nil, ctx)) == 0 {
			t.Fatalf("%v: pattern %s has no binding from pre=%d", alg, pat, ctx.Pre)
		}
		// The minimum over single runs, not a mean: under the race detector
		// sync.Pool drops a quarter of its Puts at random, and a dropped
		// staircase arena is allocated again by the next run.
		best := math.Inf(1)
		for i := 0; i < 100; i++ {
			best = min(best, testing.AllocsPerRun(1, func() { p.EvalCtx(nil, ctx) }))
		}
		return best
	}
	if auto, sc := allocs(Auto), allocs(Staircase); auto != sc {
		t.Errorf("EvalCtx allocates %v per run under Auto, %v under SCJoin", auto, sc)
	}
}

func TestChooseHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := randomTree(rng, 4000)
	ix := xmlstore.BuildIndex(tr)
	choose := func(pat *pattern.Pattern) Algorithm {
		return ChooseEstimate(ix, tr.RootNode(), pat).Alg
	}
	// Set-at-a-time evaluation for a bulk rooted path.
	bulk := chain("dot", st(xdm.AxisDescendant, "b"))
	if alg := choose(bulk); alg == NestedLoop {
		t.Errorf("Auto picked NLJoin for a bulk rooted path")
	}
	// Patterns outside the set-at-a-time fragment fall back to the fully
	// general nested loop: reverse axes...
	rev := chain("dot", st(xdm.AxisDescendant, "b"), st(xdm.AxisParent, "a"))
	if alg := choose(rev); alg != NestedLoop {
		t.Errorf("Auto picked %v for a reverse-axis pattern, want NLJoin", alg)
	}
	// ...and more than one output field.
	multi := chain("dot", st(xdm.AxisDescendant, "b"), st(xdm.AxisChild, "c"))
	multi.Root.Out = "outer"
	if alg := choose(multi); alg != NestedLoop {
		t.Errorf("Auto picked %v for a multi-output pattern, want NLJoin", alg)
	}
	// First-match over a child spine: Auto takes the NL early exit.
	p := chain("dot", st(xdm.AxisChild, "a"), st(xdm.AxisChild, "b"))
	got, ok, err := evalFirst(Auto, ix, tr.RootNode(), p)
	if err != nil {
		t.Fatal(err)
	}
	want, wok, err := evalFirst(NestedLoop, ix, tr.RootNode(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || !wok || got[0] != want[0] {
		t.Errorf("EvalFirst under Auto = %v (%v), under NLJoin %v (%v)", got, ok, want, wok)
	}
}

func TestParseAlgorithmAuto(t *testing.T) {
	a, err := ParseAlgorithm("auto")
	if err != nil || a != Auto {
		t.Fatalf("ParseAlgorithm(auto) = %v, %v", a, err)
	}
	if Auto.String() != "Auto" {
		t.Errorf("Auto.String() = %q", Auto.String())
	}
}
