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

// AppendRanks on a pattern the rank kernels do not take — several output
// fields — is the nested loop's bindings, one rank per field, in its order.
func TestAppendRanksMultiOutput(t *testing.T) {
	ix := mustIndex(t, twigDoc)
	pat := chain("dot", st(xdm.AxisDescendant, "b"), st(xdm.AxisDescendant, "c"), st(xdm.AxisChild, "d"))
	pat.Root.Out = "outer"
	for _, alg := range []Algorithm{NestedLoop, Staircase, Twig, Auto} {
		p, err := Prepare(alg, ix, pat)
		if err != nil {
			t.Fatal(err)
		}
		var want []int32
		for _, b := range p.EvalCtx(nil, ix.Tree.RootNode()) {
			if len(b) != 2 {
				t.Fatalf("%s: binding width %d, want 2", alg, len(b))
			}
			want = append(want, int32(b[0].Pre), int32(b[1].Pre))
		}
		if len(want) == 0 {
			t.Fatalf("%s: no bindings", alg)
		}
		if got := p.AppendRanks(nil, ix.Tree.RootNode(), nil); !slices.Equal(got, want) {
			t.Errorf("%s: AppendRanks %v, Eval's ranks %v", alg, got, want)
		}
	}
}

// An algorithm's tail allocates no []*Node — and nothing else: SCJoin, alone
// or as Auto's choice, finishes in its pooled arena and copies the ranks into
// the caller's slice, and the nested loop navigates ranks with its recursion
// state from a pool, so a call into a slice with room allocates nothing and
// never forces the tree's nodes.
func TestAppendRanksAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	ix := xmlstore.BuildIndex(gen.XMark(gen.XMarkConfig{Seed: 3, People: 200}))
	root := ix.Tree.RootNode()
	pat := chain("dot", st(xdm.AxisDescendant, "person"), st(xdm.AxisChild, "name"))
	pat.Root.Preds = append(pat.Root.Preds, st(xdm.AxisChild, "emailaddress"))
	// person[profile[interest]][.//city]/name: nested and several branches,
	// the staircase's existence check recursing.
	multi := chain("dot", st(xdm.AxisDescendant, "person"), st(xdm.AxisChild, "name"))
	profile := st(xdm.AxisChild, "profile")
	profile.Preds = append(profile.Preds, st(xdm.AxisChild, "interest"))
	multi.Root.Preds = append(multi.Root.Preds, profile, st(xdm.AxisDescendant, "city"))
	for _, pat := range []*pattern.Pattern{pat, multi} {
		for _, alg := range []Algorithm{NestedLoop, Staircase, Auto} {
			p, err := Prepare(alg, ix, pat)
			if err != nil {
				t.Fatal(err)
			}
			dst := p.AppendRanks(nil, root, nil) // sizes dst, warms the arena pool
			if len(dst) < 50 {
				t.Fatalf("%s: %d bindings, expected a real result", alg, len(dst))
			}
			if allocs := testing.AllocsPerRun(50, func() { dst = p.AppendRanks(nil, root, dst[:0]) }); allocs != 0 {
				t.Errorf("%s: AppendRanks into a slice with room allocates %.1f objects per call, want 0", alg, allocs)
			}
		}
	}
}

// AppendRanksFor and AppendFirstFor over a context set are the same calls
// from each context alone, in turn, ends marking where each context's
// bindings stop — for every algorithm, on random trees, patterns and context
// sets (nested contexts and repeats included), behind what dst already holds.
func TestAppendRanksForEqualsPerContext(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	algs := []Algorithm{NestedLoop, Staircase, Twig, Auto}
	for trial := 0; trial < 150; trial++ {
		tr := randomTree(rng, 3+rng.Intn(80))
		ix := xmlstore.BuildIndex(tr)
		pat := randomPattern(rng)
		nodes := tr.Nodes()
		ctxs := make([]*xdm.Node, 1+rng.Intn(6))
		for i := range ctxs {
			if ctxs[i] = nodes[rng.Intn(len(nodes))]; ctxs[i].Kind != xdm.ElementNode {
				ctxs[i] = tr.RootNode()
			}
		}
		ranks := make([]int32, len(ctxs))
		for i, c := range ctxs {
			ranks[i] = int32(c.Pre)
		}
		for _, alg := range algs {
			p, err := Prepare(alg, ix, pat)
			if err != nil {
				t.Fatal(err)
			}
			for _, first := range []bool{false, true} {
				want, wantEnds := []int32{-1}, []int32{7}
				for _, c := range ctxs {
					if first {
						want, _ = p.AppendFirstFor(nil, []int32{int32(c.Pre)}, want, nil)
					} else {
						want = p.AppendRanks(nil, c, want)
					}
					wantEnds = append(wantEnds, int32(len(want)))
				}
				var got, ends []int32
				if first {
					got, ends = p.AppendFirstFor(nil, ranks, []int32{-1}, []int32{7})
				} else {
					got, ends = p.AppendRanksFor(nil, ranks, []int32{-1}, []int32{7})
				}
				if !slices.Equal(got, want) || !slices.Equal(ends, wantEnds) {
					t.Fatalf("%s first=%v from %v (pattern %s): %v ends %v, per context %v ends %v",
						alg, first, ranks, pat, got, ends, want, wantEnds)
				}
			}
		}
	}
}

// A context set shares one arena and one recursion state: AppendRanksFor into
// slices with room allocates nothing, however many contexts it runs.
func TestAppendRanksForAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	ix := xmlstore.BuildIndex(gen.XMark(gen.XMarkConfig{Seed: 3, People: 200}))
	people := chain("dot", st(xdm.AxisDescendant, "person"))
	pp, err := Prepare(Staircase, ix, people)
	if err != nil {
		t.Fatal(err)
	}
	ctxs := pp.AppendRanks(nil, ix.Tree.RootNode(), nil)
	pat := chain("dot", st(xdm.AxisChild, "profile"), st(xdm.AxisChild, "interest"))
	for _, alg := range []Algorithm{NestedLoop, Staircase, Auto} {
		p, err := Prepare(alg, ix, pat)
		if err != nil {
			t.Fatal(err)
		}
		dst, ends := p.AppendRanksFor(nil, ctxs, nil, nil)
		if len(dst) < 50 || len(ends) != len(ctxs) {
			t.Fatalf("%s: %d bindings, %d ends for %d contexts", alg, len(dst), len(ends), len(ctxs))
		}
		if allocs := testing.AllocsPerRun(50, func() { dst, ends = p.AppendRanksFor(nil, ctxs, dst[:0], ends[:0]) }); allocs != 0 {
			t.Errorf("%s: AppendRanksFor into slices with room allocates %.1f objects per call, want 0", alg, allocs)
		}
	}
}
