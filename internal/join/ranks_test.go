package join

import (
	"slices"
	"testing"

	"xqtp/internal/gen"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// AppendRanks on a pattern the rank kernels do not take — several output
// fields — is the nested loop's bindings, one rank per field, in its order.
func TestAppendRanksMultiOutput(t *testing.T) {
	ix := mustIndex(t, twigDoc)
	pat := chain("dot", st(xdm.AxisDescendant, "b"), st(xdm.AxisDescendant, "c"), st(xdm.AxisChild, "d"))
	pat.Root.Out = "outer"
	for _, alg := range []Algorithm{NestedLoop, Staircase, Twig, Streaming, Auto} {
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
