package physical

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xqtp/internal/algebra"
	"xqtp/internal/collection"
	"xqtp/internal/execctx"
	"xqtp/internal/join"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

var allAlgs = []join.Algorithm{join.NestedLoop, join.Staircase, join.Twig, join.Streaming, join.Auto}

// patternOver builds MapToItem{dep}(TupleTreePattern[IN#dot/steps](MapFromItem{dot}($v))).
func patternOver(dep algebra.Expr, steps ...*pattern.Step) algebra.Expr {
	for i := 0; i < len(steps)-1; i++ {
		steps[i].Next = steps[i+1]
	}
	return &algebra.MapToItem{
		Dep: dep,
		Input: &algebra.TupleTreePattern{
			Pattern: pattern.New("dot", steps[0]),
			Input:   &algebra.MapFromItem{Bind: "dot", Input: &algebra.VarRef{Name: "v"}},
		},
	}
}

func outStep(axis xdm.Axis, name, out string) *pattern.Step {
	s := pattern.NewStep(axis, xdm.NameTest(name))
	s.Out = out
	return s
}

// asTuples hides a field projection from the items-mode lowering: the
// dependent expression is a one-item Sequence, not a bare field, so the plan
// keeps MapToItem over the pattern's frames — the consumer items mode is
// checked against.
func asTuples(field string) algebra.Expr {
	return &algebra.Sequence{Items: []algebra.Expr{&algebra.Field{Name: field}}}
}

// runOver compiles plan for alg and runs it with $v bound to ctxs over a
// corpus holding trees.
func runOver(t *testing.T, plan algebra.Expr, alg join.Algorithm, ctxs xdm.Sequence, trees ...*xdm.Tree) (xdm.Sequence, *Plan) {
	t.Helper()
	p, err := Compile(plan, alg)
	if err != nil {
		t.Fatal(err)
	}
	cat := xmlstore.NewCatalog()
	for _, tr := range trees {
		cat.Register(xmlstore.BuildIndex(tr))
	}
	got, err := runPlan(p, &Runtime{
		Catalog: cat,
		Vars:    p.BindVars(map[string]xdm.Sequence{"v": ctxs}),
	})
	if err != nil {
		t.Fatalf("%v: %v", alg, err)
	}
	return got, p
}

func pres(s xdm.Sequence) string {
	var b strings.Builder
	for _, it := range s {
		n := it.(*xdm.Node)
		fmt.Fprintf(&b, "%d.%d ", n.Doc.ID, n.Pre)
	}
	return b.String()
}

// nested is a document whose a elements nest: pre ranks r=1 a=2 b=3 a=4 b=5
// b=6 a=7 b=8.
const nested = `<r><a><b/><a><b/><b/></a></a><a><b/></a></r>`

// A pattern with two output fields whose consumer projects one of them: the
// projection keeps tuple order and multiplicity — one item per (a, b) binding
// in root-to-leaf lexical order, not the distinct nodes in document order —
// whichever field it reads and whichever consumer computes it.
func TestItemsModeKeepsTupleOrderAndMultiplicity(t *testing.T) {
	tr := parseDoc(t, nested)
	root := xdm.Singleton(tr.RootNode())
	steps := func() []*pattern.Step {
		return []*pattern.Step{outStep(xdm.AxisDescendant, "a", "x"), outStep(xdm.AxisDescendant, "b", "y")}
	}
	for field, want := range map[string][]int{
		"x": {2, 2, 2, 4, 4, 7}, // a repeated per b below it
		"y": {3, 5, 6, 5, 6, 8}, // b's in tuple order: 5 and 6 twice, out of document order
	} {
		for _, alg := range allAlgs {
			items, p := runOver(t, patternOver(&algebra.Field{Name: field}, steps()...), alg, root, tr)
			if !strings.Contains(p.Explain(), "items{"+field+"}") {
				t.Fatalf("%v/%s: not lowered to items mode:\n%s", alg, field, p.Explain())
			}
			frames, p := runOver(t, patternOver(asTuples(field), steps()...), alg, root, tr)
			if strings.Contains(p.Explain(), "items{") {
				t.Fatalf("%v/%s: reference plan lowered to items mode:\n%s", alg, field, p.Explain())
			}
			var got []int
			for _, it := range items {
				got = append(got, it.(*xdm.Node).Pre)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%v/%s: items mode gives pre ranks %v, want %v", alg, field, got, want)
			}
			if !seqEqual(items, frames) {
				t.Errorf("%v/%s: items mode %s, frames %s", alg, field, pres(items), pres(frames))
			}
		}
	}
}

// Contexts that nest, repeat and come from two trees out of ID order: the
// kernels' results interleave and duplicate, so the order check fails and the
// table is sorted on (tree ID, rank) with duplicates dropped, through items
// and through frames. The surviving tuple of a duplicate binding is the
// earliest input tuple's.
func TestBindingOrderAcrossContexts(t *testing.T) {
	t1, t2 := parseDoc(t, nested), parseDoc(t, `<r><b/><a><b/></a></r>`)
	if t1.ID >= t2.ID {
		t.Fatalf("tree IDs %d, %d: expected ascending", t1.ID, t2.ID)
	}
	n1, n2 := t1.Nodes(), t2.Nodes()
	// Second tree first; then the inner a before the outer one; the outer one twice.
	ctxs := xdm.Sequence{n2[1], n1[4], n1[2], n1[7], n1[2]}
	want := xdm.Sequence{n1[3], n1[5], n1[6], n1[8], n2[2], n2[4]}
	step := func() *pattern.Step { return outStep(xdm.AxisDescendant, "b", "out") }
	for _, alg := range allAlgs {
		items, _ := runOver(t, patternOver(&algebra.Field{Name: "out"}, step()), alg, ctxs, t1, t2)
		if !seqEqual(items, want) {
			t.Errorf("%v: items %s, want %s", alg, pres(items), pres(want))
		}
		pairs, _ := runOver(t, patternOver(&algebra.Sequence{Items: []algebra.Expr{
			&algebra.Field{Name: "dot"}, &algebra.Field{Name: "out"}}}, step()), alg, ctxs, t1, t2)
		// b=5 and b=6 are found from a=4 first, b=3 and b=8 only from their own a.
		wantPairs := xdm.Sequence{n1[2], n1[3], n1[4], n1[5], n1[4], n1[6], n1[7], n1[8], n2[1], n2[2], n2[1], n2[4]}
		if !seqEqual(pairs, wantPairs) {
			t.Errorf("%v: (context, binding) pairs %s, want %s", alg, pres(pairs), pres(wantPairs))
		}
	}
}

// First-match over several contexts evaluates them all and keeps the first
// binding in document order, not the first context's.
func TestFirstMatchAcrossContexts(t *testing.T) {
	tr := parseDoc(t, nested)
	n := tr.Nodes()
	plan := func() algebra.Expr {
		e := patternOver(&algebra.Field{Name: "out"}, outStep(xdm.AxisDescendant, "b", "out")).(*algebra.MapToItem)
		e.Input = &algebra.Head{Input: e.Input}
		return e
	}
	for _, alg := range allAlgs {
		got, p := runOver(t, plan(), alg, xdm.Sequence{n[7], n[4]}, tr)
		if ex := p.Explain(); !strings.Contains(ex, "first-match") || !strings.Contains(ex, "items{out}") {
			t.Fatalf("%v: not first-match in items mode:\n%s", alg, ex)
		}
		if !seqEqual(got, xdm.Sequence{n[5]}) {
			t.Errorf("%v: first match %s, want the b at pre 5", alg, pres(got))
		}
		if got, _ := runOver(t, plan(), alg, xdm.Sequence{n[7]}, tr); !seqEqual(got, xdm.Sequence{n[8]}) {
			t.Errorf("%v: first match from one context %s, want the b at pre 8", alg, pres(got))
		}
	}
}

// cancelOnPrepare cancels the run's context when the operator resolves its
// prepared join: the kernel that follows starts under a stopped execution
// context and returns nothing.
type cancelOnPrepare struct {
	PrepSource
	cancel context.CancelFunc
}

func (c cancelOnPrepare) Prepared(alg join.Algorithm, ix *xmlstore.Index, pat *pattern.Pattern) (*join.Prepared, error) {
	c.cancel()
	return c.PrepSource.Prepared(alg, ix, pat)
}

type pushCounter struct{ n int }

func (s *pushCounter) Push(xdm.Item) error { s.n++; return nil }

// A run canceled while its kernel is in flight ends in the typed error and
// delivers nothing: what a cut-short kernel returned is never mistaken for a
// result, whether the pattern operator feeds the sink itself (items mode at
// the plan root) or sits below other operators.
func TestCancelMidKernelEmitsNothing(t *testing.T) {
	tr := randomDoc(rand.New(rand.NewSource(5)), 400)
	for _, q := range []string{
		`$d//person[emailaddress]/name`,                     // items mode at the root
		`for $x in $d//person return $x/name`,               // dependent items mode
		`count($d//person/name)`,                            // below a function call
		`for $x at $i in $d//person where $i > 1 return $x`, // frames
	} {
		for _, alg := range allAlgs {
			p := lower(t, q, alg)
			c := collection.Single("", xmlstore.BuildIndex(tr))
			ctx, cancel := context.WithCancel(context.Background())
			sink := &pushCounter{}
			err := p.RunSink(&Runtime{
				Catalog: c.Catalog(),
				Preps:   cancelOnPrepare{c, cancel},
				Vars:    p.BindVars(engineVars(tr)),
				EC:      execctx.From(ctx, 0, 0),
			}, sink)
			cancel()
			if !errors.Is(err, execctx.ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Errorf("%s/%v: error %v, want the typed cancellation", q, alg, err)
			}
			if sink.n != 0 {
				t.Errorf("%s/%v: %d items delivered from a canceled run", q, alg, sink.n)
			}
		}
	}
}

// A row budget on a plan whose root is a pattern operator in items mode stops
// on the exact prefix, wherever the budget falls relative to the batches the
// table is delivered in.
func TestItemsModeRootBudgetIsExactPrefix(t *testing.T) {
	tr := parseDoc(t, "<r>"+strings.Repeat("<a><b/></a>", 100)+"</r>")
	p := lower(t, `$d//a/b`, join.Auto)
	if _, ok := p.root.(*opTTP); !ok || !strings.Contains(p.Explain(), "items{") {
		t.Fatalf("root is not a pattern operator in items mode:\n%s", p.Explain())
	}
	c := collection.Single("", xmlstore.BuildIndex(tr))
	rt := func(ec *execctx.Ctx) *Runtime {
		return &Runtime{Catalog: c.Catalog(), Preps: c, Vars: p.BindVars(engineVars(tr)), EC: ec}
	}
	full, err := runPlan(p, rt(nil))
	if err != nil || len(full) < 70 {
		t.Fatalf("full run: %d items, %v", len(full), err)
	}
	for _, k := range []int{1, 31, 32, 33, 64, len(full) - 1} {
		var col execctx.Collector
		ec := execctx.From(context.Background(), int64(k), 0)
		err := p.RunSink(rt(ec), &col)
		if !errors.Is(err, execctx.ErrBudgetExceeded) {
			t.Fatalf("MaxRows=%d: error %v, want ErrBudgetExceeded", k, err)
		}
		if !seqEqual(col.Seq, full[:k]) || ec.Rows() != int64(k) {
			t.Errorf("MaxRows=%d: delivered %d items, Rows()=%d, want the exact %d-prefix", k, len(col.Seq), ec.Rows(), k)
		}
	}
	var col execctx.Collector
	ec := execctx.From(context.Background(), int64(len(full)), 0)
	if err := p.RunSink(rt(ec), &col); err != nil || !seqEqual(col.Seq, full) {
		t.Errorf("MaxRows=len: %d items, %v; want all %d and no error", len(col.Seq), err, len(full))
	}
}

// The explain line of a pattern operator names its mode next to the
// algorithm annotation.
func TestExplainShowsItemsMode(t *testing.T) {
	p := lower(t, `for $b in $input/site/open_auctions/open_auction return $b/bidder[1]/increase`, join.Auto)
	annotated := p.ExplainAnnotated(func(*pattern.Pattern) string { return "SCJoin" })
	for _, want := range []string{
		"out{out4@4} alg=Auto→SCJoin items{out4}\n",
		"alg=Auto→SCJoin first-match items{dot5}\n",
	} {
		if !strings.Contains(annotated, want) {
			t.Errorf("explain is missing %q:\n%s", want, annotated)
		}
	}
	if n := strings.Count(annotated, "TupleTreePattern["); n != 3 {
		t.Errorf("explain shows %d pattern operators, want 3:\n%s", n, annotated)
	}
}
