package main

import (
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"xqtp"
	"xqtp/internal/algebra"
	"xqtp/internal/collection"
	"xqtp/internal/compile"
	"xqtp/internal/core"
	"xqtp/internal/exec"
	"xqtp/internal/join"
	"xqtp/internal/optimize"
	"xqtp/internal/parser"
	"xqtp/internal/pattern"
	"xqtp/internal/physical"
	"xqtp/internal/rewrite"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// staged is one query taken through the compilation pipeline stage by stage,
// the way xqtp.Prepare does it in one call, so that every stage can be timed
// from outside.
type staged struct {
	text      string
	opt       algebra.Expr
	phys      *physical.Plan // lowered for Auto
	preps     *exec.PrepCache
	rewritten core.Expr // the core expression after the TPNF' rewrite
	rules     int       // algebraic rule applications
}

// compileStages runs the six compile stages on text with one span around
// each exported call.
func compileStages(tr *tracer, text string) (*staged, error) {
	tr.begin("parser.parse", "")
	surface, err := parser.Parse(text)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("core.normalize", "")
	normalized, err := core.Normalize(surface, "dot")
	tr.end()
	if err != nil {
		return nil, err
	}
	// Run binds every free variable to one document node, which is what
	// lets the rewriter treat them as singletons (as xqtp.Prepare does).
	singletons := map[string]bool{}
	for _, v := range freeVariables(normalized) {
		singletons[v] = true
	}
	tr.begin("rewrite.rewrite", "")
	rewritten := rewrite.Rewrite(normalized, rewrite.Options{SingletonVars: singletons})
	tr.end()
	tr.begin("compile.compile", "")
	plan, err := compile.Compile(rewritten)
	tr.end()
	if err != nil {
		return nil, err
	}
	st := &staged{text: text, rewritten: rewritten, preps: exec.NewPrepCache()}
	tr.begin("optimize.optimize", "")
	st.opt = optimize.Optimize(plan, optimize.Options{
		SingletonVars: singletons,
		Trace:         func(int, algebra.Expr) { st.rules++ },
	})
	tr.end()
	tr.begin("physical.lower", "")
	st.phys, err = physical.Compile(st.opt, join.Auto)
	tr.end()
	if err != nil {
		return nil, err
	}
	return st, nil
}

// checkAgainstPrepare asserts that the staged pipeline builds the plan
// xqtp.Prepare builds; otherwise the stage timings would describe another
// compiler than the one the untraced pass measures.
func (st *staged) checkAgainstPrepare() error {
	q, err := xqtp.Prepare(st.text)
	if err != nil {
		return err
	}
	if got, want := algebra.String(st.opt), q.Plan(); got != want {
		return fmt.Errorf("staged pipeline diverges from xqtp.Prepare on %q:\n staged:  %s\n prepare: %s", st.text, got, want)
	}
	return nil
}

func countCore(e core.Expr) int {
	if e == nil {
		return 0
	}
	n := 1
	for _, c := range core.Children(e) {
		n += countCore(c)
	}
	return n
}

// freeVariables collects the free variables of a normalized core expression.
func freeVariables(e core.Expr) []string {
	set := map[string]bool{}
	var walk func(core.Expr, map[string]bool)
	with := func(bound map[string]bool, names ...string) map[string]bool {
		out := make(map[string]bool, len(bound)+len(names))
		for k := range bound {
			out[k] = true
		}
		for _, n := range names {
			if n != "" {
				out[n] = true
			}
		}
		return out
	}
	walk = func(e core.Expr, bound map[string]bool) {
		switch x := e.(type) {
		case *core.Var:
			if !bound[x.Name] {
				set[x.Name] = true
			}
			return
		case *core.For:
			walk(x.In, bound)
			b2 := with(bound, x.Var, x.Pos)
			if x.Where != nil {
				walk(x.Where, b2)
			}
			walk(x.Return, b2)
			return
		case *core.Let:
			walk(x.In, bound)
			walk(x.Return, with(bound, x.Var))
			return
		case *core.TypeSwitch:
			walk(x.Input, bound)
			for _, c := range x.Cases {
				walk(c.Body, with(bound, c.Var))
			}
			walk(x.Default, with(bound, x.DefVar))
			return
		}
		for _, c := range core.Children(e) {
			walk(c, bound)
		}
	}
	walk(e, map[string]bool{})
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// countSink counts delivered items without keeping them.
type countSink struct{ n int }

func (s *countSink) Push(xdm.Item) error { s.n++; return nil }

// rootPatterns returns the plan's patterns that are fed by the document root
// binding; only for these is an evaluation from the root meaningful.
func (st *staged) rootPatterns() []*pattern.Pattern {
	var out []*pattern.Pattern
	pats := st.phys.Patterns()
	for i, rb := range st.phys.RootBoundPatterns() {
		if rb {
			out = append(out, pats[i])
		}
	}
	return out
}

// admitted lists the members of view that hold every name st's plan
// requires: those the corpus fan-out evaluates instead of skipping.
func admitted(view *collection.Corpus, st *staged) []int {
	names := st.phys.RequiredNames()
	var out []int
	for i := 0; i < view.Len(); i++ {
		if view.Names().HasAll(i, names) {
			out = append(out, i)
		}
	}
	return out
}

// probeMembers is how many admitted members of a fan-out a probe pass
// evaluates one by one.
const probeMembers = 16

var kernelSpans = []struct {
	alg  join.Algorithm
	name string
}{
	{join.NestedLoop, "join.kernel_nl"},
	{join.Staircase, "join.kernel_sc"},
	{join.Twig, "join.kernel_tj"},
	{join.Streaming, "join.kernel_stream"},
}

// probeQuery times the join and physical layers of one query on one document:
// preparation, the cost model's choice, the kernel Auto picks and each of the
// four kernels on the same root-bound patterns, and a run of the whole
// physical plan into a counting sink. The run's time minus Auto's kernels is
// recorded as physical.run_self. It returns the number of bindings Auto's
// kernels produced, a count that depends on the inputs alone.
func probeQuery(tr *tracer, st *staged, cat *xmlstore.Catalog, ix *xmlstore.Index, root *xdm.Node) (bindings int, err error) {
	tr.nextOp()
	var kernels time.Duration
	for _, pat := range st.rootPatterns() {
		tr.begin("join.prepare", "")
		auto, err := join.Prepare(join.Auto, ix, pat)
		tr.end()
		if err != nil {
			return 0, err
		}
		tr.begin("join.choose", "")
		join.ChooseEstimate(ix, root, pat)
		tr.end()
		t0 := time.Now()
		tr.begin("join.kernel", "")
		bindings += len(auto.EvalCtx(nil, root))
		tr.end()
		kernels += time.Since(t0)
		for _, k := range kernelSpans {
			p, err := join.Prepare(k.alg, ix, pat)
			if err != nil {
				return 0, err
			}
			tr.begin(k.name, "")
			p.EvalCtx(nil, root)
			tr.end()
		}
	}
	rt := &physical.Runtime{Catalog: cat, Preps: st.preps, Root: xdm.Singleton(root)}
	var sink countSink
	t0 := time.Now()
	tr.begin("physical.run", "")
	err = st.phys.RunSink(rt, &sink)
	tr.end()
	if self := time.Since(t0) - kernels; self > 0 {
		tr.add("physical.run_self", "", self)
	}
	return bindings, err
}

// expect is what the oracle says a (query, input) pair returns.
type expect struct {
	rows int
	sum  uint32
}

// itemsSum identifies a result sequence by its length and a checksum over
// each item's identity: a node's preorder rank in its document, an atomic's
// lexical value. Two parses of the same bytes rank their nodes alike, so the
// sum compares results across the oracle's documents and the measured ones.
func itemsSum(seq xqtp.Sequence) expect {
	h := crc32.New(castagnoli)
	var b [9]byte
	for _, it := range seq {
		if n, ok := it.(*xqtp.Node); ok {
			b[0] = 'n'
			p := uint64(n.Pre)
			for i := 0; i < 8; i++ {
				b[1+i] = byte(p >> (8 * i))
			}
			h.Write(b[:])
		} else {
			h.Write([]byte{'a'})
			h.Write([]byte(xqtp.ItemString(it)))
			h.Write([]byte{0})
		}
	}
	return expect{rows: len(seq), sum: h.Sum32()}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)
