package physical

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xqtp/internal/collection"
	"xqtp/internal/core"
	"xqtp/internal/execctx"
	"xqtp/internal/join"
	"xqtp/internal/parser"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// depTags are the names the dependent paths test, all of them randomDoc's.
var depTags = []string{"a", "b", "person", "name", "emailaddress", "profile", "interest"}

// depPath generates a path of one or two steps from $v, in the forms a
// return clause over a for variable takes: child and descendant steps, a
// positional [1], @id, parent:: and text().
func (g *qgen) depPath(v string) string {
	var b strings.Builder
	b.WriteString("$" + v)
	steps := 1 + g.rng.Intn(2)
	for i := 0; i < steps; i++ {
		last := i == steps-1
		switch r := g.rng.Intn(10); {
		case r == 0 && last:
			b.WriteString("/@id")
		case r == 1 && last:
			b.WriteString("/text()")
		case r == 2:
			if g.rng.Intn(2) == 0 {
				b.WriteString("/parent::node()")
			} else {
				b.WriteString("/parent::" + g.pick(depTags))
			}
		case r == 3:
			b.WriteString("/descendant::" + g.pick(depTags))
		case r == 4:
			fmt.Fprintf(&b, "/%s[1]", g.pick(depTags))
		case r == 5:
			b.WriteString("//" + g.pick(depTags))
		default:
			b.WriteString("/" + g.pick(depTags))
		}
	}
	return b.String()
}

// genBatchFLWOR wraps a generated path P as for $v in P return (Q1, Q2[, Q3])
// or for $v in P return Q1, every Q a path from $v: the shape whose return
// paths a MapToItem runs a batch of tuples at a time.
func (g *qgen) genBatchFLWOR() string {
	in := g.genPath(1 + g.rng.Intn(2))
	if g.rng.Intn(3) == 0 {
		return fmt.Sprintf("for $v in %s return %s", in, g.depPath("v"))
	}
	qs := []string{g.depPath("v"), g.depPath("v")}
	if g.rng.Intn(2) == 0 {
		qs = append(qs, g.depPath("v"))
	}
	return fmt.Sprintf("for $v in %s return (%s)", in, strings.Join(qs, ", "))
}

// batched reports whether the plan evaluates some MapToItem a batch at a time.
func batched(p *Plan) bool { return len(p.batches) > 0 }

// TestBatchedMapMatchesOracle is the differential check of the batch path:
// FLWORs over generated paths whose return clause is paths from the for
// variable, on random documents, under every algorithm, against the core
// interpreter and the unoptimized plan under NLJoin — results and errors.
// Its generator has seeds of its own, so TestFuzzPipeline's draws stay as
// they are.
func TestBatchedMapMatchesOracle(t *testing.T) {
	iterations := 300
	if testing.Short() {
		iterations = 60
	}
	nbatched := 0
	for seed := 0; seed < iterations; seed++ {
		rng := rand.New(rand.NewSource(int64(7001 + seed)))
		g := &qgen{rng: rng}
		src := g.genBatchFLWOR()
		raw, opt := pipeline(t, src, false), pipeline(t, src, true)
		if p, err := Compile(opt, join.Auto); err == nil && batched(p) {
			nbatched++
		}
		for docSeed := 0; docSeed < 3; docSeed++ {
			drng := rand.New(rand.NewSource(int64(seed*37 + docSeed)))
			tr := randomDoc(drng, 5+drng.Intn(60))
			want, werr := oracle(t, src, tr)
			check := func(label string, got xdm.Sequence, gerr error) {
				t.Helper()
				if (werr == nil) != (gerr == nil) {
					t.Errorf("seed %d/%d %s: error mismatch (%v vs %v) for %q", seed, docSeed, label, werr, gerr, src)
				} else if werr == nil && !seqEqual(want, got) {
					t.Errorf("seed %d/%d %s: result mismatch for %q\n want %v\n got  %v", seed, docSeed, label, src, want, got)
				}
			}
			got, gerr := evalPlan(raw, join.NestedLoop, tr)
			check("raw/NLJoin", got, gerr)
			for _, alg := range allAlgs {
				got, gerr := evalPlan(opt, alg, tr)
				check("opt/"+alg.String(), got, gerr)
			}
		}
	}
	// The generator must keep reaching the batch path for the check to mean
	// anything.
	t.Logf("%d of %d generated FLWORs take the batch path", nbatched, iterations)
	if nbatched < iterations/2 {
		t.Errorf("%d of %d generated FLWORs take the batch path, want at least half", nbatched, iterations)
	}
}

// TestBatchedMapOverCollection runs the generated FLWORs over fn:collection()
// of a corpus of random documents, so that one batch holds the contexts of
// several trees, against the core interpreter with the same corpus.
func TestBatchedMapOverCollection(t *testing.T) {
	iterations := 120
	if testing.Short() {
		iterations = 30
	}
	nbatched := 0
	for seed := 0; seed < iterations; seed++ {
		rng := rand.New(rand.NewSource(int64(9001 + seed)))
		g := &qgen{rng: rng}
		src := strings.Replace(g.genBatchFLWOR(), "$d", "fn:collection()", 1)
		opt := pipeline(t, src, true)
		drng := rand.New(rand.NewSource(int64(seed)))
		var srcs []collection.Source
		for i := 0; i < 2+drng.Intn(3); i++ {
			doc := randomDoc(drng, 5+drng.Intn(40))
			srcs = append(srcs, collection.Source{URI: fmt.Sprintf("m%d.xml", i), Data: xmlstore.AppendXML(nil, doc.RootNode())})
		}
		c, err := collection.Ingest(srcs, 1)
		if err != nil {
			t.Fatal(err)
		}
		e, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		ce, err := core.Normalize(e, "dot")
		if err != nil {
			t.Fatal(err)
		}
		root := xdm.Singleton(c.Doc(0).Root())
		want, werr := core.Eval(ce, (*core.Env)(nil).BindDocs(c).Bind("dot", root).Bind("d", root))
		for _, alg := range allAlgs {
			p, err := Compile(opt, alg)
			if err != nil {
				t.Fatal(err)
			}
			if alg == join.Auto && batched(p) {
				nbatched++
			}
			got, gerr := runPlan(p, &Runtime{Catalog: c.Catalog(), Preps: c, Docs: c, Root: root})
			if (werr == nil) != (gerr == nil) {
				t.Errorf("seed %d %v: error mismatch (%v vs %v) for %q", seed, alg, werr, gerr, src)
			} else if werr == nil && !seqEqual(want, got) {
				t.Errorf("seed %d %v: result mismatch for %q\n want %v\n got  %v", seed, alg, src, want, got)
			}
		}
	}
	t.Logf("%d of %d generated FLWORs take the batch path", nbatched, iterations)
	if nbatched < iterations/2 {
		t.Errorf("%d of %d generated FLWORs take the batch path, want at least half", nbatched, iterations)
	}
}

// people is a document of n persons, each with a name and two interests.
func people(t *testing.T, n int) *xdm.Tree {
	var b strings.Builder
	b.WriteString("<site>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<person id="p%d"><name>n%d</name><profile><interest/><interest/></profile></person>`, i, i)
	}
	b.WriteString("</site>")
	return parseDoc(t, b.String())
}

const batchFLWOR = `for $x in $d//person return ($x/name, $x/profile/interest)`

// A row budget on a batched MapToItem at the plan root stops on the exact
// prefix wherever it falls — inside a tuple, between two, across the batch
// bound — for every budget from 1 to the result size.
func TestBatchedMapRootBudgetIsExactPrefix(t *testing.T) {
	tr := people(t, batchTuples+40)
	c := collection.Single("", xmlstore.BuildIndex(tr))
	for _, alg := range []join.Algorithm{join.Auto, join.NestedLoop} {
		p := lower(t, batchFLWOR, alg)
		if m, ok := p.root.(*opMapToItem); !ok || m.batch == nil || len(m.batch.parts) != 2 {
			t.Fatalf("root is not a batched MapToItem of two parts:\n%s", p.Explain())
		}
		rt := func(ec *execctx.Ctx) *Runtime {
			return &Runtime{Catalog: c.Catalog(), Preps: c, Vars: p.BindVars(engineVars(tr)), EC: ec}
		}
		full, err := runPlan(p, rt(nil))
		if err != nil || len(full) != 3*(batchTuples+40) {
			t.Fatalf("full run: %d items, %v", len(full), err)
		}
		for k := 1; k < len(full); k++ {
			var col execctx.Collector
			ec := execctx.From(context.Background(), int64(k), 0)
			err := p.RunSink(rt(ec), &col)
			if !errors.Is(err, execctx.ErrBudgetExceeded) {
				t.Fatalf("%v MaxRows=%d: error %v, want ErrBudgetExceeded", alg, k, err)
			}
			if !seqEqual(col.Seq, full[:k]) || ec.Rows() != int64(k) {
				t.Fatalf("%v MaxRows=%d: delivered %d items, Rows()=%d, want the exact %d-prefix", alg, k, len(col.Seq), ec.Rows(), k)
			}
		}
		var col execctx.Collector
		ec := execctx.From(context.Background(), int64(len(full)), 0)
		if err := p.RunSink(rt(ec), &col); err != nil || !seqEqual(col.Seq, full) {
			t.Errorf("%v MaxRows=len: %d items, %v; want all %d and no error", alg, len(col.Seq), err, len(full))
		}
	}
}

// cancelAtPrepare cancels the run's context at the n-th preparation it
// resolves (counting from 1).
type cancelAtPrepare struct {
	PrepSource
	n      *int
	cancel context.CancelFunc
}

func (c cancelAtPrepare) Prepared(alg join.Algorithm, ix *xmlstore.Index, pat *pattern.Pattern) (*join.Prepared, error) {
	if *c.n--; *c.n == 0 {
		c.cancel()
	}
	return c.PrepSource.Prepared(alg, ix, pat)
}

// A run canceled while a batch's kernel is in flight delivers nothing of
// that batch: the outer pattern prepares first, then the dependent pattern
// once per batch, so a cancel at the second preparation stops the first
// batch and one at the third the second, after exactly the first batch's
// items.
func TestCancelMidBatchEmitsNothingOfTheBatch(t *testing.T) {
	tr := people(t, batchTuples+40)
	c := collection.Single("", xmlstore.BuildIndex(tr))
	for _, alg := range allAlgs {
		p := lower(t, batchFLWOR, alg)
		full, err := runPlan(p, &Runtime{Catalog: c.Catalog(), Preps: c, Vars: p.BindVars(engineVars(tr))})
		if err != nil {
			t.Fatal(err)
		}
		for at, want := range map[int]int{2: 0, 3: 3 * batchTuples} {
			ctx, cancel := context.WithCancel(context.Background())
			n := at
			var col execctx.Collector
			err := p.RunSink(&Runtime{
				Catalog: c.Catalog(),
				Preps:   cancelAtPrepare{c, &n, cancel},
				Vars:    p.BindVars(engineVars(tr)),
				EC:      execctx.From(ctx, 0, 0),
			}, &col)
			cancel()
			if !errors.Is(err, execctx.ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Errorf("%v cancel at prepare %d: error %v, want the typed cancellation", alg, at, err)
			}
			if !seqEqual(col.Seq, full[:want]) {
				t.Errorf("%v cancel at prepare %d: delivered %d items, want the first %d", alg, at, len(col.Seq), want)
			}
		}
	}
}

// An atomic context in the batched field fails its tuple with the error text
// per-tuple evaluation gives — the pattern operator's or the TreeJoin's,
// whichever part meets it first — after the items of the tuples before it.
func TestBatchedMapAtomicContext(t *testing.T) {
	tr := parseDoc(t, `<r><a><b/><name>x</name></a><a><name>y</name></a></r>`)
	c := collection.Single("", xmlstore.BuildIndex(tr))
	for _, tc := range []struct{ query, before, err string }{
		{`for $v in (($d//a)[1], 3, ($d//a)[2]) return $v/name`, `for $v in ($d//a)[1] return $v/name`,
			"exec: pattern context is atomic value xdm.Integer"},
		{`for $v in (($d//a)[1], 3, ($d//a)[2]) return ($v//b, $v/name)`, `for $v in ($d//a)[1] return ($v//b, $v/name)`,
			"exec: TreeJoin applied to atomic value xdm.Integer"},
		{`for $v in (1, 2) return ($v/name, $v//a)`, `()`,
			"exec: TreeJoin applied to atomic value xdm.Integer"},
	} {
		for _, alg := range allAlgs {
			p := lower(t, tc.query, alg)
			if m, ok := p.root.(*opMapToItem); !ok || m.batch == nil {
				t.Fatalf("%s: root is not a batched MapToItem:\n%s", tc.query, p.Explain())
			}
			rt := &Runtime{Catalog: c.Catalog(), Preps: c, Vars: p.BindVars(engineVars(tr))}
			var col execctx.Collector
			err := p.RunSink(rt, &col)
			if err == nil || err.Error() != tc.err {
				t.Errorf("%s/%v: error %v, want %q", tc.query, alg, err, tc.err)
			}
			before, berr := runPlan(lower(t, tc.before, alg), rt)
			if berr != nil || !seqEqual(col.Seq, before) {
				t.Errorf("%s/%v: delivered %v before the error, want %v (%v)", tc.query, alg, col.Seq, before, berr)
			}
		}
	}
}
