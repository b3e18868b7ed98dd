package physical

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xqtp/internal/algebra"
	"xqtp/internal/compile"
	"xqtp/internal/core"
	"xqtp/internal/join"
	"xqtp/internal/optimize"
	"xqtp/internal/parser"
	"xqtp/internal/rewrite"
	"xqtp/internal/xdm"
)

// qgen generates random queries in the supported fragment, biased toward
// pattern-rich shapes (paths with predicates, FLWOR nests) so the fuzzer
// exercises the whole detection pipeline.
type qgen struct {
	rng     *rand.Rand
	vars    []string // in-scope variables
	counter int
}

// fuzzTags are tags randomDoc emits, so every name test can match.
var fuzzTags = []string{"a", "b", "person", "emailaddress", "name"}
var fuzzValues = []string{"John", "Mary", "x"}

func (g *qgen) pick(ss []string) string { return ss[g.rng.Intn(len(ss))] }

func (g *qgen) freshVar() string {
	g.counter++
	return fmt.Sprintf("v%d", g.counter)
}

// genQuery produces a top-level expression. One in three is the filter
// (path)[k], k ∈ {1, 2}: over a path whose matches can nest, the head of
// (path) is the document-order first, not the nested loop's first binding.
func (g *qgen) genQuery(depth int) string {
	if depth <= 0 {
		return g.genPath(depth)
	}
	if g.rng.Intn(3) == 0 {
		return fmt.Sprintf("(%s)[%d]", g.genPath(depth), 1+g.rng.Intn(2))
	}
	switch g.rng.Intn(10) {
	case 0:
		return g.genFLWOR(depth)
	case 1:
		return fmt.Sprintf("count(%s)", g.genPath(depth-1))
	case 2:
		return fmt.Sprintf("(%s) | (%s)", g.genPath(depth-1), g.genPath(depth-1))
	case 3:
		return fmt.Sprintf("if (%s) then %s else %s",
			g.genPath(depth-1), g.genPath(depth-1), g.genPath(depth-1))
	case 4:
		q := "some"
		if g.rng.Intn(2) == 0 {
			q = "every"
		}
		v := g.freshVar()
		in := g.genPath(depth - 1)
		g.vars = append(g.vars, v)
		cond := g.genPred(depth-1, false)
		g.vars = g.vars[:len(g.vars)-1]
		cond = strings.ReplaceAll(cond, "##", "$"+v+"/")
		return fmt.Sprintf("%s $%s in %s satisfies %s", q, v, in, cond)
	}
	return g.genPath(depth)
}

// genPath produces a path expression from an in-scope variable.
func (g *qgen) genPath(depth int) string {
	var b strings.Builder
	if len(g.vars) == 0 || g.rng.Intn(4) > 0 {
		b.WriteString("$d")
	} else {
		b.WriteString("$" + g.pick(g.vars))
	}
	steps := 1 + g.rng.Intn(3)
	for i := 0; i < steps; i++ {
		last := i == steps-1
		switch r := g.rng.Intn(16); {
		case r == 0 && last:
			b.WriteString("/@id")
			continue
		case r == 1 && last:
			b.WriteString("/text()")
			continue
		case r == 2:
			b.WriteString("/descendant-or-self::node()")
			continue
		case r == 3:
			b.WriteString("/parent::node()")
			continue
		case r == 4:
			fmt.Fprintf(&b, "/%s::%s", g.pick([]string{"parent", "ancestor", "self"}), g.pick(fuzzTags))
		case r < 9:
			b.WriteString("//" + g.pick(fuzzTags))
		default:
			b.WriteString("/" + g.pick(fuzzTags))
		}
		if depth > 0 && g.rng.Intn(3) == 0 {
			pred := g.genPred(depth-1, true)
			pred = strings.ReplaceAll(pred, "##", "")
			fmt.Fprintf(&b, "[%s]", pred)
		}
	}
	return b.String()
}

// genPred produces a predicate body; "##" marks the context prefix for
// relative paths (filled by the caller).
func (g *qgen) genPred(depth int, positional bool) string {
	switch g.rng.Intn(11) {
	case 0:
		if positional {
			return fmt.Sprintf("%d", 1+g.rng.Intn(3))
		}
		return "##" + g.pick(fuzzTags)
	case 1:
		if positional {
			return fmt.Sprintf("position() = %d", 1+g.rng.Intn(3))
		}
		return fmt.Sprintf("count(##%s) = %d", g.pick(fuzzTags), 1+g.rng.Intn(2))
	case 2:
		return fmt.Sprintf("##%s = %q", g.pick(fuzzTags), g.pick(fuzzValues))
	case 3:
		if depth > 0 {
			return fmt.Sprintf("##%s[##%s]", g.pick(fuzzTags), g.pick(fuzzTags))
		}
		return "##" + g.pick(fuzzTags)
	case 4:
		return fmt.Sprintf("##%s and ##%s", g.pick(fuzzTags), g.pick(fuzzTags))
	case 5:
		return fmt.Sprintf("count(##%s) > %d", g.pick(fuzzTags), g.rng.Intn(3))
	case 6:
		return fmt.Sprintf("not(##%s)", g.pick(fuzzTags))
	case 7:
		// Axes outside the pattern fragment keep the fallback honest.
		axis := []string{"following-sibling", "preceding-sibling", "parent", "ancestor", "self"}[g.rng.Intn(5)]
		return fmt.Sprintf("##%s::%s", axis, g.pick(fuzzTags))
	case 8:
		return "##@id"
	case 9:
		return fmt.Sprintf("##%s/@id = \"x\"", g.pick(fuzzTags))
	case 10:
		return fmt.Sprintf("##text() = %q", g.pick(fuzzValues))
	}
	return "##" + g.pick(fuzzTags) + "//" + g.pick(fuzzTags)
}

// genFLWOR produces a for (possibly with a positional variable) or let
// clause, possibly nested, with optional where.
func (g *qgen) genFLWOR(depth int) string {
	v := g.freshVar()
	in := g.genPath(depth - 1)
	clause := fmt.Sprintf("for $%s in %s", v, in)
	var at string
	switch g.rng.Intn(4) {
	case 0:
		clause = fmt.Sprintf("let $%s := %s", v, in)
	case 1:
		// The positional variable binds an integer, so it never roots a path.
		at = g.freshVar()
		clause = fmt.Sprintf("for $%s at $%s in %s", v, at, in)
	}
	g.vars = append(g.vars, v)
	defer func() { g.vars = g.vars[:len(g.vars)-1] }()
	var where string
	switch {
	case at != "" && g.rng.Intn(2) == 0:
		where = fmt.Sprintf(" where $%s %s %d", at, g.pick([]string{"=", "<", ">"}), 1+g.rng.Intn(3))
	case g.rng.Intn(2) == 0:
		pred := g.genPred(depth-1, false)
		where = " where " + strings.ReplaceAll(pred, "##", "$"+v+"/")
	}
	var ret string
	if depth > 1 && g.rng.Intn(3) == 0 {
		ret = g.genFLWOR(depth - 1)
	} else {
		ret = g.genPath(depth - 1)
	}
	return fmt.Sprintf("%s%s return %s", clause, where, ret)
}

// TestFuzzPipeline generates random queries and random documents and
// checks that the optimized plan under every physical algorithm, and the
// unoptimized plan, agree with the core interpreter — including on errors.
func TestFuzzPipeline(t *testing.T) {
	iterations := 400
	if testing.Short() {
		iterations = 50
	}
	singletons := map[string]bool{"d": true, "dot": true}
	for seed := 0; seed < iterations; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		g := &qgen{rng: rng}
		src := g.genQuery(2 + rng.Intn(2))

		e, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: generated unparsable query %q: %v", seed, src, err)
		}
		c, err := core.Normalize(e, "dot")
		if err != nil {
			t.Fatalf("seed %d: normalize %q: %v", seed, src, err)
		}
		rewritten := rewrite.Rewrite(c, rewrite.Options{SingletonVars: singletons})
		rawPlan, err := compile.Compile(rewritten)
		if err != nil {
			t.Fatalf("seed %d: compile %q: %v", seed, src, err)
		}
		optPlan := optimize.Optimize(rawPlan, optimize.Options{SingletonVars: singletons})
		// Optimization must be idempotent.
		again := optimize.Optimize(optPlan, optimize.Options{SingletonVars: singletons})
		if !algebra.Equal(optPlan, again) {
			t.Errorf("seed %d: optimizer not idempotent for %q:\n  %s\n  %s",
				seed, src, algebra.String(optPlan), algebra.String(again))
		}

		for docSeed := 0; docSeed < 3; docSeed++ {
			drng := rand.New(rand.NewSource(int64(seed*31 + docSeed)))
			tr := randomDoc(drng, 5+drng.Intn(50))
			env := (*core.Env)(nil).
				Bind("dot", xdm.Singleton(tr.RootNode())).
				Bind("d", xdm.Singleton(tr.RootNode()))
			want, werr := core.Eval(c, env)

			check := func(label string, plan algebra.Expr, alg join.Algorithm) {
				got, gerr := evalPlan(plan, alg, tr)
				if (werr == nil) != (gerr == nil) {
					t.Errorf("seed %d/%d %s: error mismatch (%v vs %v) for %q",
						seed, docSeed, label, werr, gerr, src)
					return
				}
				if werr == nil && !seqEqual(want, got) {
					t.Errorf("seed %d/%d %s: result mismatch for %q\n want %v\n got  %v\n plan %s",
						seed, docSeed, label, src, want, got, algebra.String(plan))
				}
			}
			check("raw", rawPlan, join.NestedLoop)
			for _, alg := range []join.Algorithm{join.NestedLoop, join.Staircase, join.Twig, join.Auto, join.Streaming} {
				check("opt/"+alg.String(), optPlan, alg)
			}
		}
	}
}
