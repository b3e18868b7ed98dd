package physical

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
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

// goldenDefaultTexts returns the query texts that testdata/plans_pr24.golden
// pins under the default options, in file order.
func goldenDefaultTexts(t *testing.T) []string {
	t.Helper()
	f, err := os.Open("../../testdata/plans_pr24.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var texts []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if text, ok := strings.CutPrefix(sc.Text(), "=== "); ok {
			if text, ok = strings.CutSuffix(text, " [default]"); ok {
				texts = append(texts, text)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(texts) == 0 {
		t.Fatal("no [default] texts in plans_pr24.golden")
	}
	return texts
}

// TestEveryRewriteStepPreservesSemantics checks the paper's claim one step at
// a time rather than end to end: every core state a TPNF′ pass produces
// (rewrite.Options.Trace) evaluates, under the core interpreter, exactly like
// the normalized query, and so does every plan the Fig. 3 rules produce
// (optimize.Options.Trace), lowered for nested loops. A failure names the
// pass or the rule step that changed the answer. The queries are the qgen
// seeds of TestFuzzPipeline plus the golden plan texts; each runs on three
// random documents.
func TestEveryRewriteStepPreservesSemantics(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 50
	}
	var queries []string
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		g := &qgen{rng: rng}
		queries = append(queries, g.genQuery(2+rng.Intn(2)))
	}
	queries = append(queries, goldenDefaultTexts(t)...)

	type state struct {
		label string
		core  core.Expr
		plan  algebra.Expr
	}
	var coreStates, plans int
	for qi, src := range queries {
		e, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		normalized, err := core.Normalize(e, "dot")
		if err != nil {
			t.Fatalf("normalize %q: %v", src, err)
		}
		singletons := rewrite.FreeVars(normalized)
		var states []state
		pass := 0
		rewritten := rewrite.Rewrite(normalized, rewrite.Options{
			SingletonVars: singletons,
			Trace: func(phase string, e core.Expr) {
				pass++
				states = append(states, state{label: fmt.Sprintf("rewrite pass %d (%s)", pass, phase), core: e})
			},
		})
		plan, err := compile.Compile(rewritten)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		states = append(states, state{label: "compiled plan", plan: plan})
		optimize.Optimize(plan, optimize.Options{
			SingletonVars: singletons,
			Trace: func(step int, p algebra.Expr) {
				states = append(states, state{label: fmt.Sprintf("optimizer rule step %d", step), plan: p})
			},
		})

	docs:
		for d := 0; d < 3; d++ {
			drng := rand.New(rand.NewSource(int64(qi*31 + d)))
			tr := randomDoc(drng, 5+drng.Intn(50))
			root := xdm.Singleton(tr.RootNode())
			env := (*core.Env)(nil).Bind("dot", root).Bind("d", root).Bind("input", root)
			want, werr := core.Eval(normalized, env)
			for _, s := range states {
				var got xdm.Sequence
				var gerr error
				var shown string
				if s.core != nil {
					coreStates++
					got, gerr = core.Eval(s.core, env)
					shown = core.String(s.core)
				} else {
					plans++
					got, gerr = evalPlan(s.plan, join.NestedLoop, tr)
					shown = algebra.String(s.plan)
				}
				if (werr == nil) != (gerr == nil) || (werr == nil && !seqEqual(want, got)) {
					t.Errorf("%q on document %d: %s changed the answer\n want %v (%v)\n got  %v (%v)\n at   %s",
						src, d, s.label, want, werr, got, gerr, shown)
					break docs
				}
			}
		}
	}
	t.Logf("%d queries: %d core states and %d plans equal to the normalized query", len(queries), coreStates, plans)
}
