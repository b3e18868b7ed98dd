package rewrite

import (
	"testing"

	"xqtp/internal/core"
	"xqtp/internal/parser"
)

// shareQueries cover every pass's rebuild paths: paths with existence and
// positional predicates, FLWORs with lets and wheres, a residual typeswitch
// (a predicate over a variable), a union and arithmetic.
var shareQueries = []string{
	`$d//person[emailaddress]/name`,
	`$d/site/people/person[1]/name`,
	`for $x in $d//person[emailaddress] let $n := $x/name return $n`,
	`for $i in (1, 2) return $d//person[$i]`,
	`$d//a | $d//b`,
	`for $b in $d//open_auction where count($b/bidder) > 2 return ($b/itemref, $b/initial + 1)`,
	`some $p in $d//person satisfies $p/emailaddress`,
}

func normalized(t *testing.T, q string) core.Expr {
	t.Helper()
	e, err := parser.Parse(q)
	if err != nil {
		t.Fatalf("parse %s: %v", q, err)
	}
	c, err := core.Normalize(e, "dot")
	if err != nil {
		t.Fatalf("normalize %s: %v", q, err)
	}
	return c
}

// A pass that changes nothing returns its input itself and allocates
// nothing: on the last fixpoint iteration, which only confirms convergence,
// the passes copy no node.
func TestPassesShareUnchangedInput(t *testing.T) {
	// The scopes are the caller's, as in Rewrite: their stacks grow in the
	// first pass and are reused by every later one.
	var tenv typeEnv
	var penv propEnv
	for v := range testSingletons {
		penv.props.push(v, allProps)
	}
	passes := []struct {
		name string
		run  func(core.Expr) (core.Expr, bool)
	}{
		{"simplify", func(e core.Expr) (core.Expr, bool) { return simplifyPass(e, &tenv) }},
		{"ddo", func(e core.Expr) (core.Expr, bool) { return dropDDOPass(e, &penv) }},
		{"split", loopSplitPass},
	}
	for _, q := range shareQueries {
		// The fixpoint Rewrite reaches before it canonicalizes.
		e := normalized(t, q)
		for i := 0; i < maxIterations; i++ {
			changed := false
			for _, p := range passes {
				var c bool
				e, c = p.run(e)
				changed = changed || c
			}
			if !changed {
				break
			}
		}
		for _, p := range passes {
			if out, changed := p.run(e); out != e || changed {
				t.Errorf("%s: %s pass at the fixpoint: changed=%v, same root=%v", q, p.name, changed, out == e)
			}
			if n := testing.AllocsPerRun(10, func() { p.run(e) }); n != 0 {
				t.Errorf("%s: %s pass at the fixpoint allocates %.0f times", q, p.name, n)
			}
		}
	}
}

// Rewrite never mutates its input: the normalized core a Query keeps stays
// what normalization produced, although the rewritten core shares its
// unchanged subtrees.
func TestRewriteLeavesInputIntact(t *testing.T) {
	for _, q := range shareQueries {
		e := normalized(t, q)
		before := core.String(e)
		Rewrite(e, Options{SingletonVars: testSingletons})
		if after := core.String(e); after != before {
			t.Errorf("%s: Rewrite changed its input:\n  before %s\n  after  %s", q, before, after)
		}
	}
}
