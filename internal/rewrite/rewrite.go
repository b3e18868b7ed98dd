package rewrite

import (
	"xqtp/internal/core"
)

// Options configures the rewriter.
type Options struct {
	// SingletonVars names free variables that the caller guarantees to bind
	// to exactly one node (typically the document variables and the initial
	// context item). The order/duplicate-freeness analysis uses this to
	// prove, e.g., that ddo($d) is redundant.
	SingletonVars map[string]bool

	// Trace, if non-nil, receives the expression after each pass that
	// changed it (phase is "simplify", "ddo", "split" or "canonicalize").
	Trace func(phase string, e core.Expr)
}

// maxIterations caps the fixpoint loop; the rule system terminates, the cap
// is a defensive bound.
const maxIterations = 100

// Rewrite normalizes a core expression into TPNF′: it runs the type
// rewritings, FLWOR rewritings, document-order rewritings and loop
// splitting to a fixpoint, then alpha-renames bound variables canonically.
// The result is semantically equivalent to the input (differentially tested
// against the core interpreter). e is never mutated: the result shares every
// subtree the passes left unchanged.
func Rewrite(e core.Expr, opts Options) core.Expr {
	// The singleton guarantee feeds the order/duplicate-freeness analysis
	// only. It deliberately does NOT seed the static typing judgment: a
	// caller may bind a free variable to an atomic value (positional
	// predicates like E[$k] must keep their runtime typeswitch).
	tenv := typeEnv{newScope[typeInfo]()}
	penv := propEnv{props: newScope[props]()}
	for v := range opts.SingletonVars {
		penv.props.push(v, allProps)
	}
	trace := func(phase string, changed bool) {
		if changed && opts.Trace != nil {
			opts.Trace(phase, e)
		}
	}
	for i := 0; i < maxIterations; i++ {
		var c1, c2, c3 bool
		e, c1 = simplifyPass(e, &tenv)
		trace("simplify", c1)
		e, c2 = dropDDOPass(e, &penv)
		trace("ddo", c2)
		e, c3 = loopSplitPass(e)
		trace("split", c3)
		if !c1 && !c2 && !c3 {
			break
		}
	}
	e = Canonicalize(e)
	trace("canonicalize", true)
	return e
}
