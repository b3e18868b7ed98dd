package optimize

import (
	"strconv"

	"xqtp/internal/algebra"
	"xqtp/internal/pattern"
)

// Options configures the optimizer.
type Options struct {
	// SingletonVars names free variables known to be bound to a single
	// node (document variables); used by the order analysis that gates the
	// bulk TreeJoin conversion.
	SingletonVars map[string]bool

	// Trace, if non-nil, receives the plan after every rule application.
	Trace func(step int, plan algebra.Expr)
}

// maxSteps caps the number of rule applications per phase (a defensive
// bound).
const maxSteps = 10000

type optimizer struct {
	root           algebra.Expr
	singletons     map[string]bool
	letNames       map[string]bool
	usedFields     map[string]bool
	counter        int
	enableFallback bool
}

// Optimize applies the tree-pattern detection rules of Fig. 3 to a
// fixpoint, growing maximal TupleTreePattern operators while preserving
// intermediate operators that carry non-pattern semantics. plan is never
// mutated: the result shares every subtree no rule changed.
func Optimize(plan algebra.Expr, opts Options) algebra.Expr {
	o := &optimizer{
		root:       plan,
		singletons: opts.SingletonVars,
		letNames:   map[string]bool{},
		usedFields: map[string]bool{},
	}
	collectNames(plan, o.letNames, o.usedFields)
	// Phase 1: bulk conversions and merges; phase 2: add the per-tuple
	// fallback for steps the bulk rules could not reach (the Q5 maps).
	step := 0
	for _, fallback := range []bool{false, true} {
		o.enableFallback = fallback
		for i := 0; i < maxSteps; i++ {
			next, rn, changed := o.rewriteFirst(plan, false)
			if !changed {
				break
			}
			if rn != nil && rn.from != rn.to {
				next = renameField(next, rn.from, rn.to)
			}
			plan = next
			o.root = plan
			step++
			if opts.Trace != nil {
				opts.Trace(step, plan)
			}
		}
	}
	return plan
}

func collectNames(e algebra.Expr, lets, fields map[string]bool) {
	switch x := e.(type) {
	case *algebra.Field:
		fields[x.Name] = true
	case *algebra.MapFromItem:
		fields[x.Bind] = true
	case *algebra.MapIndex:
		fields[x.Field] = true
	case *algebra.LetBind:
		lets[x.Name] = true
		fields[x.Name] = true
	case *algebra.TupleTreePattern:
		fields[x.Pattern.Input] = true
		for _, f := range x.Pattern.OutputFields() {
			fields[f] = true
		}
	}
	algebra.EachChild(e, func(c algebra.Expr) { collectNames(c, lets, fields) })
}

func (o *optimizer) fresh() string {
	for {
		o.counter++
		name := "out" + strconv.Itoa(o.counter)
		if !o.usedFields[name] {
			o.usedFields[name] = true
			return name
		}
	}
}

// rewriteFirst finds the first redex in a pre-order traversal, applies one
// rule, and returns the plan rebuilt along the path to it; everything off
// that path is shared. Tolerance (set-safety under an enclosing fs:ddo or
// effective-boolean-value consumer) is threaded down the traversal;
// positional operators and count reset it.
func (o *optimizer) rewriteFirst(e algebra.Expr, tolerant bool) (algebra.Expr, *rename, bool) {
	if out, rn, ok := o.tryRules(e, tolerant); ok {
		return out, rn, true
	}
	var nc algebra.Expr
	var rn *rename
	fired, k := -1, 0
	algebra.EachChild(e, func(c algebra.Expr) {
		if fired < 0 {
			var ok bool
			if nc, rn, ok = o.rewriteFirst(c, childTolerant(e, k, tolerant)); ok {
				fired = k
			}
		}
		k++
	})
	if fired < 0 {
		return nil, nil, false
	}
	k = 0
	return algebra.MapChildren(e, func(c algebra.Expr) algebra.Expr {
		k++
		if k-1 == fired {
			return nc
		}
		return c
	}), rn, true
}

// childTolerant reports whether the k-th child of e (Children order) is
// consumed set-tolerantly, given whether e itself is.
func childTolerant(e algebra.Expr, k int, tolerant bool) bool {
	switch x := e.(type) {
	case *algebra.Call:
		switch x.Name {
		case "ddo", "boolean", "not", "empty", "exists":
			return true
		}
		return false
	case *algebra.Compare, *algebra.And, *algebra.Or:
		return true
	case *algebra.Arith:
		// Arithmetic needs exact singleton operands: not set-tolerant.
		return false
	case *algebra.MapIndex, *algebra.Head:
		return false
	case *algebra.If, *algebra.Select:
		// The condition and the predicate are effective-boolean-value tests.
		return k == 0 || tolerant
	case *algebra.LetBind, *algebra.TypeSwitch:
		// A let value and a typeswitch input are consumed exactly.
		return k > 0 && tolerant
	}
	return tolerant
}

// renameField substitutes a field name throughout a plan (Field references
// and pattern anchors), sharing every subtree that does not mention it.
func renameField(e algebra.Expr, from, to string) algebra.Expr {
	switch x := e.(type) {
	case *algebra.Field:
		if x.Name == from {
			return &algebra.Field{Name: to}
		}
	case *algebra.TupleTreePattern:
		if x.Pattern.Input == from {
			p := &pattern.Pattern{Input: to, Root: x.Pattern.Root}
			return &algebra.TupleTreePattern{Pattern: p, Input: renameField(x.Input, from, to)}
		}
	}
	return algebra.MapChildren(e, func(c algebra.Expr) algebra.Expr { return renameField(c, from, to) })
}
