package rewrite

import (
	"xqtp/internal/core"
	"xqtp/internal/funcs"
)

// dropDDOPass removes redundant calls to fs:distinct-doc-order. A ddo call
// is removed when either
//
//  1. its argument is provably in document order and duplicate-free
//     (inferProps), so the call is the identity; or
//  2. the call sits in a set-tolerant position: an enclosing consumer (an
//     outer ddo, an effective-boolean-value test, an existential
//     comparison) only depends on the *set* of nodes produced, and every
//     operator in between distributes over sets (for-iteration without
//     positional variables, existential filters). Removing the call can
//     change the order and multiplicity of the intermediate result but not
//     the query result.
//
// Positional variables make iteration order observable, so they block
// tolerance exactly as the paper's loop-split restriction describes.
func dropDDOPass(e core.Expr, env *propEnv) (core.Expr, bool) {
	d := &ddoDropper{}
	out := d.rw(e, env, false)
	return out, d.changed
}

type ddoDropper struct {
	changed bool
}

func (d *ddoDropper) rw(e core.Expr, env *propEnv, tolerant bool) core.Expr {
	switch x := e.(type) {
	case *core.For:
		// The input is set-tolerant only if the loop has no positional
		// variable and the loop's own result is consumed set-tolerantly.
		in := d.rw(x.In, env, tolerant && x.Pos == "")
		n := env.bindFor(x)
		where := x.Where
		if where != nil {
			// A where clause is consumed via its effective boolean value.
			where = d.rw(where, env, true)
		}
		ret := d.rw(x.Return, env, tolerant)
		env.props.pop(n)
		if in == x.In && where == x.Where && ret == x.Return {
			return x
		}
		return &core.For{Var: x.Var, Pos: x.Pos, In: in, Where: where, Return: ret}

	case *core.Let:
		// Conservative: the binding may be used in order-sensitive ways.
		in := d.rw(x.In, env, false)
		env.props.push(x.Var, inferProps(in, env))
		ret := d.rw(x.Return, env, tolerant)
		env.props.pop(1)
		if in == x.In && ret == x.Return {
			return x
		}
		return &core.Let{Var: x.Var, In: in, Return: ret}

	case *core.Call:
		if x.Name == "ddo" {
			arg := d.rw(x.Args[0], env, true)
			if tolerant {
				d.changed = true
				return arg
			}
			if p := inferProps(arg, env); p.ord && p.df {
				d.changed = true
				return arg
			}
			if arg == x.Args[0] {
				return x
			}
			return &core.Call{Name: "ddo", Args: []core.Expr{arg}}
		}
	}
	k := 0
	return core.MapChildren(e, func(c core.Expr) core.Expr {
		v, _ := core.Binders(e, k) // a typeswitch case or default variable
		env.props.push(v, noProps)
		c = d.rw(c, env, childTolerant(e, k, tolerant))
		env.props.pop(1)
		k++
		return c
	})
}

// childTolerant reports whether the k-th child of e (Children order) is in
// a set-tolerant position, given whether e itself is.
func childTolerant(e core.Expr, k int, tolerant bool) bool {
	switch x := e.(type) {
	case *core.Call:
		// Per the function table: arguments of duplicate-sensitive
		// functions (count, string, sum, …) must keep their exact sequences;
		// the boolean and emptiness functions, and min/max, are set-tolerant.
		sig, ok := funcs.Lookup(x.Name)
		return ok && !sig.DupSensitive
	case *core.Compare, *core.And, *core.Or:
		// General comparisons are existential over atomized operands: order
		// and duplicates cannot change the outcome.
		return true
	case *core.Arith:
		// Arithmetic requires singleton operands: removing a ddo can turn a
		// deduplicated singleton into a cardinality error.
		return false
	case *core.If:
		return k == 0 || tolerant
	case *core.TypeSwitch:
		return k > 0 && tolerant
	}
	// A step distributes over the set of its context nodes; concatenation
	// distributes over sets.
	return tolerant
}
