// Package optimize implements the algebraic rewritings of paper §4 (Fig. 3)
// that detect tree patterns in query plans: replacing TreeJoins with
// TupleTreePattern operators (rules a, b), eliminating item-tuple
// conversions (rule c), merging adjacent patterns (rules d, e), removing
// redundant fs:ddo calls over pattern results (rule f), plus the clean-up
// rules that make detection robust (map collapsing, positional-first).
//
// The rules are directed so that patterns grow as large as possible while
// operators with non-pattern semantics (Select with value comparisons,
// positional MapIndex/Head, the maps of Q5) are preserved.
package optimize

import (
	"xqtp/internal/algebra"
	"xqtp/internal/xdm"
)

// fieldUO reports whether the values of tuple field f across the output
// stream of op are known to be in document order, duplicate-free and
// unnested (no value an ancestor of another). Under this condition the bulk
// conversion of a navigational step over the whole stream (rule b) is
// order-safe even without a protecting fs:ddo.
func (o *optimizer) fieldUO(op algebra.Expr, f string) bool {
	switch x := op.(type) {
	case *algebra.In:
		// The current tuple is one tuple, and every field but a let-bound one
		// holds one item.
		return !o.letNames[f]
	case *algebra.MapFromItem:
		if x.Bind == f {
			return o.itemsUO(x.Input)
		}
		return false
	case *algebra.TupleTreePattern:
		out, ok := x.Pattern.SingleOutput()
		if !ok {
			return false
		}
		if out != f {
			// f flows through from the input.
			return o.fieldUO(x.Input, f)
		}
		// The bindings of a child/attribute-only spine over an unnested
		// ordered context are unnested and ordered; a descendant step can
		// produce nested bindings.
		for s := x.Pattern.Root; s != nil; s = s.Next {
			switch s.Axis {
			case xdm.AxisChild, xdm.AxisAttribute, xdm.AxisSelf:
			default:
				return false
			}
		}
		return o.fieldUO(x.Input, x.Pattern.Input)
	case *algebra.Select:
		return o.fieldUO(x.Input, f)
	case *algebra.MapIndex:
		if x.Field == f {
			return false
		}
		return o.fieldUO(x.Input, f)
	case *algebra.Head:
		// At most one tuple: a single-item field value is trivially
		// ordered, duplicate-free and unnested.
		return true
	}
	return false
}

// itemsUO reports whether an item-sequence expression is known to produce
// items in document order, duplicate-free and unnested.
func (o *optimizer) itemsUO(e algebra.Expr) bool {
	switch x := e.(type) {
	case *algebra.VarRef:
		return o.singletons[x.Name]
	case *algebra.Const, *algebra.EmptySeq:
		return true
	case *algebra.Call:
		switch x.Name {
		case "root":
			return len(x.Args) == 1 && o.singletonItems(x.Args[0])
		case "doc", "collection":
			// fn:doc is one document node; fn:collection is the members'
			// document nodes in ascending tree ID — roots of distinct trees.
			return true
		}
		return false
	case *algebra.In:
		// The per-item context is a single item.
		return true
	case *algebra.MapToItem:
		if f, ok := x.Dep.(*algebra.Field); ok {
			return o.fieldUO(x.Input, f.Name)
		}
		return false
	}
	return false
}

// singletonItems reports whether e yields at most one item.
func (o *optimizer) singletonItems(e algebra.Expr) bool {
	switch x := e.(type) {
	case *algebra.VarRef:
		return o.singletons[x.Name]
	case *algebra.In, *algebra.Const:
		return true
	case *algebra.Call:
		if x.Name == "root" && len(x.Args) == 1 {
			return o.singletonItems(x.Args[0])
		}
	}
	return false
}
