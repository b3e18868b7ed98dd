package rewrite

import (
	"xqtp/internal/core"
	"xqtp/internal/xdm"
)

// props are the order/duplicate-freeness annotations of the document-order
// rewritings (paper §3, [19]): whether an expression's result is statically
// known to be in document order (ord), duplicate-free (df), free of
// ancestor-descendant pairs (unnested), and at most one item (atMostOne).
// A ddo call around an expression that is already ord∧df is the identity
// and can be removed.
type props struct {
	ord, df, unnested, atMostOne bool
}

// allProps holds for the empty sequence and for singleton variables.
var allProps = props{ord: true, df: true, unnested: true, atMostOne: true}

// noProps is the conservative bottom.
var noProps = props{}

// propEnv is what the document-order analysis knows about in-scope
// variables: the properties of their values, and the containment degrees
// forProps derives (a scratch stack, empty between calls).
type propEnv struct {
	props   scope[props]
	contain scope[int]
}

// bindFor pushes a for loop's variable (one item) and its positional
// variable, and returns how many bindings it pushed.
func (e *propEnv) bindFor(f *core.For) int {
	e.props.push(f.Var, allProps)
	if f.Pos == "" {
		return 1
	}
	e.props.push(f.Pos, props{atMostOne: true})
	return 2
}

// inferProps computes the order/duplicate-freeness annotations of e.
func inferProps(e core.Expr, env *propEnv) props {
	switch x := e.(type) {
	case *core.Var:
		return env.props.lookup(x.Name)
	case *core.EmptySeq:
		return allProps
	case *core.StringLit, *core.NumberLit, *core.Compare, *core.And, *core.Or, *core.Arith:
		// Atomic results: ord/df are meaningless (ddo rejects them), but
		// they are at most one item.
		return props{atMostOne: true}
	case *core.Sequence:
		// Concatenation gives no order guarantees (the union operator's
		// surrounding ddo re-establishes them).
		return noProps
	case *core.Step:
		return stepProps(inferProps(x.Input, env), x.Axis)
	case *core.Call:
		switch x.Name {
		case "ddo":
			in := inferProps(x.Args[0], env)
			return props{ord: true, df: true, unnested: in.unnested, atMostOne: in.atMostOne}
		case "root":
			// The root of a single node is a single document node.
			in := inferProps(x.Args[0], env)
			return props{ord: in.atMostOne, df: in.atMostOne, unnested: in.atMostOne, atMostOne: in.atMostOne}
		case "count", "boolean", "not", "empty", "exists", "true", "false":
			return props{atMostOne: true}
		case "doc":
			// One document node.
			return props{ord: true, df: true, unnested: true, atMostOne: true}
		case "collection":
			// Corpus members carry ascending tree IDs in corpus order, so the
			// roots come out ordered (CompareOrder ranks documents by ID),
			// distinct, and trivially unnested (no root contains another).
			return props{ord: true, df: true, unnested: true}
		}
		return noProps
	case *core.Let:
		env.props.push(x.Var, inferProps(x.In, env))
		ret := inferProps(x.Return, env)
		env.props.pop(1)
		return ret
	case *core.If:
		th := inferProps(x.Then, env)
		el := inferProps(x.Else, env)
		return props{
			ord:       th.ord && el.ord,
			df:        th.df && el.df,
			unnested:  th.unnested && el.unnested,
			atMostOne: th.atMostOne && el.atMostOne,
		}
	case *core.For:
		return forProps(x, env)
	case *core.TypeSwitch:
		return noProps
	}
	return noProps
}

// stepProps derives the properties of an axis step applied to a context
// with the given properties.
func stepProps(in props, axis xdm.Axis) props {
	if !in.atMostOne {
		// A step over a general sequence is a mapping; require the context
		// to be ordered, duplicate-free and unnested to conclude anything.
		if !(in.ord && in.df && in.unnested) {
			return noProps
		}
	}
	switch axis {
	case xdm.AxisChild, xdm.AxisAttribute:
		// Children/attributes of unnested ordered contexts are ordered,
		// duplicate-free and unnested.
		return props{ord: true, df: true, unnested: true}
	case xdm.AxisSelf:
		return in
	case xdm.AxisParent:
		if in.atMostOne {
			return allProps
		}
		// Distinct nodes can share a parent: duplicates possible.
		return noProps
	case xdm.AxisDescendant, xdm.AxisDescendantOrSelf:
		// Results can nest (a descendant and its own descendant).
		return props{ord: true, df: true, unnested: false}
	case xdm.AxisAncestor, xdm.AxisAncestorOrSelf:
		if in.atMostOne {
			// The ancestor chain of one node is ordered and duplicate-free
			// but nested by construction.
			return props{ord: true, df: true, unnested: false, atMostOne: false}
		}
		return noProps
	}
	return noProps
}

// forProps derives the properties of a for loop: if the input is ordered,
// duplicate-free and unnested, and the body maps each binding into its own
// subtree with an ordered duplicate-free result, the concatenation is
// ordered and duplicate-free (the distributivity law behind the paper's
// FLWOR-vs-path robustness, §5.1).
func forProps(f *core.For, env *propEnv) props {
	in := inferProps(f.In, env)
	n := env.bindFor(f)
	ret := inferProps(f.Return, env)
	env.props.pop(n)
	if in.atMostOne {
		// Zero or one iteration: the body's properties carry over.
		return props{ord: ret.ord, df: ret.df, unnested: ret.unnested, atMostOne: ret.atMostOne}
	}
	if in.ord && in.df && in.unnested && ret.ord && ret.df &&
		containedIn(f.Return, f.Var, &env.contain) >= containedAtOrBelow {
		return props{ord: true, df: true, unnested: ret.unnested}
	}
	return noProps
}

// Containment degrees of an expression's result relative to a variable.
const (
	notContained       = 0 // no containment known
	containedAtOrBelow = 1 // every result node is the variable's node or below it
	containedBelow     = 2 // every result node is strictly below the variable's node
)

// containedIn computes the containment degree of e's result nodes relative
// to the value of variable v.
func containedIn(e core.Expr, v string, env *scope[int]) int {
	switch x := e.(type) {
	case *core.Var:
		if x.Name == v {
			return containedAtOrBelow
		}
		return env.lookup(x.Name)
	case *core.EmptySeq:
		return containedBelow // vacuously
	case *core.Step:
		in := containedIn(x.Input, v, env)
		if in == notContained {
			return notContained
		}
		switch x.Axis {
		case xdm.AxisChild, xdm.AxisAttribute, xdm.AxisDescendant:
			return containedBelow
		case xdm.AxisSelf:
			return in
		case xdm.AxisDescendantOrSelf:
			return in
		}
		return notContained
	case *core.Call:
		if x.Name == "ddo" {
			return containedIn(x.Args[0], v, env)
		}
		return notContained
	case *core.Sequence:
		deg := containedBelow // vacuous for the empty sequence
		for _, it := range x.Items {
			if d := containedIn(it, v, env); d < deg {
				deg = d
			}
		}
		return deg
	case *core.For:
		env.push(x.Var, containedIn(x.In, v, env))
		env.push(x.Pos, notContained)
		deg := containedIn(x.Return, v, env)
		env.pop(2)
		return deg
	case *core.Let:
		env.push(x.Var, containedIn(x.In, v, env))
		deg := containedIn(x.Return, v, env)
		env.pop(1)
		return deg
	case *core.If:
		th := containedIn(x.Then, v, env)
		el := containedIn(x.Else, v, env)
		if th < el {
			return th
		}
		return el
	}
	return notContained
}
