// Package rewrite implements the core rewritings that normalize queries
// into TPNF′ (paper §3): type rewritings on typeswitch expressions, FLWOR
// rewritings, document-order (ddo) rewritings, and loop splitting. Applied
// to a fixpoint they bring every query whose navigation lies in the
// tree-pattern fragment into the same canonical form, regardless of the
// syntax it was originally written in.
package rewrite

import (
	"xqtp/internal/core"
)

// typeInfo is the static typing judgment used by the type rewritings: the
// content kind of an expression's result plus whether it is statically known
// to be exactly one item.
type typeInfo struct {
	t          core.SeqType
	exactlyOne bool
}

var unknownType = typeInfo{t: core.TypeUnknown}

// scope maps in-scope variables to facts about them (zero for a name it
// does not bind). It is a stack, pushed on entering a binder and popped on
// leaving it, so that one array serves a whole rewrite.
type scope[T any] struct {
	b []binding[T]
}

// newScope returns an empty scope with room for the nesting depth of
// typical queries.
func newScope[T any]() scope[T] { return scope[T]{b: make([]binding[T], 0, 16)} }

type binding[T any] struct {
	name string
	val  T
}

func (s *scope[T]) push(name string, v T) { s.b = append(s.b, binding[T]{name, v}) }

// pop drops the n innermost bindings.
func (s *scope[T]) pop(n int) { s.b = s.b[:len(s.b)-n] }

func (s *scope[T]) lookup(name string) T {
	for i := len(s.b) - 1; i >= 0; i-- {
		if s.b[i].name == name {
			return s.b[i].val
		}
	}
	var zero T
	return zero
}

// typeEnv maps in-scope variables to their inferred types.
type typeEnv struct{ scope[typeInfo] }

// bindFor pushes a for loop's variable (one item of its input's type) and
// its positional variable, and returns how many bindings it pushed.
func (e *typeEnv) bindFor(f *core.For, in typeInfo) int {
	e.push(f.Var, typeInfo{t: in.t, exactlyOne: true})
	if f.Pos == "" {
		return 1
	}
	e.push(f.Pos, typeInfo{core.TypeNumeric, true})
	return 2
}

// infer computes the static type of a core expression.
func infer(e core.Expr, env *typeEnv) typeInfo {
	switch x := e.(type) {
	case *core.Var:
		return env.lookup(x.Name)
	case *core.NumberLit:
		return typeInfo{core.TypeNumeric, true}
	case *core.StringLit:
		return typeInfo{core.TypeString, true}
	case *core.EmptySeq:
		return typeInfo{core.TypeEmpty, false}
	case *core.Step:
		return typeInfo{core.TypeNodes, false}
	case *core.Compare, *core.And, *core.Or:
		return typeInfo{core.TypeBoolean, true}
	case *core.Arith:
		l := infer(x.L, env)
		r := infer(x.R, env)
		return typeInfo{core.TypeNumeric, l.exactlyOne && r.exactlyOne}
	case *core.Sequence:
		if len(x.Items) == 0 {
			return typeInfo{core.TypeEmpty, false}
		}
		t := infer(x.Items[0], env).t
		for _, it := range x.Items[1:] {
			if infer(it, env).t != t {
				return unknownType
			}
		}
		return typeInfo{t: t, exactlyOne: false}
	case *core.Call:
		switch x.Name {
		case "ddo", "root":
			return typeInfo{core.TypeNodes, x.Name == "root"}
		case "count", "string-length", "sum":
			return typeInfo{core.TypeNumeric, true}
		case "number":
			return typeInfo{core.TypeNumeric, true}
		case "avg", "min", "max":
			return typeInfo{t: core.TypeNumeric, exactlyOne: false}
		case "boolean", "not", "empty", "exists", "true", "false", "contains", "starts-with":
			return typeInfo{core.TypeBoolean, true}
		case "string", "concat", "normalize-space", "substring", "name":
			return typeInfo{core.TypeString, true}
		case "data":
			return unknownType
		}
		return unknownType
	case *core.For:
		n := env.bindFor(x, infer(x.In, env))
		ret := infer(x.Return, env)
		env.pop(n)
		return typeInfo{t: ret.t, exactlyOne: false}
	case *core.Let:
		env.push(x.Var, infer(x.In, env))
		ret := infer(x.Return, env)
		env.pop(1)
		return ret
	case *core.If:
		th := infer(x.Then, env)
		el := infer(x.Else, env)
		if el.t == core.TypeEmpty {
			return typeInfo{t: th.t, exactlyOne: false}
		}
		if th.t == core.TypeEmpty {
			return typeInfo{t: el.t, exactlyOne: false}
		}
		if th.t == el.t {
			return typeInfo{t: th.t, exactlyOne: th.exactlyOne && el.exactlyOne}
		}
		return unknownType
	case *core.TypeSwitch:
		return unknownType
	}
	return unknownType
}

// canBeNumeric reports whether the expression could evaluate to a single
// numeric item (the condition for a typeswitch numeric() case to fire).
func canBeNumeric(ti typeInfo) bool {
	switch ti.t {
	case core.TypeNodes, core.TypeString, core.TypeBoolean, core.TypeEmpty:
		return false
	}
	return true
}

// mustBeNumeric reports whether the expression always evaluates to a single
// numeric item.
func mustBeNumeric(ti typeInfo) bool {
	return ti.t == core.TypeNumeric && ti.exactlyOne
}
