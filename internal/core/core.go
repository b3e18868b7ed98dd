// Package core defines the XQuery Core — the normalized form that queries
// are lowered into before rewriting (paper §2). Normalization exposes the
// implicit iteration of XPath's E1/E2 and E1[E2] expressions as explicit
// for-loops with context, position and last bindings, inserts
// fs:distinct-doc-order (ddo) calls, and compiles predicates into typeswitch
// expressions, exactly as in the paper's worked example Q1a-n.
//
// The package also contains a naive reference interpreter for the core; the
// rewriting and optimization phases are differentially tested against it.
package core

import (
	"xqtp/internal/xdm"
)

// Expr is an XQuery Core expression.
type Expr interface {
	isCore()
}

// Var is a variable reference.
type Var struct {
	Name string
}

// StringLit is a string literal.
type StringLit struct {
	Value string
}

// NumberLit is a numeric literal.
type NumberLit struct {
	Value float64
	IsInt bool
}

// EmptySeq is the empty sequence.
type EmptySeq struct{}

// Step is an axis step applied to an input expression. Normalization always
// produces steps whose input is the current context variable; the explicit
// input makes compilation into TreeJoin operators direct.
type Step struct {
	Input Expr
	Axis  xdm.Axis
	Test  xdm.NodeTest
}

// For is the core iteration construct, with an optional positional variable
// and an optional where condition (evaluated via its effective boolean
// value).
type For struct {
	Var    string
	Pos    string // positional variable, "" if absent
	In     Expr
	Where  Expr // nil if absent
	Return Expr
}

// Let binds a variable.
type Let struct {
	Var    string
	In     Expr
	Return Expr
}

// If is a two-branch conditional (the else branch is the empty sequence when
// normalization introduces it for a where clause over a let).
type If struct {
	Cond Expr // tested via effective boolean value
	Then Expr
	Else Expr
}

// SeqType is the small type algebra used by typeswitch and the static
// typing judgment of the type rewritings.
type SeqType uint8

// Core sequence types.
const (
	TypeUnknown SeqType = iota
	TypeEmpty
	TypeNodes
	TypeNumeric
	TypeString
	TypeBoolean
)

// String names the type as it appears in typeswitch cases.
func (t SeqType) String() string {
	switch t {
	case TypeEmpty:
		return "empty()"
	case TypeNodes:
		return "node()*"
	case TypeNumeric:
		return "numeric()"
	case TypeString:
		return "xs:string"
	case TypeBoolean:
		return "xs:boolean"
	}
	return "item()*"
}

// TypeSwitch is the core typeswitch expression produced when normalizing
// XPath predicates: the numeric case turns the predicate into a positional
// test, the default case into an effective-boolean-value test.
type TypeSwitch struct {
	Input   Expr
	Cases   []TSCase
	DefVar  string // "" when the default expression ignores the value
	Default Expr
}

// TSCase is one case clause of a typeswitch.
type TSCase struct {
	Type SeqType
	Var  string
	Body Expr
}

// Call is a call to one of the core builtin functions: "ddo"
// (fs:distinct-doc-order), "count", "boolean", "not", "empty", "exists",
// "root".
type Call struct {
	Name string
	Args []Expr
}

// Compare is a general comparison.
type Compare struct {
	Op   xdm.CompareOp
	L, R Expr
}

// Sequence is sequence concatenation (E1, E2, …).
type Sequence struct {
	Items []Expr
}

// Arith is binary arithmetic over atomized singleton operands.
type Arith struct {
	Op   xdm.ArithOp
	L, R Expr
}

// And is conjunction over effective boolean values.
type And struct {
	L, R Expr
}

// Or is disjunction over effective boolean values.
type Or struct {
	L, R Expr
}

func (*Var) isCore()        {}
func (*StringLit) isCore()  {}
func (*NumberLit) isCore()  {}
func (*EmptySeq) isCore()   {}
func (*Step) isCore()       {}
func (*For) isCore()        {}
func (*Let) isCore()        {}
func (*If) isCore()         {}
func (*TypeSwitch) isCore() {}
func (*Call) isCore()       {}
func (*Compare) isCore()    {}
func (*Sequence) isCore()   {}
func (*Arith) isCore()      {}
func (*And) isCore()        {}
func (*Or) isCore()         {}

// EachChild calls f on each direct subexpression of e, in evaluation order
// (the order of Children), without allocating.
func EachChild(e Expr, f func(Expr)) {
	switch x := e.(type) {
	case *Step:
		f(x.Input)
	case *For:
		f(x.In)
		if x.Where != nil {
			f(x.Where)
		}
		f(x.Return)
	case *Let:
		f(x.In)
		f(x.Return)
	case *If:
		f(x.Cond)
		f(x.Then)
		f(x.Else)
	case *TypeSwitch:
		f(x.Input)
		for _, c := range x.Cases {
			f(c.Body)
		}
		f(x.Default)
	case *Call:
		for _, a := range x.Args {
			f(a)
		}
	case *Sequence:
		for _, it := range x.Items {
			f(it)
		}
	case *Compare:
		f(x.L)
		f(x.R)
	case *Arith:
		f(x.L)
		f(x.R)
	case *And:
		f(x.L)
		f(x.R)
	case *Or:
		f(x.L)
		f(x.R)
	}
}

// Children returns the direct subexpressions of e, in evaluation order.
func Children(e Expr) []Expr {
	var out []Expr
	EachChild(e, func(c Expr) { out = append(out, c) })
	return out
}

// MapChildren returns e with each direct subexpression c replaced by f(c),
// f being called in Children order. When f returns every child unchanged, e
// itself is returned; otherwise a new node of the same kind that shares the
// unchanged children. e is never mutated: the compile passes share every
// subtree they do not change.
func MapChildren(e Expr, f func(Expr) Expr) Expr {
	switch x := e.(type) {
	case *Step:
		if in := f(x.Input); in != x.Input {
			return &Step{Input: in, Axis: x.Axis, Test: x.Test}
		}
	case *For:
		in, where := f(x.In), x.Where
		if where != nil {
			where = f(where)
		}
		if ret := f(x.Return); in != x.In || where != x.Where || ret != x.Return {
			return &For{Var: x.Var, Pos: x.Pos, In: in, Where: where, Return: ret}
		}
	case *Let:
		in := f(x.In)
		if ret := f(x.Return); in != x.In || ret != x.Return {
			return &Let{Var: x.Var, In: in, Return: ret}
		}
	case *If:
		c, t := f(x.Cond), f(x.Then)
		if el := f(x.Else); c != x.Cond || t != x.Then || el != x.Else {
			return &If{Cond: c, Then: t, Else: el}
		}
	case *TypeSwitch:
		in := f(x.Input)
		var cases []TSCase // nil while every body is unchanged
		for i, c := range x.Cases {
			if b := f(c.Body); b != c.Body || cases != nil {
				if cases == nil {
					cases = append(make([]TSCase, 0, len(x.Cases)), x.Cases[:i]...)
				}
				c.Body = b
				cases = append(cases, c)
			}
		}
		if def := f(x.Default); in != x.Input || cases != nil || def != x.Default {
			if cases == nil {
				cases = x.Cases
			}
			return &TypeSwitch{Input: in, Cases: cases, DefVar: x.DefVar, Default: def}
		}
	case *Call:
		if args := mapExprs(x.Args, f); args != nil {
			return &Call{Name: x.Name, Args: args}
		}
	case *Sequence:
		if items := mapExprs(x.Items, f); items != nil {
			return &Sequence{Items: items}
		}
	case *Compare:
		l := f(x.L)
		if r := f(x.R); l != x.L || r != x.R {
			return &Compare{Op: x.Op, L: l, R: r}
		}
	case *Arith:
		l := f(x.L)
		if r := f(x.R); l != x.L || r != x.R {
			return &Arith{Op: x.Op, L: l, R: r}
		}
	case *And:
		l := f(x.L)
		if r := f(x.R); l != x.L || r != x.R {
			return &And{L: l, R: r}
		}
	case *Or:
		l := f(x.L)
		if r := f(x.R); l != x.L || r != x.R {
			return &Or{L: l, R: r}
		}
	}
	return e
}

// mapExprs applies f to every element of xs in order; it returns the new
// elements when one of them changed, nil otherwise.
func mapExprs(xs []Expr, f func(Expr) Expr) []Expr {
	var out []Expr
	for i, x := range xs {
		y := f(x)
		if out == nil {
			if y == x {
				continue
			}
			out = append(make([]Expr, 0, len(xs)), xs[:i]...)
		}
		out = append(out, y)
	}
	return out
}

// Binders returns the variables e binds around its k-th child, in Children
// order: a for's variable and position around its where and return
// clauses, a let's variable around its return, a typeswitch case's
// variable around its body. "" stands for none.
func Binders(e Expr, k int) (string, string) {
	switch x := e.(type) {
	case *For:
		if k > 0 {
			return x.Var, x.Pos
		}
	case *Let:
		if k > 0 {
			return x.Var, ""
		}
	case *TypeSwitch:
		switch {
		case k == 0:
		case k <= len(x.Cases):
			return x.Cases[k-1].Var, ""
		default:
			return x.DefVar, ""
		}
	}
	return "", ""
}

// Usage counts the number of free occurrences of variable name in e,
// respecting shadowing by for/let/typeswitch bindings.
func Usage(e Expr, name string) int {
	if v, ok := e.(*Var); ok {
		if v.Name == name {
			return 1
		}
		return 0
	}
	n, k := 0, 0
	EachChild(e, func(c Expr) {
		if a, b := Binders(e, k); a != name && b != name {
			n += Usage(c, name)
		}
		k++
	})
	return n
}

// Subst returns e with every free occurrence of variable name replaced by
// repl. Normalization generates globally unique variable names, so no
// capture can occur; Subst still respects shadowing for safety. Subtrees
// without a free occurrence are shared with e, and so is repl.
func Subst(e Expr, name string, repl Expr) Expr {
	if v, ok := e.(*Var); ok {
		if v.Name == name {
			return repl
		}
		return v
	}
	k := 0
	return MapChildren(e, func(c Expr) Expr {
		a, b := Binders(e, k)
		k++
		if a == name || b == name {
			return c
		}
		return Subst(c, name, repl)
	})
}
