// Package algebra defines the tuple algebra for XQuery (after Re, Siméon
// and Fernández, ICDE 2006) extended with the paper's TupleTreePattern
// operator. Plans are expression trees mixing item-level expressions
// (TreeJoin, calls, comparisons) with tuple-level operators (MapFromItem,
// MapToItem, Select, MapIndex, TupleTreePattern); dependent sub-expressions
// reference the per-tuple context as IN#field and the per-item context as
// IN, exactly as in the paper's plans P1–P5.
package algebra

import (
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
)

// Expr is a node of an algebraic plan.
type Expr interface {
	isAlg()
}

// In is the per-item dependent context "IN" (bound by MapFromItem).
type In struct{}

// Field is the per-tuple dependent field access "IN#name".
type Field struct {
	Name string
}

// VarRef is a free variable supplied by the engine environment (e.g. $d).
type VarRef struct {
	Name string
}

// Const is a literal item.
type Const struct {
	Item xdm.Item
}

// EmptySeq is the empty sequence.
type EmptySeq struct{}

// TreeJoin is the navigational axis-step operator over items.
type TreeJoin struct {
	Axis  xdm.Axis
	Test  xdm.NodeTest
	Input Expr
}

// Call invokes a builtin function ("ddo", "count", "boolean", "not",
// "empty", "exists", "root", "true", "false") on item sequences.
type Call struct {
	Name string
	Args []Expr
}

// Compare is a general comparison over item sequences.
type Compare struct {
	Op   xdm.CompareOp
	L, R Expr
}

// Sequence is sequence concatenation.
type Sequence struct {
	Items []Expr
}

// Arith is binary arithmetic.
type Arith struct {
	Op   xdm.ArithOp
	L, R Expr
}

// And is conjunction of effective boolean values.
type And struct {
	L, R Expr
}

// Or is disjunction of effective boolean values.
type Or struct {
	L, R Expr
}

// If is the conditional over an effective boolean value.
type If struct {
	Cond, Then, Else Expr
}

// LetBind binds the value of an expression to a field name visible in Body
// (compilation target for residual core lets; sequences, not per-item).
type LetBind struct {
	Name  string
	Value Expr
	Body  Expr
}

// TypeSwitch is the runtime type dispatch (residual typeswitch whose input
// type could not be determined statically).
type TypeSwitch struct {
	Input   Expr
	Cases   []TSCase
	DefVar  string
	Default Expr
}

// TSCase is one typeswitch case.
type TSCase struct {
	Type string // "numeric" is the only type normalization emits
	Var  string
	Body Expr
}

// MapFromItem constructs one tuple [Bind: item] per item of the input
// sequence (the paper's MapFromItem{[f : IN]}(Op)).
type MapFromItem struct {
	Bind  string
	Input Expr
}

// MapToItem evaluates the dependent item expression once per input tuple
// and concatenates the results (the paper's MapToItem{E}(Op)).
type MapToItem struct {
	Dep   Expr
	Input Expr
}

// Select filters the input tuples by the effective boolean value of the
// dependent predicate.
type Select struct {
	Pred  Expr
	Input Expr
}

// MapIndex extends each input tuple with a 1-based position field (the
// compilation of "for … at $i").
type MapIndex struct {
	Field string
	Input Expr
}

// Head passes through the first input tuple only (the physical form of a
// position()=1 selection; gives nested-loop evaluation its cursor-style
// early exit, §5.3).
type Head struct {
	Input Expr
}

// TupleTreePattern evaluates a tree pattern against the context nodes in
// the pattern's input field of each input tuple, returning one output tuple
// per match binding (a dependent join). Output tuples extend the input
// tuple with the pattern's annotated output fields; bindings are emitted in
// root-to-leaf lexical document order with duplicate bindings removed, so
// that when the only output field is the extraction point the operator's
// result coincides with XPath semantics (paper §4.1).
type TupleTreePattern struct {
	Pattern *pattern.Pattern
	Input   Expr
}

func (*In) isAlg()               {}
func (*Field) isAlg()            {}
func (*VarRef) isAlg()           {}
func (*Const) isAlg()            {}
func (*EmptySeq) isAlg()         {}
func (*TreeJoin) isAlg()         {}
func (*Call) isAlg()             {}
func (*Compare) isAlg()          {}
func (*Sequence) isAlg()         {}
func (*Arith) isAlg()            {}
func (*And) isAlg()              {}
func (*Or) isAlg()               {}
func (*If) isAlg()               {}
func (*LetBind) isAlg()          {}
func (*TypeSwitch) isAlg()       {}
func (*MapFromItem) isAlg()      {}
func (*MapToItem) isAlg()        {}
func (*Select) isAlg()           {}
func (*MapIndex) isAlg()         {}
func (*Head) isAlg()             {}
func (*TupleTreePattern) isAlg() {}

// EachChild calls f on each direct sub-expression of e, in the order of
// Children, without allocating.
func EachChild(e Expr, f func(Expr)) {
	switch x := e.(type) {
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
	case *If:
		f(x.Cond)
		f(x.Then)
		f(x.Else)
	case *LetBind:
		f(x.Value)
		f(x.Body)
	case *TypeSwitch:
		f(x.Input)
		for _, c := range x.Cases {
			f(c.Body)
		}
		f(x.Default)
	case *MapToItem:
		f(x.Dep)
		f(x.Input)
	case *Select:
		f(x.Pred)
		f(x.Input)
	case *TreeJoin:
		f(x.Input)
	case *MapFromItem:
		f(x.Input)
	case *MapIndex:
		f(x.Input)
	case *Head:
		f(x.Input)
	case *TupleTreePattern:
		f(x.Input)
	}
}

// MapChildren returns e with each direct sub-expression c replaced by f(c),
// f being called in EachChild order. When f returns every child unchanged, e
// itself is returned; otherwise a new node of the same kind that shares the
// unchanged children (and e's pattern). e is never mutated.
func MapChildren(e Expr, f func(Expr) Expr) Expr {
	switch x := e.(type) {
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
	case *If:
		c, t := f(x.Cond), f(x.Then)
		if el := f(x.Else); c != x.Cond || t != x.Then || el != x.Else {
			return &If{Cond: c, Then: t, Else: el}
		}
	case *LetBind:
		v := f(x.Value)
		if b := f(x.Body); v != x.Value || b != x.Body {
			return &LetBind{Name: x.Name, Value: v, Body: b}
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
	case *MapToItem:
		d := f(x.Dep)
		if in := f(x.Input); d != x.Dep || in != x.Input {
			return &MapToItem{Dep: d, Input: in}
		}
	case *Select:
		p := f(x.Pred)
		if in := f(x.Input); p != x.Pred || in != x.Input {
			return &Select{Pred: p, Input: in}
		}
	case *TreeJoin:
		if in := f(x.Input); in != x.Input {
			return &TreeJoin{Axis: x.Axis, Test: x.Test, Input: in}
		}
	case *MapFromItem:
		if in := f(x.Input); in != x.Input {
			return &MapFromItem{Bind: x.Bind, Input: in}
		}
	case *MapIndex:
		if in := f(x.Input); in != x.Input {
			return &MapIndex{Field: x.Field, Input: in}
		}
	case *Head:
		if in := f(x.Input); in != x.Input {
			return &Head{Input: in}
		}
	case *TupleTreePattern:
		if in := f(x.Input); in != x.Input {
			return &TupleTreePattern{Pattern: x.Pattern, Input: in}
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

// Walk traverses the plan in depth-first pre-order, calling f on every node.
// Returning false from f skips the node's children. It is the structural
// visitor shared by the plan statistics below and by the physical lowering
// pass (internal/physical), which walks the plan once to size its slot frame
// before compiling operators.
func Walk(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	EachChild(e, func(c Expr) { Walk(c, f) })
}

// CountOperators returns the number of nodes in the plan, by operator kind
// name (used by the validation experiments to assert plan shapes).
func CountOperators(e Expr) map[string]int {
	counts := map[string]int{}
	Walk(e, func(e Expr) bool {
		counts[OpName(e)]++
		return true
	})
	return counts
}

// OpName returns the display name of an operator.
func OpName(e Expr) string {
	switch x := e.(type) {
	case *In:
		return "IN"
	case *Field:
		return "Field"
	case *VarRef:
		return "Var"
	case *Const:
		return "Const"
	case *EmptySeq:
		return "Empty"
	case *TreeJoin:
		return "TreeJoin"
	case *Call:
		return "fn:" + x.Name
	case *Compare:
		return "Compare"
	case *Sequence:
		return "Sequence"
	case *Arith:
		return "Arith"
	case *And:
		return "And"
	case *Or:
		return "Or"
	case *If:
		return "If"
	case *LetBind:
		return "LetBind"
	case *TypeSwitch:
		return "TypeSwitch"
	case *MapFromItem:
		return "MapFromItem"
	case *MapToItem:
		return "MapToItem"
	case *Select:
		return "Select"
	case *MapIndex:
		return "MapIndex"
	case *Head:
		return "Head"
	case *TupleTreePattern:
		return "TupleTreePattern"
	}
	return "?"
}

// FieldUses counts the references to field name in the plan (Field nodes
// plus pattern input fields).
func FieldUses(e Expr, name string) int {
	n := 0
	switch x := e.(type) {
	case *Field:
		if x.Name == name {
			n++
		}
	case *TupleTreePattern:
		if x.Pattern.Input == name {
			n++
		}
	}
	EachChild(e, func(c Expr) { n += FieldUses(c, name) })
	return n
}
