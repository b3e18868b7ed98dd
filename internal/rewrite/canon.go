package rewrite

import (
	"fmt"

	"xqtp/internal/core"
)

// Canonicalize alpha-renames every bound variable to a canonical name
// (dot1, dot2, … in traversal order), so that semantically identical
// rewritten cores — e.g. the 20 syntactic variants of §5.1 — become
// structurally identical expressions and compile to identical plans.
// Free variables keep their names.
func Canonicalize(e core.Expr) core.Expr {
	c := &canonizer{used: FreeVars(e), rename: map[string]string{}}
	return c.rw(e)
}

// FreeVars returns the set of variable names that occur free in e.
func FreeVars(e core.Expr) map[string]bool {
	out := map[string]bool{}
	freeVars(e, map[string]bool{}, out)
	return out
}

// freeVars collects variable names that occur free in e (canonical names
// must not collide with those; bound names are renamed anyway).
func freeVars(e core.Expr, bound map[string]bool, out map[string]bool) {
	switch x := e.(type) {
	case *core.Var:
		if !bound[x.Name] {
			out[x.Name] = true
		}
	case *core.For:
		freeVars(x.In, bound, out)
		restore := shadow(bound, x.Var, x.Pos)
		if x.Where != nil {
			freeVars(x.Where, bound, out)
		}
		freeVars(x.Return, bound, out)
		restore()
	case *core.Let:
		freeVars(x.In, bound, out)
		restore := shadow(bound, x.Var)
		freeVars(x.Return, bound, out)
		restore()
	case *core.TypeSwitch:
		freeVars(x.Input, bound, out)
		for _, c := range x.Cases {
			restore := shadow(bound, c.Var)
			freeVars(c.Body, bound, out)
			restore()
		}
		restore := shadow(bound, x.DefVar)
		freeVars(x.Default, bound, out)
		restore()
	default:
		for _, ch := range core.Children(e) {
			freeVars(ch, bound, out)
		}
	}
}

// shadow temporarily marks names as bound and returns an undo function.
func shadow(bound map[string]bool, names ...string) func() {
	type saved struct {
		name string
		was  bool
	}
	var st []saved
	for _, n := range names {
		if n == "" {
			continue
		}
		st = append(st, saved{n, bound[n]})
		bound[n] = true
	}
	return func() {
		for i := len(st) - 1; i >= 0; i-- {
			bound[st[i].name] = st[i].was
		}
	}
}

type canonizer struct {
	used    map[string]bool
	rename  map[string]string
	counter int
}

// fresh picks the next canonical name, skipping any name that occurs free
// somewhere in the expression.
func (c *canonizer) fresh() string {
	for {
		c.counter++
		name := fmt.Sprintf("dot%d", c.counter)
		if !c.used[name] {
			c.used[name] = true
			return name
		}
	}
}

// bind allocates a canonical name for a variable and returns a restore
// function for leaving the scope.
func (c *canonizer) bind(name string) (string, func()) {
	if name == "" {
		return "", func() {}
	}
	old, had := c.rename[name]
	canon := c.fresh()
	c.rename[name] = canon
	return canon, func() {
		if had {
			c.rename[name] = old
		} else {
			delete(c.rename, name)
		}
	}
}

func (c *canonizer) rw(e core.Expr) core.Expr {
	switch x := e.(type) {
	case *core.Var:
		if r, ok := c.rename[x.Name]; ok {
			return &core.Var{Name: r}
		}
		return x
	case *core.StringLit, *core.NumberLit, *core.EmptySeq:
		return e
	case *core.Step:
		return &core.Step{Input: c.rw(x.Input), Axis: x.Axis, Test: x.Test}
	case *core.For:
		in := c.rw(x.In)
		v, undoV := c.bind(x.Var)
		p, undoP := c.bind(x.Pos)
		out := &core.For{Var: v, Pos: p, In: in, Return: nil}
		if x.Where != nil {
			out.Where = c.rw(x.Where)
		}
		out.Return = c.rw(x.Return)
		undoP()
		undoV()
		return out
	case *core.Let:
		in := c.rw(x.In)
		v, undo := c.bind(x.Var)
		out := &core.Let{Var: v, In: in, Return: c.rw(x.Return)}
		undo()
		return out
	case *core.If:
		return &core.If{Cond: c.rw(x.Cond), Then: c.rw(x.Then), Else: c.rw(x.Else)}
	case *core.TypeSwitch:
		out := &core.TypeSwitch{Input: c.rw(x.Input)}
		for _, tc := range x.Cases {
			v, undo := c.bind(tc.Var)
			out.Cases = append(out.Cases, core.TSCase{Type: tc.Type, Var: v, Body: c.rw(tc.Body)})
			undo()
		}
		dv, undo := c.bind(x.DefVar)
		out.DefVar = dv
		out.Default = c.rw(x.Default)
		undo()
		return out
	case *core.Call:
		out := &core.Call{Name: x.Name, Args: make([]core.Expr, len(x.Args))}
		for i, a := range x.Args {
			out.Args[i] = c.rw(a)
		}
		return out
	case *core.Compare:
		return &core.Compare{Op: x.Op, L: c.rw(x.L), R: c.rw(x.R)}
	case *core.Sequence:
		out := &core.Sequence{Items: make([]core.Expr, len(x.Items))}
		for i, it := range x.Items {
			out.Items[i] = c.rw(it)
		}
		return out
	case *core.Arith:
		return &core.Arith{Op: x.Op, L: c.rw(x.L), R: c.rw(x.R)}
	case *core.And:
		return &core.And{L: c.rw(x.L), R: c.rw(x.R)}
	case *core.Or:
		return &core.Or{L: c.rw(x.L), R: c.rw(x.R)}
	}
	return e
}
