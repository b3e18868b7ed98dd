package rewrite

import (
	"strconv"

	"xqtp/internal/core"
)

// Canonicalize alpha-renames every bound variable to a canonical name
// (dot1, dot2, … in traversal order), so that semantically identical
// rewritten cores — e.g. the 20 syntactic variants of §5.1 — become
// structurally identical expressions and compile to identical plans.
// Free variables keep their names.
func Canonicalize(e core.Expr) core.Expr {
	c := &canonizer{used: FreeVars(e), rename: newScope[string]()}
	return c.rw(e)
}

// FreeVars returns the set of variable names that occur free in e.
func FreeVars(e core.Expr) map[string]bool {
	out := map[string]bool{}
	bound := newScope[bool]()
	freeVars(e, &bound, out)
	return out
}

// freeVars collects variable names that occur free in e (canonical names
// must not collide with those; bound names are renamed anyway).
func freeVars(e core.Expr, bound *scope[bool], out map[string]bool) {
	if v, ok := e.(*core.Var); ok {
		if !bound.lookup(v.Name) {
			out[v.Name] = true
		}
		return
	}
	k := 0
	core.EachChild(e, func(c core.Expr) {
		a, b := core.Binders(e, k)
		k++
		bound.push(a, true)
		bound.push(b, true)
		freeVars(c, bound, out)
		bound.pop(2)
	})
}

type canonizer struct {
	used    map[string]bool
	rename  scope[string] // bound name → canonical name
	counter int
}

// fresh picks the next canonical name, skipping any name that occurs free
// somewhere in the expression.
func (c *canonizer) fresh() string {
	for {
		c.counter++
		name := "dot" + strconv.Itoa(c.counter)
		if !c.used[name] {
			c.used[name] = true
			return name
		}
	}
}

// bind pushes a canonical name for a variable ("" binds nothing) and
// returns it; the caller pops it on leaving the scope.
func (c *canonizer) bind(name string) string {
	canon := ""
	if name != "" {
		canon = c.fresh()
	}
	c.rename.push(name, canon)
	return canon
}

func (c *canonizer) rw(e core.Expr) core.Expr {
	switch x := e.(type) {
	case *core.Var:
		if r := c.rename.lookup(x.Name); r != "" {
			return &core.Var{Name: r}
		}
		return x
	case *core.For:
		in := c.rw(x.In)
		out := &core.For{Var: c.bind(x.Var), Pos: c.bind(x.Pos), In: in}
		if x.Where != nil {
			out.Where = c.rw(x.Where)
		}
		out.Return = c.rw(x.Return)
		c.rename.pop(2)
		return out
	case *core.Let:
		in := c.rw(x.In)
		out := &core.Let{Var: c.bind(x.Var), In: in}
		out.Return = c.rw(x.Return)
		c.rename.pop(1)
		return out
	case *core.TypeSwitch:
		out := &core.TypeSwitch{Input: c.rw(x.Input)}
		for _, tc := range x.Cases {
			v := c.bind(tc.Var)
			out.Cases = append(out.Cases, core.TSCase{Type: tc.Type, Var: v, Body: c.rw(tc.Body)})
			c.rename.pop(1)
		}
		out.DefVar = c.bind(x.DefVar)
		out.Default = c.rw(x.Default)
		c.rename.pop(1)
		return out
	}
	return core.MapChildren(e, c.rw)
}
