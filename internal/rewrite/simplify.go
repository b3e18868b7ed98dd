package rewrite

import (
	"xqtp/internal/core"
)

// simplifier applies the type rewritings and FLWOR rewritings of paper §3,
// plus small cleanups (flattening nested ddo calls, stripping redundant
// fn:boolean wrappers in effective-boolean-value positions).
type simplifier struct {
	changed bool
}

// simplifyPass runs one bottom-up simplification sweep and reports whether
// anything changed.
func simplifyPass(e core.Expr, env *typeEnv) (core.Expr, bool) {
	s := &simplifier{}
	out := s.rw(e, env)
	return out, s.changed
}

func (s *simplifier) rw(e core.Expr, env *typeEnv) core.Expr {
	switch x := e.(type) {
	case *core.Let:
		in := s.rw(x.In, env)
		env.push(x.Var, infer(in, env))
		ret := s.rw(x.Return, env)
		env.pop(1)
		switch core.Usage(ret, x.Var) {
		case 0:
			// Unused let binding: the bound expression is pure, drop it.
			s.changed = true
			return ret
		case 1:
			// Variable inlining.
			s.changed = true
			return core.Subst(ret, x.Var, in)
		}
		// Always inline trivial bindings (variables and literals).
		switch in.(type) {
		case *core.Var, *core.StringLit, *core.NumberLit, *core.EmptySeq:
			s.changed = true
			return core.Subst(ret, x.Var, in)
		}
		if in == x.In && ret == x.Return {
			return x
		}
		return &core.Let{Var: x.Var, In: in, Return: ret}

	case *core.For:
		return s.rwFor(x, env)

	case *core.If:
		cond := s.stripBoolean(s.rw(x.Cond, env))
		then, els := s.rw(x.Then, env), s.rw(x.Else, env)
		if cond == x.Cond && then == x.Then && els == x.Else {
			return x
		}
		return &core.If{Cond: cond, Then: then, Else: els}

	case *core.TypeSwitch:
		return s.rwTypeSwitch(x, env)
	}

	e = core.MapChildren(e, func(c core.Expr) core.Expr { return s.rw(c, env) })
	switch x := e.(type) {
	case *core.Call:
		switch x.Name {
		case "ddo":
			// ddo(ddo(E)) = ddo(E); ddo(()) = ().
			if inner, ok := x.Args[0].(*core.Call); ok && inner.Name == "ddo" {
				s.changed = true
				return inner
			}
			if _, ok := x.Args[0].(*core.EmptySeq); ok {
				s.changed = true
				return x.Args[0]
			}
		case "boolean":
			// fn:boolean over a boolean-typed singleton is the identity.
			if ti := infer(x.Args[0], env); ti.t == core.TypeBoolean && ti.exactlyOne {
				s.changed = true
				return x.Args[0]
			}
		}
	case *core.Sequence:
		return s.flatten(x)
	}
	return e
}

// flatten splices nested sequences into seq and drops its empty items; a
// sequence of one item is the item.
func (s *simplifier) flatten(seq *core.Sequence) core.Expr {
	var items []core.Expr // nil while seq.Items needs no splicing
	for i, it := range seq.Items {
		y, nested := it.(*core.Sequence)
		_, empty := it.(*core.EmptySeq)
		if (nested || empty) && items == nil {
			items = append(make([]core.Expr, 0, len(seq.Items)), seq.Items[:i]...)
		}
		switch {
		case empty:
			s.changed = true
		case nested:
			s.changed = true
			items = append(items, y.Items...)
		case items != nil:
			items = append(items, it)
		}
	}
	if items == nil {
		if len(seq.Items) > 1 {
			return seq
		}
		items = seq.Items
	}
	switch len(items) {
	case 0:
		s.changed = true
		return &core.EmptySeq{}
	case 1:
		s.changed = true
		return items[0]
	}
	return &core.Sequence{Items: items}
}

func (s *simplifier) rwFor(f *core.For, env *typeEnv) core.Expr {
	in := s.rw(f.In, env)
	n := env.bindFor(f, infer(in, env))
	var where core.Expr
	if f.Where != nil {
		// The where clause is an effective-boolean-value position: a
		// surrounding fn:boolean is redundant.
		where = s.stripBoolean(s.rw(f.Where, env))
	}
	ret := s.rw(f.Return, env)
	env.pop(n)

	// Remove the positional variable when unused (paper §3, third FLWOR
	// rule).
	pos := f.Pos
	if pos != "" && core.Usage(ret, pos) == 0 && (where == nil || core.Usage(where, pos) == 0) {
		s.changed = true
		pos = ""
	}

	// for $x in () ... return E  =  ().
	if _, ok := in.(*core.EmptySeq); ok {
		s.changed = true
		return &core.EmptySeq{}
	}

	// for $x in E return $x  =  E (no where, no position).
	if where == nil && pos == "" {
		if v, ok := ret.(*core.Var); ok && v.Name == f.Var {
			s.changed = true
			return in
		}
	}

	// Iterating over a variable that is statically a single item is just a
	// substitution (the context variable case).
	if pos == "" {
		if v, ok := in.(*core.Var); ok && env.lookup(v.Name).exactlyOne {
			s.changed = true
			newRet := core.Subst(ret, f.Var, v)
			if where == nil {
				return newRet
			}
			return &core.If{Cond: core.Subst(where, f.Var, v), Then: newRet, Else: &core.EmptySeq{}}
		}
	}

	if in == f.In && where == f.Where && ret == f.Return && pos == f.Pos {
		return f
	}
	return &core.For{Var: f.Var, Pos: pos, In: in, Where: where, Return: ret}
}

// rwTypeSwitch applies the two type rewritings of paper §3: eliminating
// cases that can never match and bypassing the typeswitch when a case is
// sure to match.
func (s *simplifier) rwTypeSwitch(ts *core.TypeSwitch, env *typeEnv) core.Expr {
	in := s.rw(ts.Input, env)
	ti := infer(in, env)

	var cases []core.TSCase // nil while the kept cases are ts.Cases unchanged
	kept := 0
	for i, c := range ts.Cases {
		env.push(c.Var, typeInfo{t: c.Type, exactlyOne: true})
		c.Body = s.rw(c.Body, env)
		env.pop(1)
		// Rule 1: statEnv ⊢ Type0 ∩ Type1 = ∅ — drop the case.
		drop := c.Type == core.TypeNumeric && !canBeNumeric(ti)
		if cases == nil && (drop || c.Body != ts.Cases[i].Body) {
			cases = append(make([]core.TSCase, 0, len(ts.Cases)), ts.Cases[:i]...)
		}
		if drop {
			s.changed = true
			continue
		}
		// Rule 2: statEnv ⊢ Type0 ⊂ Type1 — the case is sure to match.
		if c.Type == core.TypeNumeric && mustBeNumeric(ti) && kept == 0 {
			s.changed = true
			return &core.Let{Var: c.Var, In: in, Return: c.Body}
		}
		if cases != nil {
			cases = append(cases, c)
		}
		kept++
	}
	env.push(ts.DefVar, ti)
	def := s.rw(ts.Default, env)
	env.pop(1)
	if kept == 0 {
		// Only the default remains.
		s.changed = true
		if ts.DefVar == "" {
			return def
		}
		return &core.Let{Var: ts.DefVar, In: in, Return: def}
	}
	if cases == nil {
		if in == ts.Input && def == ts.Default {
			return ts
		}
		cases = ts.Cases
	}
	return &core.TypeSwitch{Input: in, Cases: cases, DefVar: ts.DefVar, Default: def}
}

// stripBoolean removes an fn:boolean wrapper in a position whose value is
// consumed via the effective boolean value anyway.
func (s *simplifier) stripBoolean(e core.Expr) core.Expr {
	if c, ok := e.(*core.Call); ok && c.Name == "boolean" && len(c.Args) == 1 {
		s.changed = true
		return c.Args[0]
	}
	return e
}
