package rewrite

import (
	"strconv"

	"xqtp/internal/core"
)

// loopSplitPass applies the loop-splitting rewrite of paper §3:
//
//	for $x in E1 (where C1)? return
//	  for $y in E2 (where C2)? return E3
//	→
//	for $y in (for $x in E1 (where C1)? return E2)
//	  (where C2)? return E3
//
// provided neither loop carries a positional variable (the context position
// would otherwise be computed against the wrong sequence, as the paper's
// position()=1 example shows) and $x does not occur free in C2 or E3. The
// rewrite left-nests for chains, imposing the nesting that the algebraic
// tree-pattern merge rules expect.
// The pass also isolates predicates (a TPNF′ clean-up): a filtering loop
// whose body performs further navigation,
//
//	for $x in E where C return R      (R ≠ $x)
//	→
//	for $x in (for $x' in E where C[$x↦$x'] return $x') return R
//
// so that every where clause sits on a loop that returns its own variable,
// the shape the algebraic predicate-merge rule (e) recognizes.
func loopSplitPass(e core.Expr) (core.Expr, bool) {
	s := &splitter{input: e}
	out := s.rw(e)
	return out, s.changed
}

type splitter struct {
	changed bool
	input   core.Expr
	used    map[string]bool // every variable name of input, built by the first fresh
	counter int
}

func collectAllVars(e core.Expr, out map[string]bool) {
	switch x := e.(type) {
	case *core.Var:
		out[x.Name] = true
	case *core.For:
		out[x.Var] = true
		if x.Pos != "" {
			out[x.Pos] = true
		}
	case *core.Let:
		out[x.Var] = true
	}
	core.EachChild(e, func(c core.Expr) { collectAllVars(c, out) })
}

func (s *splitter) fresh() string {
	if s.used == nil {
		s.used = map[string]bool{}
		collectAllVars(s.input, s.used)
	}
	for {
		s.counter++
		name := "tp" + strconv.Itoa(s.counter)
		if !s.used[name] {
			s.used[name] = true
			return name
		}
	}
}

func (s *splitter) rw(e core.Expr) core.Expr {
	e = core.MapChildren(e, s.rw)
	if f, ok := e.(*core.For); ok {
		return s.split(f)
	}
	return e
}

// split applies where-hoisting, predicate isolation and the loop-split rule
// at this node, repeatedly while they keep matching.
func (s *splitter) split(f *core.For) core.Expr {
	// Where hoisting: a nested loop's where clause that does not depend on
	// the inner variable filters the outer iteration:
	//
	//	for $x in E1 (where C1)? return for $y in E2 where C2 return E3
	//	→
	//	for $x in E1 where C1 and C2 return for $y in E2 return E3
	//
	// when $y (and its position) do not occur in C2. This is what makes
	// "for $x1 in …/person, $x2 in $x1/profile where $x1/emailaddress …"
	// converge with the plain path form.
	if inner, ok := f.Return.(*core.For); ok && inner.Where != nil {
		if core.Usage(inner.Where, inner.Var) == 0 &&
			(inner.Pos == "" || core.Usage(inner.Where, inner.Pos) == 0) {
			s.changed = true
			w := inner.Where
			if f.Where != nil {
				w = &core.And{L: f.Where, R: w}
			}
			f = &core.For{
				Var: f.Var, Pos: f.Pos, In: f.In, Where: w,
				Return: &core.For{Var: inner.Var, Pos: inner.Pos, In: inner.In, Return: inner.Return},
			}
		}
	}
	// Predicate isolation: make the filtering loop return its variable.
	if f.Pos == "" && f.Where != nil {
		if v, ok := f.Return.(*core.Var); !ok || v.Name != f.Var {
			inner := f.Var
			if core.Usage(f.In, inner) > 0 {
				inner = s.fresh()
			}
			s.changed = true
			f = &core.For{
				Var: f.Var,
				In: &core.For{
					Var:    inner,
					In:     f.In,
					Where:  core.Subst(f.Where, f.Var, &core.Var{Name: inner}),
					Return: &core.Var{Name: inner},
				},
				Return: f.Return,
			}
		}
	}
	for {
		inner, ok := f.Return.(*core.For)
		if !ok {
			return f
		}
		if f.Pos != "" || inner.Pos != "" {
			return f
		}
		if inner.Where != nil && core.Usage(inner.Where, f.Var) > 0 {
			return f
		}
		if core.Usage(inner.Return, f.Var) > 0 {
			return f
		}
		s.changed = true
		f = &core.For{
			Var: inner.Var,
			In: &core.For{
				Var:    f.Var,
				In:     f.In,
				Where:  f.Where,
				Return: inner.In,
			},
			Where:  inner.Where,
			Return: inner.Return,
		}
	}
}
