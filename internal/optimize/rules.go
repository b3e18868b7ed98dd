package optimize

import (
	"xqtp/internal/algebra"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
)

// rename records a field substitution to apply to the whole plan after a
// rule fires (used by the map-collapse rules, whose local rewrite retargets
// consumers of the eliminated field).
type rename struct {
	from, to string
}

// tryRules tries every rule at node e (with the given set-tolerance) and
// returns the replacement, an optional plan-wide field rename, and whether
// a rule fired.
func (o *optimizer) tryRules(e algebra.Expr, tolerant bool) (algebra.Expr, *rename, bool) {
	if out, ok := o.ruleF(e); ok {
		return out, nil, true
	}
	if out, ok := o.ruleHead(e); ok {
		return out, nil, true
	}
	if out, ok := o.ruleB(e, tolerant); ok {
		return out, nil, true
	}
	// The per-tuple fallback (a) only runs once the bulk rules have reached
	// a fixpoint: a premature per-tuple conversion would hide a bulk
	// opportunity that inner conversions are about to expose.
	if o.enableFallback {
		if out, ok := o.ruleA(e); ok {
			return out, nil, true
		}
	}
	if out, ok := o.ruleFused(e); ok {
		return out, nil, true
	}
	if out, rn, ok := o.ruleC(e); ok {
		return out, rn, true
	}
	if out, ok := o.ruleD(e); ok {
		return out, nil, true
	}
	if out, ok := o.ruleE(e); ok {
		return out, nil, true
	}
	return e, nil, false
}

// singleStepTTP builds MapToItem{IN#out}(TupleTreePattern[IN#f/axis::test{out}](input)).
func (o *optimizer) singleStepTTP(f string, axis xdm.Axis, test xdm.NodeTest, input algebra.Expr) *algebra.MapToItem {
	out := o.fresh()
	st := pattern.NewStep(axis, test)
	st.Out = out
	return &algebra.MapToItem{
		Dep:   &algebra.Field{Name: out},
		Input: &algebra.TupleTreePattern{Pattern: pattern.New(f, st), Input: input},
	}
}

// convertibleField reports whether a TreeJoin input is a plain tuple-field
// access whose field holds single items (LetBind-bound names may hold whole
// sequences and are excluded).
func (o *optimizer) convertibleField(e algebra.Expr) (string, bool) {
	f, ok := e.(*algebra.Field)
	if !ok || o.letNames[f.Name] {
		return "", false
	}
	return f.Name, true
}

// ruleB is Fig. 3 rule (b), the bulk conversion:
//
//	MapToItem{TreeJoin[a](IN#f)}(Op) → MapToItem{IN#out}(TTP[IN#f/a{out}](Op))
//
// It reorders the concatenated result into document order (the operator's
// output is ddo'd over the whole stream), so it fires only when that is
// harmless: the consumer is set-tolerant (inside an fs:ddo region) or the
// field values are provably ordered and unnested across the stream. When it
// cannot fire, ruleA provides the per-tuple fallback.
func (o *optimizer) ruleB(e algebra.Expr, tolerant bool) (algebra.Expr, bool) {
	mti, ok := e.(*algebra.MapToItem)
	if !ok {
		return nil, false
	}
	tj, ok := mti.Dep.(*algebra.TreeJoin)
	if !ok {
		return nil, false
	}
	f, ok := o.convertibleField(tj.Input)
	if !ok {
		return nil, false
	}
	if !tolerant && !o.fieldUO(mti.Input, f) {
		return nil, false
	}
	return o.singleStepTTP(f, tj.Axis, tj.Test, mti.Input), true
}

// ruleA is Fig. 3 rule (a), the per-tuple conversion, applied where the
// bulk rule is not available:
//
//   - MapToItem{TreeJoin[a](IN#f)}(Op) →
//     MapToItem{MapToItem{IN#out}(TTP[IN#f/a{out}](IN))}(Op)
//     (the Q5 shape: a tree pattern evaluated inside a map), and
//   - fn:boolean(TreeJoin[a](IN#f)) →
//     fn:boolean(MapToItem{IN#out}(TTP[IN#f/a{out}](IN)))
//     (existence predicates, preparing rule (e)).
func (o *optimizer) ruleA(e algebra.Expr) (algebra.Expr, bool) {
	switch x := e.(type) {
	case *algebra.MapToItem:
		tj, ok := x.Dep.(*algebra.TreeJoin)
		if !ok {
			return nil, false
		}
		f, ok := o.convertibleField(tj.Input)
		if !ok {
			return nil, false
		}
		return &algebra.MapToItem{
			Dep:   o.singleStepTTP(f, tj.Axis, tj.Test, &algebra.In{}),
			Input: x.Input,
		}, true
	case *algebra.Call:
		if x.Name != "boolean" || len(x.Args) != 1 {
			return nil, false
		}
		tj, ok := x.Args[0].(*algebra.TreeJoin)
		if !ok {
			return nil, false
		}
		f, ok := o.convertibleField(tj.Input)
		if !ok {
			return nil, false
		}
		return &algebra.Call{
			Name: "boolean",
			Args: []algebra.Expr{o.singleStepTTP(f, tj.Axis, tj.Test, &algebra.In{})},
		}, true
	}
	return nil, false
}

// ruleFused is the composition of rules (a) and (c) for steps feeding a
// tuple constructor (predicate sub-plans):
//
//	MapFromItem{[g : IN]}(TreeJoin[a](IN#f)) → TTP[IN#f/a{g}](IN)
func (o *optimizer) ruleFused(e algebra.Expr) (algebra.Expr, bool) {
	mfi, ok := e.(*algebra.MapFromItem)
	if !ok {
		return nil, false
	}
	tj, ok := mfi.Input.(*algebra.TreeJoin)
	if !ok {
		return nil, false
	}
	f, ok := o.convertibleField(tj.Input)
	if !ok {
		return nil, false
	}
	st := pattern.NewStep(tj.Axis, tj.Test)
	st.Out = mfi.Bind
	return &algebra.TupleTreePattern{Pattern: pattern.New(f, st), Input: &algebra.In{}}, true
}

// ruleC is Fig. 3 rule (c), eliminating item-tuple conversions:
//
//	MapFromItem{[g : IN]}(MapToItem{IN#f}(Op)) → Op, renaming g to f in the
//	rest of the plan.
//
// Sound when f holds one item per tuple, which holds for fields produced by
// MapFromItem, MapIndex or pattern output annotations (LetBind-bound names
// are excluded).
func (o *optimizer) ruleC(e algebra.Expr) (algebra.Expr, *rename, bool) {
	mfi, ok := e.(*algebra.MapFromItem)
	if !ok {
		return nil, nil, false
	}
	mti, ok := mfi.Input.(*algebra.MapToItem)
	if !ok {
		return nil, nil, false
	}
	dep, ok := mti.Dep.(*algebra.Field)
	if !ok || o.letNames[dep.Name] {
		return nil, nil, false
	}
	return mti.Input, &rename{from: mfi.Bind, to: dep.Name}, true
}

// ruleD is Fig. 3 rule (d), merging consecutive steps:
//
//	TTP[IN#g/rest{out}](TTP[IN#f/spine{g}](Op)) → TTP[IN#f/spine/rest{out}](Op)
//
// when the inner pattern's only output is its extraction point g, the outer
// pattern is anchored at g, and g has no other consumers in the plan.
func (o *optimizer) ruleD(e algebra.Expr) (algebra.Expr, bool) {
	outer, ok := e.(*algebra.TupleTreePattern)
	if !ok {
		return nil, false
	}
	inner, ok := outer.Input.(*algebra.TupleTreePattern)
	if !ok {
		return nil, false
	}
	g, ok := inner.Pattern.SingleOutput()
	if !ok || outer.Pattern.Input != g {
		return nil, false
	}
	// The only consumer of g must be the outer pattern's anchor.
	if algebra.FieldUses(o.root, g) != 1 {
		return nil, false
	}
	merged := inner.Pattern.Clone()
	ep := merged.ExtractionPoint()
	ep.Out = ""
	ep.Next = outer.Pattern.Root.Clone()
	return &algebra.TupleTreePattern{Pattern: merged, Input: inner.Input}, true
}

// ruleE is Fig. 3 rule (e), merging existence predicates into the pattern:
//
//	Select{fn:boolean(MapToItem{IN#o}(TTP[IN#g/pred{o}](IN))) and …}(TTP[…{g}](Op))
//	→ TTP[…{g}[pred]…](Op)
//
// Conjuncts that are not in pattern-existence form stay in a residual
// Select (the Q2 behaviour: value comparisons are preserved).
func (o *optimizer) ruleE(e algebra.Expr) (algebra.Expr, bool) {
	sel, ok := e.(*algebra.Select)
	if !ok {
		return nil, false
	}
	ttp, ok := sel.Input.(*algebra.TupleTreePattern)
	if !ok {
		return nil, false
	}
	g, ok := ttp.Pattern.SingleOutput()
	if !ok {
		return nil, false
	}
	conjuncts := flattenAnd(sel.Pred)
	var branches []*pattern.Step
	var residual []algebra.Expr
	for _, c := range conjuncts {
		if br, ok := o.predBranch(c, g); ok {
			branches = append(branches, br)
		} else {
			residual = append(residual, c)
		}
	}
	if len(branches) == 0 {
		return nil, false
	}
	merged := ttp.Pattern.Clone()
	ep := merged.ExtractionPoint()
	ep.Preds = append(ep.Preds, branches...)
	var out algebra.Expr = &algebra.TupleTreePattern{Pattern: merged, Input: ttp.Input}
	if len(residual) > 0 {
		out = &algebra.Select{Pred: rebuildAnd(residual), Input: out}
	}
	return out, true
}

// predBranch recognizes fn:boolean(MapToItem{IN#o}(TTP[IN#g/chain{o}](IN)))
// and returns the chain as a predicate branch (output annotations cleared).
func (o *optimizer) predBranch(c algebra.Expr, g string) (*pattern.Step, bool) {
	call, ok := c.(*algebra.Call)
	if !ok || call.Name != "boolean" || len(call.Args) != 1 {
		return nil, false
	}
	mti, ok := call.Args[0].(*algebra.MapToItem)
	if !ok {
		return nil, false
	}
	dep, ok := mti.Dep.(*algebra.Field)
	if !ok {
		return nil, false
	}
	ttp, ok := mti.Input.(*algebra.TupleTreePattern)
	if !ok {
		return nil, false
	}
	if _, ok := ttp.Input.(*algebra.In); !ok {
		return nil, false
	}
	if ttp.Pattern.Input != g {
		return nil, false
	}
	out, ok := ttp.Pattern.SingleOutput()
	if !ok || out != dep.Name {
		return nil, false
	}
	return ttp.Pattern.Root.Clone().ClearOutputs(), true
}

// ruleF is Fig. 3 rule (f): the TupleTreePattern operator's output is
// already in distinct document order when its single output field is the
// extraction point, so a surrounding fs:ddo is redundant:
//
//	fs:ddo(MapToItem{IN#out}(TTP[p{out}](Op))) → MapToItem{IN#out}(TTP[p{out}](Op))
func (o *optimizer) ruleF(e algebra.Expr) (algebra.Expr, bool) {
	call, ok := e.(*algebra.Call)
	if !ok || call.Name != "ddo" || len(call.Args) != 1 {
		return nil, false
	}
	mti, ok := call.Args[0].(*algebra.MapToItem)
	if !ok {
		return nil, false
	}
	dep, ok := mti.Dep.(*algebra.Field)
	if !ok {
		return nil, false
	}
	ttp, ok := mti.Input.(*algebra.TupleTreePattern)
	if !ok {
		return nil, false
	}
	if out, ok := ttp.Pattern.SingleOutput(); !ok || out != dep.Name {
		return nil, false
	}
	return mti, true
}

// ruleHead is the positional-first physical rewrite:
//
//	Select{IN#p = 1}(MapIndex[p](Op)) → Head(Op)
//
// when p has no other consumers. It gives nested-loop plans their
// cursor-style early exit on [1] predicates (§5.3).
func (o *optimizer) ruleHead(e algebra.Expr) (algebra.Expr, bool) {
	sel, ok := e.(*algebra.Select)
	if !ok {
		return nil, false
	}
	mi, ok := sel.Input.(*algebra.MapIndex)
	if !ok {
		return nil, false
	}
	cmp, ok := sel.Pred.(*algebra.Compare)
	if !ok || cmp.Op != xdm.OpEq {
		return nil, false
	}
	f, ok := cmp.L.(*algebra.Field)
	if !ok || f.Name != mi.Field {
		return nil, false
	}
	c, ok := cmp.R.(*algebra.Const)
	if !ok {
		return nil, false
	}
	if n, ok := c.Item.(xdm.Integer); !ok || n != 1 {
		return nil, false
	}
	// p must have no consumers besides the comparison just removed.
	if algebra.FieldUses(o.root, mi.Field) != 1 {
		return nil, false
	}
	return &algebra.Head{Input: mi.Input}, true
}

func flattenAnd(e algebra.Expr) []algebra.Expr {
	if a, ok := e.(*algebra.And); ok {
		return append(flattenAnd(a.L), flattenAnd(a.R)...)
	}
	return []algebra.Expr{e}
}

func rebuildAnd(es []algebra.Expr) algebra.Expr {
	out := es[0]
	for _, e := range es[1:] {
		out = &algebra.And{L: out, R: e}
	}
	return out
}
