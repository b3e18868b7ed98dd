package join

import (
	"xqtp/internal/execctx"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
)

// nlTick polls the execution context once every 256 candidate nodes: the
// nested loop's unit of work is one candidate (an axis-step result fed
// through the predicate checks), so the counter bounds the time between
// polls without a branch-per-node channel probe. A nil context costs the
// increment and the mask test only.
func nlTick(ec *execctx.Ctx, n *int) bool {
	*n++
	if *n&255 != 0 || ec == nil {
		return false
	}
	return ec.Stopped()
}

// nlEval is the nested-loop (navigational) evaluation of a tree pattern:
// node-at-a-time recursion along the spine, existential early-exit checks
// for predicate branches. Bindings come out in lexical (context-major)
// order; the TupleTreePattern operator establishes the output order. A stop
// of ec cuts the recursion short, returning the bindings found so far
// (EvalCtx's partial-result contract).
func nlEval(ec *execctx.Ctx, ctx *xdm.Node, pat *pattern.Pattern) []Binding {
	var out []Binding
	tick := 0
	nlStep(ec, &tick, ctx, pat.Root, nil, &out)
	return out
}

// nlRanks appends nlEval's bindings to dst as pre ranks, one per output
// field. The nested loop itself stays on node pointers: it is the oracle the
// rank kernels are checked against.
func nlRanks(ec *execctx.Ctx, ctx *xdm.Node, pat *pattern.Pattern, dst []int32) []int32 {
	for _, b := range nlEval(ec, ctx, pat) {
		for _, n := range b {
			dst = append(dst, int32(n.Pre))
		}
	}
	return dst
}

func nlStep(ec *execctx.Ctx, tick *int, ctx *xdm.Node, s *pattern.Step, prefix Binding, out *[]Binding) bool {
	for _, cand := range xdm.Step(ctx, s.Axis, s.Test) {
		if nlTick(ec, tick) {
			return false
		}
		if !nlPreds(ec, tick, cand, s.Preds) {
			continue
		}
		b := prefix
		if s.Out != "" {
			b = append(append(Binding{}, prefix...), cand)
		}
		if s.Next == nil {
			if len(b) > 0 {
				*out = append(*out, b)
			}
			continue
		}
		if !nlStep(ec, tick, cand, s.Next, b, out) {
			return false
		}
	}
	return true
}

// nlPreds checks every predicate branch existentially.
func nlPreds(ec *execctx.Ctx, tick *int, ctx *xdm.Node, preds []*pattern.Step) bool {
	for _, p := range preds {
		if !nlExists(ec, tick, ctx, p) {
			return false
		}
	}
	return true
}

// nlExists reports whether the chain rooted at s has at least one match
// from ctx, with early exit.
func nlExists(ec *execctx.Ctx, tick *int, ctx *xdm.Node, s *pattern.Step) bool {
	for _, cand := range xdm.Step(ctx, s.Axis, s.Test) {
		if nlTick(ec, tick) {
			return false
		}
		if !nlPreds(ec, tick, cand, s.Preds) {
			continue
		}
		if s.Next == nil || nlExists(ec, tick, cand, s.Next) {
			return true
		}
	}
	return false
}

// nlFirst returns the lexically first binding without materializing the
// rest: the cursor-style evaluation that makes nested loops win on highly
// selective positional chains (§5.3).
func nlFirst(ec *execctx.Ctx, ctx *xdm.Node, pat *pattern.Pattern) (Binding, bool) {
	tick := 0
	return nlFirstStep(ec, &tick, ctx, pat.Root, nil)
}

func nlFirstStep(ec *execctx.Ctx, tick *int, ctx *xdm.Node, s *pattern.Step, prefix Binding) (Binding, bool) {
	// Child and attribute steps iterate the candidate lists directly so the
	// cursor stops at the first match without materializing siblings.
	var candidates []*xdm.Node
	switch s.Axis {
	case xdm.AxisChild:
		candidates = ctx.Children
	case xdm.AxisAttribute:
		candidates = ctx.Attrs
	default:
		candidates = xdm.Step(ctx, s.Axis, s.Test)
	}
	for _, cand := range candidates {
		if nlTick(ec, tick) {
			return nil, false
		}
		if !s.Test.Matches(s.Axis, cand) {
			continue
		}
		if !nlPreds(ec, tick, cand, s.Preds) {
			continue
		}
		b := prefix
		if s.Out != "" {
			b = append(append(Binding{}, prefix...), cand)
		}
		if s.Next == nil {
			if len(b) > 0 {
				return b, true
			}
			continue
		}
		if found, ok := nlFirstStep(ec, tick, cand, s.Next, b); ok {
			return found, true
		}
	}
	return nil, false
}
