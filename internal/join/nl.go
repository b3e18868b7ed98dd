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
// field. The nested loop navigates node by node through xdm.Step, which is
// held to the pointer data model's step (xdm's
// TestStepMatchesPointerReference): it is the oracle the rank kernels are
// checked against.
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
// selective positional chains (§5.3). spine, when not nil, is the
// pattern's spine compiled against ctx's tree, so the cursor resolves no
// name per call.
func nlFirst(ec *execctx.Ctx, ctx *xdm.Node, pat *pattern.Pattern, spine []cstep) (Binding, bool) {
	tick := 0
	return nlFirstStep(ec, &tick, ctx, pat.Root, spine, nil)
}

func nlFirstStep(ec *execctx.Ctx, tick *int, ctx *xdm.Node, s *pattern.Step, spine []cstep, prefix Binding) (Binding, bool) {
	// Child and attribute steps walk the context's columns so the cursor
	// stops at the first match, testing each candidate rank before a node is
	// built for it. An element's attributes are the ranks between it and its
	// first child; NextSibling steps over an attribute's empty region.
	if t := ctx.Doc; t != nil && (s.Axis == xdm.AxisChild || s.Axis == xdm.AxisAttribute) {
		var m xdm.RankTest
		if spine != nil {
			m = spine[0].test
		} else {
			m = s.Test.On(s.Axis, t)
		}
		c, r := t.Cols, int32(ctx.Pre)
		p, stop := c.FirstChild(r), c.End(r)+1
		if s.Axis == xdm.AxisAttribute {
			p, stop = r+1, p
		}
		for ; p < stop && !m.Empty(); p = c.NextSibling(p) {
			if nlTick(ec, tick) {
				return nil, false
			}
			if !m.Matches(c, p) {
				continue
			}
			if b, ok := nlFirstFrom(ec, tick, t.Node(p), s, spine, prefix); ok {
				return b, true
			}
		}
		return nil, false
	}
	for _, cand := range xdm.Step(ctx, s.Axis, s.Test) {
		if nlTick(ec, tick) {
			return nil, false
		}
		if b, ok := nlFirstFrom(ec, tick, cand, s, spine, prefix); ok {
			return b, true
		}
	}
	return nil, false
}

// nlFirstFrom continues the cursor from cand, a match of step s.
func nlFirstFrom(ec *execctx.Ctx, tick *int, cand *xdm.Node, s *pattern.Step, spine []cstep, prefix Binding) (Binding, bool) {
	if !nlPreds(ec, tick, cand, s.Preds) {
		return nil, false
	}
	b := prefix
	if s.Out != "" {
		b = append(append(Binding{}, prefix...), cand)
	}
	if s.Next == nil {
		return b, len(b) > 0
	}
	if spine != nil {
		spine = spine[1:]
	}
	return nlFirstStep(ec, tick, cand, s.Next, spine, b)
}
