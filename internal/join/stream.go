package join

import (
	"math/bits"
	"slices"

	"xqtp/internal/execctx"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
)

// Streaming is the streaming XPath evaluator the paper's conclusion lists
// as future work: linear child/descendant patterns are matched in a single
// preorder scan of the context subtree with a stack of per-level automaton
// states — no per-tag index streams, no navigation, one sequential pass
// (the shape a SAX-based engine would use). The scan reads the kind/sym/size
// columns directly: per node it is a byte load, an int32 compare per active
// state, and an int32 jump for skipped subtrees — no node object is touched.
//
// Patterns with predicate branches, attribute steps or reverse axes fall
// back to the nested loop.
const Streaming Algorithm = 254

// streamSupported reports whether the single scan can evaluate the pattern:
// a linear spine of child/descendant steps with name/star tests.
func streamSupported(p *pattern.Pattern) bool {
	for s := p.Root; s != nil; s = s.Next {
		if len(s.Preds) > 0 {
			return false
		}
		switch s.Axis {
		case xdm.AxisChild, xdm.AxisDescendant:
		default:
			return false
		}
		switch s.Test.Kind {
		case xdm.TestName, xdm.TestStar:
		default:
			return false
		}
	}
	return true
}

// streamEval runs the stack automaton over the preorder columns of the
// context's subtree. The automaton state is the set of pattern steps
// "active" at the current tree level, held in a bitmask (bit i = "the next
// step to match is spine[i]"); a node matching the final step is an answer.
// States are propagated level by level using an explicit stack of
// (subtree-end, bitmask) frames, so the whole evaluation is one linear scan
// with no per-node allocation; answers are appended to dst as the scan meets
// them. The execution context is polled once per 8192 preorder ranks — the
// scan's batch boundary; a stopped scan appends nothing (AppendRanks'
// partial-result contract).
func streamEval(p *Prepared, ec *execctx.Ctx, ctx int32, dst []int32) []int32 {
	spine := p.spine
	var descMask uint64
	for i := range spine {
		if spine[i].axis == xdm.AxisDescendant {
			descMask |= 1 << uint(i)
		}
	}
	n := len(spine)
	if n > 63 {
		// Absurdly deep pattern: fall back to the nested loop's bindings, put
		// into the order the scan would have met them in.
		start := len(dst)
		dst = p.nlAppend(ec, ctx, dst)
		slices.Sort(dst[start:])
		return dst[:start+len(dedupRanks(dst[start:]))]
	}
	finalBit := uint64(1) << uint(n-1)

	type frame struct {
		until  int32  // preorder rank where this frame's subtree ends
		states uint64 // active state bitmask for this level
	}
	cols := p.cols
	kindCol, sizeCol := cols.Kind, cols.Size
	end := cols.End(ctx)
	stack := []frame{{until: end, states: 1}}
	start := len(dst)

	lo, hi := ctx+1, end
	for pre := lo; pre <= hi; pre++ {
		if pre&8191 == 0 && ec.Stopped() {
			return dst[:start]
		}
		kind := kindCol[pre]
		if kind == uint8(xdm.AttributeNode) {
			continue
		}
		// Pop frames whose subtree ended before this node.
		for len(stack) > 1 && stack[len(stack)-1].until < pre {
			stack = stack[:len(stack)-1]
		}
		cur := stack[len(stack)-1].states
		// Descendant states persist downward; matched states advance.
		next := cur & descMask
		if kind == uint8(xdm.ElementNode) {
			for rest := cur; rest != 0; rest &= rest - 1 {
				i := bits.TrailingZeros64(rest)
				// Spine tests are name or star on an element axis.
				if spine[i].test.Matches(cols, pre) {
					if uint64(1)<<uint(i) == finalBit {
						dst = append(dst, pre)
						// Dedup: a node accepted once is enough.
						break
					}
					next |= 1 << uint(i+1)
				}
			}
		}
		if size := sizeCol[pre]; size > 0 {
			if next == 0 {
				// No state can fire anywhere below: skip the subtree.
				pre += size
				continue
			}
			stack = append(stack, frame{until: pre + size, states: next})
		}
	}
	return dst
}
