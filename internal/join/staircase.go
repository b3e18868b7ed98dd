package join

import (
	"slices"
	"sync"

	"xqtp/internal/execctx"
	"xqtp/internal/xdm"
)

// scArena is the per-evaluation scratch of the staircase join: a stack of
// candidate-list buffers handed out in LIFO order. Buffers hold int32 pre
// ranks, not node pointers — half the bytes per candidate and nothing for
// the GC to scan. One arena is fetched from a pool per context set
// (AppendRanksFor), so the per-candidate existential semi-joins
// (scExists runs once per candidate per predicate) reuse buffers with plain
// integer bookkeeping instead of hitting the pool in the hot loop.
type scArena struct {
	bufs [][]int32
	next int
}

// take hands out the index of a fresh (empty) buffer.
func (a *scArena) take() int {
	if a.next == len(a.bufs) {
		a.bufs = append(a.bufs, make([]int32, 0, 64))
	}
	i := a.next
	a.next++
	return i
}

// giveBack writes a possibly-grown buffer back to its slot so the arena
// keeps the capacity for the next use; callers then restore a.next to their
// saved mark.
func (a *scArena) giveBack(i int, b []int32) { a.bufs[i] = b[:0] }

var scArenaPool = sync.Pool{New: func() any { return new(scArena) }}

// scFrom is the staircase-join evaluation of a single-output tree pattern:
// one set-at-a-time pass per location step. Descendant steps prune the
// context staircase (contexts covered by an earlier context are skipped)
// and scan the pre-resolved integer rank stream region by region, producing
// duplicate-free results in document order without an explicit sort.
// Containment and node tests are integer compares against the tree's
// columns; the kernel ends in ranks and never touches a node.
// Predicate branches are evaluated as existential semi-joins per candidate
// — the per-candidate work is what makes SCJoin degrade on complex twigs
// while it shines on linear paths (paper §5.2).
//
// The per-step candidate lists live in arena buffers (two, swapped each
// step); the final list is appended to dst before the buffers go back.
//
// The execution context is polled once per spine step, once per 64 contexts
// inside the descendant scans, and once per 64 candidates in the predicate
// semi-join loop — the stream-advance batch boundaries, so the unchunked
// inner region scans stay branch-free. A stopped evaluation appends nothing
// (AppendRanks' partial-result contract); the arena goes back to the pool
// through the same path as a completed run, so cancellation never leaks or
// corrupts pooled scratch. It runs from context rank ctx in an arena the
// caller holds, so that the contexts of a set (AppendRanksFor) share one.
func scFrom(p *Prepared, ec *execctx.Ctx, arena *scArena, ctx int32, dst []int32) []int32 {
	mark := arena.next
	ai, bi := arena.take(), arena.take()
	cur := append(arena.bufs[ai][:0], ctx)
	next := arena.bufs[bi][:0]
	stopped := false
	for i := range p.spine {
		if ec.Stopped() {
			stopped = true
			break
		}
		s := &p.spine[i]
		next = scStep(p, ec, cur, s, next[:0])
		if len(s.preds) > 0 {
			kept := next[:0]
			for ci, cand := range next {
				if ci&63 == 63 && ec.Stopped() {
					break
				}
				if scPreds(p, arena, cand, s.preds) {
					kept = append(kept, cand)
				}
			}
			next = kept
		}
		cur, next = next, cur
		if len(cur) == 0 {
			break
		}
	}
	if !stopped {
		dst = append(dst, cur...)
	}
	arena.giveBack(ai, cur)
	arena.giveBack(bi, next)
	arena.next = mark
	return dst
}

// scStep performs one staircase step over a document-ordered duplicate-free
// context rank list, appending into dst (which must not alias ctxs).
func scStep(p *Prepared, ec *execctx.Ctx, ctxs []int32, s *cstep, dst []int32) []int32 {
	cols := p.cols
	axis, test := s.axis, s.test
	out := dst
	switch axis {
	case xdm.AxisDescendant, xdm.AxisDescendantOrSelf:
		stream := s.stream
		// Staircase pruning: skip contexts covered by the previous kept
		// context; the remaining regions are disjoint and ascending, so the
		// concatenation of region scans is already in document order, and a
		// single galloping cursor walks the stream monotonically instead of
		// binary-searching it from scratch per context.
		covered := int32(-1)
		pos := 0
		for ci, c := range ctxs {
			if ci&63 == 63 && ec.Stopped() {
				return out
			}
			if c <= covered {
				continue
			}
			end := cols.End(c)
			covered = end
			if axis == xdm.AxisDescendantOrSelf && test.Matches(cols, c) {
				out = append(out, c)
			}
			pos = gallopRanks(stream, pos, c+1)
			for pos < len(stream) && stream[pos] <= end {
				out = append(out, stream[pos])
				pos++
			}
		}
		return out
	case xdm.AxisChild:
		// Constant-cost child access via the size column (first child starts
		// after the attribute run, each sibling starts one past the previous
		// region); set-at-a-time with a final order/duplicate repair because
		// contexts may nest.
		for ci, c := range ctxs {
			if ci&63 == 63 && ec.Stopped() {
				break
			}
			end := cols.End(c)
			for ch := cols.FirstChild(c); ch <= end; ch = cols.NextSibling(ch) {
				if test.Matches(cols, ch) {
					out = append(out, ch)
				}
			}
		}
		if !sortedRanks(out) {
			slices.Sort(out)
		}
		return dedupRanks(out)
	case xdm.AxisAttribute:
		// Attributes are numbered directly after their owner element.
		for _, c := range ctxs {
			end := cols.End(c)
			for a := c + 1; a <= end && cols.Kind[a] == uint8(xdm.AttributeNode); a++ {
				if test.Matches(cols, a) {
					out = append(out, a)
				}
			}
		}
		if !sortedRanks(out) {
			slices.Sort(out)
		}
		return dedupRanks(out)
	case xdm.AxisSelf:
		for _, c := range ctxs {
			if test.Matches(cols, c) {
				out = append(out, c)
			}
		}
		return out
	}
	return out
}

// scPreds checks the predicate branches of a candidate as existential
// semi-joins using the same staircase primitives from a singleton context.
func scPreds(p *Prepared, arena *scArena, cand int32, preds [][]cstep) bool {
	for _, pr := range preds {
		if !scExists(p, arena, cand, pr) {
			return false
		}
	}
	return true
}

func scExists(p *Prepared, arena *scArena, ctx int32, chain []cstep) bool {
	mark := arena.next
	ai, bi := arena.take(), arena.take()
	cur := append(arena.bufs[ai][:0], ctx)
	next := arena.bufs[bi][:0]
	found := true
	for i := range chain {
		s := &chain[i]
		// Predicate semi-joins run from singleton contexts, so their scans
		// are short; the execution context is polled by the outer loops.
		next = scStep(p, nil, cur, s, next[:0])
		if len(s.preds) > 0 {
			kept := next[:0]
			for _, cand := range next {
				if scPreds(p, arena, cand, s.preds) {
					kept = append(kept, cand)
				}
			}
			next = kept
		}
		cur, next = next, cur
		if len(cur) == 0 {
			found = false
			break
		}
	}
	arena.giveBack(ai, cur)
	arena.giveBack(bi, next)
	arena.next = mark
	return found
}

// sortedRanks reports whether the ranks are strictly ascending.
func sortedRanks(rs []int32) bool {
	for i := 1; i < len(rs); i++ {
		if rs[i-1] >= rs[i] {
			return false
		}
	}
	return true
}

// dedupRanks removes adjacent duplicates from a sorted rank slice in place.
func dedupRanks(rs []int32) []int32 {
	if len(rs) < 2 {
		return rs
	}
	w := 1
	for i := 1; i < len(rs); i++ {
		if rs[i] != rs[w-1] {
			rs[w] = rs[i]
			w++
		}
	}
	return rs[:w]
}

// searchGE returns the first index whose rank is >= x (len(a) when none is).
func searchGE(a []int32, x int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallopRanks advances a forward-only cursor to the first index at or after
// pos whose rank is >= x: exponential probing brackets the boundary, binary
// search pins it. Cheap when the skip is short (the common case on dense
// streams), logarithmic in the skip when it is long.
func gallopRanks(a []int32, pos int, x int32) int {
	n := len(a)
	if pos >= n || a[pos] >= x {
		return pos
	}
	lo, hi, step := pos+1, n, 1
	for pos+step < n {
		if a[pos+step] < x {
			lo = pos + step + 1
			step <<= 1
		} else {
			hi = pos + step
			break
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
