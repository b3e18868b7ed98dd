package join

import (
	"slices"
	"sync"

	"xqtp/internal/execctx"
	"xqtp/internal/xdm"
)

// scArena is the per-set scratch of the staircase join: the two candidate
// lists a spine pass swaps between, as int32 pre ranks — half the bytes per
// candidate of a node pointer and nothing for the GC to scan. One arena is
// fetched from a pool per context set (AppendRanksFor) and keeps the
// capacity its largest list needed; predicate branches are existence checks
// (scHas) and take no list at all.
type scArena struct {
	cur, next []int32
}

var scArenaPool = sync.Pool{New: func() any { return new(scArena) }}

// scFrom is the staircase-join evaluation of a single-output tree pattern:
// one set-at-a-time pass per location step. Descendant steps prune the
// context staircase (contexts covered by an earlier context are skipped)
// and scan the pre-resolved integer rank stream region by region, producing
// duplicate-free results in document order without an explicit sort.
// Containment and node tests are integer compares against the tree's
// columns; the kernel ends in ranks and never touches a node.
// Predicate branches are existence checks per candidate (scFilter) — the
// per-candidate work is what makes SCJoin degrade on complex twigs while it
// shines on linear paths (paper §5.2), so each check stops at its first
// witness.
//
// The per-step candidate lists live in the arena's two buffers, swapped each
// step; the final list is appended to dst before the buffers go back.
//
// The execution context is polled once per spine step, once per 64 contexts
// inside the descendant scans, and once per 64 candidates in the predicate
// filter — the stream-advance batch boundaries, so the unchunked inner
// region scans stay branch-free. A stopped evaluation appends nothing
// (AppendRanks' partial-result contract); the buffers go back to the arena
// through the same path as a completed run, so cancellation never leaks or
// corrupts pooled scratch. It runs from context rank ctx in an arena the
// caller holds, so that the contexts of a set (AppendRanksFor) share one.
func scFrom(p *Prepared, ec *execctx.Ctx, arena *scArena, ctx int32, dst []int32) []int32 {
	cur := append(arena.cur[:0], ctx)
	next := arena.next[:0]
	stopped := false
	for i := range p.spine {
		if ec.Stopped() {
			stopped = true
			break
		}
		s := &p.spine[i]
		next = scStep(p, ec, cur, s, next[:0])
		if len(s.preds) > 0 {
			next = scFilter(p, ec, next, s.preds)
		}
		cur, next = next, cur
		if len(cur) == 0 {
			break
		}
	}
	if !stopped {
		dst = append(dst, cur...)
	}
	arena.cur, arena.next = cur[:0], next[:0]
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

// scFilter keeps, in place, the candidates that pass every predicate
// branch. The candidates are in document order, so one cover suffices for
// the pruning rule: a candidate that failed a branch starting with a
// descendant step rejects, unevaluated, every later candidate inside its
// region (scPasses).
func scFilter(p *Prepared, ec *execctx.Ctx, cands []int32, preds [][]cstep) []int32 {
	kept := cands[:0]
	covered := int32(-1)
	for ci, c := range cands {
		if ci&63 == 63 && ec.Stopped() {
			break
		}
		if c <= covered {
			continue
		}
		if ok, cover := scPasses(p, c, preds); ok {
			kept = append(kept, c)
		} else if cover {
			covered = p.cols.End(c)
		}
	}
	return kept
}

// scPasses checks the predicate branches of rank r, scarcest first, each up
// to its first witness. When one fails, cover reports that it starts with a
// descendant or descendant-or-self step: every node inside r's region then
// fails it too, since such a node's witnesses are a subset of r's.
func scPasses(p *Prepared, r int32, preds [][]cstep) (ok, cover bool) {
	for _, pr := range preds {
		if !scHas(p, r, pr) {
			return false, descends(pr[0].axis)
		}
	}
	return true, false
}

// descends reports whether a chain starting with an axis-a step reaches, from
// a node inside another's region, only nodes that it reaches from the other.
func descends(a xdm.Axis) bool {
	return a == xdm.AxisDescendant || a == xdm.AxisDescendantOrSelf
}

// scHas reports whether chain has a match from rank ctx: a depth-first
// existence check that returns at the first witness and takes no buffer,
// sort or dedup. A child or attribute step walks ctx's children or
// attributes only until one passes the test, its own predicates and the rest
// of the chain. A descendant step probes its rank stream from ctx+1, so a
// last step without predicates costs one binary search; inside the region it
// skips the entries that lie inside an entry which failed a predicate branch
// or a rest of the chain starting with a descendant step (scPasses' cover).
// Branches run from single candidates, so their scans are short; the
// execution context is polled by the outer loops.
func scHas(p *Prepared, ctx int32, chain []cstep) bool {
	cols := p.cols
	s, rest := &chain[0], chain[1:]
	end := cols.End(ctx)
	switch s.axis {
	case xdm.AxisChild:
		for ch := cols.FirstChild(ctx); ch <= end; ch = cols.NextSibling(ch) {
			if s.test.Matches(cols, ch) && scWitness(p, ch, s, rest) {
				return true
			}
		}
	case xdm.AxisAttribute:
		for a := ctx + 1; a <= end && cols.Kind[a] == uint8(xdm.AttributeNode); a++ {
			if s.test.Matches(cols, a) && scWitness(p, a, s, rest) {
				return true
			}
		}
	case xdm.AxisSelf:
		return s.test.Matches(cols, ctx) && scWitness(p, ctx, s, rest)
	case xdm.AxisDescendant, xdm.AxisDescendantOrSelf:
		if s.axis == xdm.AxisDescendantOrSelf && s.test.Matches(cols, ctx) && scWitness(p, ctx, s, rest) {
			return true
		}
		stream := s.stream
		for pos := searchGE(stream, ctx+1); pos < len(stream) && stream[pos] <= end; {
			r := stream[pos]
			ok, cover := scPasses(p, r, s.preds)
			if ok {
				if len(rest) == 0 || scHas(p, r, rest) {
					return true
				}
				cover = descends(rest[0].axis)
			}
			if cover {
				pos = gallopRanks(stream, pos+1, cols.End(r)+1)
			} else {
				pos++
			}
		}
	}
	return false
}

// scWitness reports whether rank r, which passed step s's test, passes s's
// predicates and has a match of the rest of the chain.
func scWitness(p *Prepared, r int32, s *cstep, rest []cstep) bool {
	ok, _ := scPasses(p, r, s.preds)
	return ok && (len(rest) == 0 || scHas(p, r, rest))
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
