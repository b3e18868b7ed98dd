package join

import (
	"sync"

	"xqtp/internal/execctx"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// twigEval is the holistic twig-join evaluation of a single-output tree
// pattern (after TwigStack, Bruno et al. SIGMOD'02): one pre-sorted integer
// rank stream and one stack per query node, a getNext oracle that advances
// the streams in lockstep, and stack-encoded root-to-node chains. Nodes
// reach a stack only when their parent stack links them to a full root path,
// which keeps the candidate sets near the final matches for descendant
// edges; child edges are enforced afterwards in a merge-style refinement
// pass over the pre-sorted candidate lists (TwigStack is provably optimal
// only for descendant edges — the paper's observation that child steps do
// not penalize it in the in-memory model still shows in the refinement
// cost). Every structural check — stream advance, stack cleaning,
// containment, parent equality — is integer arithmetic over the tree's
// columns; the surviving output ranks are appended to dst.
//
// The streams come pre-resolved from the Prepared pattern; stacks and
// candidate lists live in a pooled arena, released after the result is
// copied out.
//
// The execution context is polled every 512 stream advances inside
// runTwigStack (its per-iteration work — getNext plus stack maintenance —
// is the twig join's unit of progress). A stopped run skips refinement and
// appends nothing; the arena is released through the same path as a
// completed run, so cancellation leaves the pool clean.
func twigEval(p *Prepared, ec *execctx.Ctx, ctx int32, dst []int32) []int32 {
	arena := getTwigBufs()
	q := buildQuery(p, ctx, arena)
	cols := p.cols
	if runTwigStack(q, cols, ec) {
		refine(q, cols)
		// Select the extraction-point candidates that sit on a refined root
		// path (top-down pass).
		topDown(q, cols)
		if ep := findOutput(q); ep != nil {
			dst = append(dst, ep.valid...)
		}
	}
	arena.release(q)
	return dst
}

// qnode is one query node of the twig.
type qnode struct {
	axis     xdm.Axis // edge from the parent (child/descendant/attribute)
	out      bool
	parent   *qnode
	children []*qnode

	stream []int32 // region-restricted pre-sorted rank stream
	pos    int     // stream cursor
	stack  []int32 // pooled

	cand  []int32 // ranks ever pushed (root-path connected), pre-sorted; pooled
	valid []int32 // candidates surviving refinement and the top-down pass; pooled
}

// twigBufs recycles the stacks and candidate lists of one twig evaluation.
// get hands out a recycled buffer (or nil, which append grows); release
// collects the possibly grown buffers back off the query tree.
type twigBufs struct {
	bufs [][]int32
	next int
}

var twigBufsPool = sync.Pool{New: func() any { return new(twigBufs) }}

func getTwigBufs() *twigBufs { return twigBufsPool.Get().(*twigBufs) }

func (a *twigBufs) get() []int32 {
	if a.next < len(a.bufs) {
		b := a.bufs[a.next]
		a.next++
		return b[:0]
	}
	return nil
}

func (a *twigBufs) release(root *qnode) {
	a.bufs = a.bufs[:0]
	var walk func(*qnode)
	walk = func(q *qnode) {
		a.bufs = append(a.bufs, q.stack[:0], q.cand[:0], q.valid[:0])
		for _, c := range q.children {
			walk(c)
		}
	}
	walk(root)
	a.next = 0
	twigBufsPool.Put(a)
}

// buildQuery turns the pattern into a query tree with region-restricted
// streams. The virtual root is the context node itself.
func buildQuery(p *Prepared, ctx int32, arena *twigBufs) *qnode {
	ctxPre, ctxEnd := ctx, p.cols.End(ctx)
	root := &qnode{}
	root.cand = append(arena.get(), ctxPre)
	root.valid = append(arena.get(), ctxPre)
	root.stack = append(arena.get(), ctxPre)
	var build func(parent *qnode, chain []cstep)
	build = func(parent *qnode, chain []cstep) {
		for i := range chain {
			s := &chain[i]
			q := &qnode{axis: s.axis, out: s.out, parent: parent}
			q.stream = xmlstore.RegionRanks(s.stream, ctxPre, ctxEnd)
			q.stack = arena.get()
			q.cand = arena.get()
			q.valid = arena.get()
			parent.children = append(parent.children, q)
			for _, pr := range s.preds {
				build(q, pr)
			}
			parent = q
		}
	}
	build(root, p.spine)
	return root
}

func (q *qnode) exhausted() bool { return q.pos >= len(q.stream) }
func (q *qnode) isLeaf() bool    { return len(q.children) == 0 }

// nextBegin returns the pre rank of the head of q's stream (infinity when
// exhausted).
func (q *qnode) nextBegin() int32 {
	if q.exhausted() {
		return int32(^uint32(0) >> 1)
	}
	return q.stream[q.pos]
}

// runTwigStack advances all streams in document order, pushing a rank onto
// its stack only when its parent's stack holds an ancestor (so every pushed
// rank lies on a root-connected chain). Pushed ranks are the candidate sets
// the refinement pass works from. Returns false when the execution context
// stopped the scan before the streams were exhausted.
func runTwigStack(root *qnode, cols *xdm.Cols, ec *execctx.Ctx) bool {
	tick := 0
	for {
		q := getNext(root)
		if q == nil {
			return true
		}
		tick++
		if tick&511 == 0 && ec.Stopped() {
			return false
		}
		n := q.stream[q.pos]
		q.pos++
		// Clean ancestor stacks of entries that end before n.
		cleanStacks(root, n, cols)
		if q.parent.topContains(n, cols) {
			q.stack = append(q.stack, n)
			q.cand = append(q.cand, n)
			if q.isLeaf() {
				// Leaves never gain children; keep the stack shallow.
				q.stack = q.stack[:len(q.stack)-1]
			}
		}
	}
}

// getNext returns the descendant-or-self query node whose stream head has
// the minimal pre rank and can still contribute (the simplified getNext
// oracle: streams are advanced globally in document order, which preserves
// the stack invariants that TwigStack relies on).
func getNext(root *qnode) *qnode {
	var best *qnode
	var walk func(*qnode)
	walk = func(q *qnode) {
		if q.parent != nil && !q.exhausted() {
			if best == nil || q.nextBegin() < best.nextBegin() {
				best = q
			}
		}
		for _, c := range q.children {
			walk(c)
		}
	}
	walk(root)
	return best
}

// cleanStacks pops entries whose region ends before rank n starts: they can
// never be ancestors of n or of anything after n. (An entry whose region
// still covers n — including the virtual root — ends at or after it.)
func cleanStacks(root *qnode, n int32, cols *xdm.Cols) {
	var walk func(*qnode)
	walk = func(q *qnode) {
		for len(q.stack) > 0 {
			top := q.stack[len(q.stack)-1]
			if cols.End(top) >= n {
				break
			}
			q.stack = q.stack[:len(q.stack)-1]
		}
		for _, c := range q.children {
			walk(c)
		}
	}
	walk(root)
}

// topContains reports whether some entry of q's stack is an ancestor of n.
// Stack entries form a nested chain; the top can be a rank equal to n
// (streams of different query nodes may share tags), so the scan walks down
// until a containing entry is found. Respecting the edge axis is left to
// refinement for child edges.
func (q *qnode) topContains(n int32, cols *xdm.Cols) bool {
	for i := len(q.stack) - 1; i >= 0; i-- {
		if cols.Contains(q.stack[i], n) {
			return true
		}
	}
	return false
}

// refine keeps, bottom-up, only the candidates that have a matching
// candidate for every query child under the right axis — a merge over the
// pre-sorted candidate lists.
func refine(root *qnode, cols *xdm.Cols) {
	var walk func(*qnode)
	walk = func(q *qnode) {
		for _, c := range q.children {
			walk(c)
		}
		if q.parent == nil {
			// The virtual root (the context node) only needs its children
			// checked.
			kept := q.valid[:0]
			for _, n := range q.valid {
				if supported(n, q, cols) {
					kept = append(kept, n)
				}
			}
			q.valid = kept
			return
		}
		q.valid = q.valid[:0]
		for _, n := range q.cand {
			if supported(n, q, cols) {
				q.valid = append(q.valid, n)
			}
		}
	}
	walk(root)
}

// supported reports whether rank n has, for every query child of q, a valid
// candidate in the required axis relation.
func supported(n int32, q *qnode, cols *xdm.Cols) bool {
	for _, c := range q.children {
		if !hasMatch(n, c, cols) {
			return false
		}
	}
	return true
}

// hasMatch checks whether any valid candidate of query node c stands in
// c.axis relation to n, by binary search over the pre-sorted candidates.
func hasMatch(n int32, c *qnode, cols *xdm.Cols) bool {
	cands := c.valid
	switch c.axis {
	case xdm.AxisDescendant:
		i := searchGE(cands, n+1)
		return i < len(cands) && cands[i] <= cols.End(n)
	case xdm.AxisChild, xdm.AxisAttribute:
		end := cols.End(n)
		for i := searchGE(cands, n+1); i < len(cands) && cands[i] <= end; i++ {
			if cols.Parent[cands[i]] == n {
				return true
			}
		}
		return false
	}
	return false
}

// topDown keeps only candidates whose parent query node has a valid
// candidate in the required relation, propagating root-path validity down
// to the extraction point.
func topDown(root *qnode, cols *xdm.Cols) {
	var walk func(*qnode)
	walk = func(q *qnode) {
		if q.parent != nil {
			kept := q.valid[:0]
			for _, n := range q.valid {
				if underSome(n, q.parent.valid, q.axis, cols) {
					kept = append(kept, n)
				}
			}
			q.valid = kept
		}
		for _, c := range q.children {
			walk(c)
		}
	}
	walk(root)
}

// underSome reports whether rank n stands in the axis relation below one of
// the pre-sorted parent candidates.
func underSome(n int32, parents []int32, axis xdm.Axis, cols *xdm.Cols) bool {
	switch axis {
	case xdm.AxisChild, xdm.AxisAttribute:
		p := cols.Parent[n]
		if p < 0 {
			return false
		}
		i := searchGE(parents, p)
		return i < len(parents) && parents[i] == p
	case xdm.AxisDescendant:
		// Ancestors have smaller pre; scan candidates with pre < n whose
		// region covers n. Binary search for the insertion point, then walk
		// left while regions can still cover n.
		i := searchGE(parents, n)
		for j := i - 1; j >= 0; j-- {
			p := parents[j]
			if cols.Contains(p, n) {
				return true
			}
			// Candidates are in pre order; an earlier candidate can still
			// contain n even if this one does not (siblings vs ancestors),
			// so keep scanning until pre ranks leave any plausible region.
			if cols.End(p) < n && cols.Parent[p] <= 0 {
				break
			}
		}
		return false
	}
	return false
}

// findOutput locates the query node carrying the output annotation.
func findOutput(root *qnode) *qnode {
	var found *qnode
	var walk func(*qnode)
	walk = func(q *qnode) {
		if q.out {
			found = q
		}
		for _, c := range q.children {
			walk(c)
		}
	}
	walk(root)
	return found
}
