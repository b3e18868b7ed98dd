package physical

import (
	"fmt"
	"slices"

	"xqtp/internal/execctx"
	"xqtp/internal/join"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// opTTP is the physical TupleTreePattern: a dependent join that matches its
// compiled pattern from the context nodes in the input slot of each input
// tuple and emits one output tuple per binding, in root-to-leaf lexical
// document order with duplicate bindings removed (§4.1). The operator
// carries everything resolvable before the first run — the validated
// pattern, the input and output slots, and the algorithm annotation (a
// fixed algorithm, or Auto for join.Prepared's rule) — so evaluation
// resolves only the per-document prepared join, from the runtime's
// prepared-join cache.
//
// Evaluation has two halves. bind takes contexts through the prepared join's
// kernel into the operator's rankTable: bindings as int32 pre ranks, ordered
// and duplicate-free. What reads the table depends on what reads the
// operator: a tuple stream for a consumer of tuples, items when the consumer
// only projects one output field (itemField) — then a binding is never
// anything but its ranks until the node is delivered.
//
// The operator gathers before it emits: binding order is decided over the
// whole input, so over a tuple stream it is its input's consumer and keeps,
// per input tuple, the context nodes — and, when it streams tuples itself,
// the items of the input slots its own consumers read (keep), which it writes
// back beside each binding. Over IN the frame is the one input tuple and
// nothing is kept.
type opTTP struct {
	stream
	input  tupleOp
	pat    *pattern.Pattern
	inSlot int // slot of the pattern's input field; -1: unbound (lazy error)
	// outSlots maps the pattern's output fields (root-to-leaf) to frame
	// slots.
	outSlots []int
	alg      join.Algorithm
	// dependent records that the input is IN: the current frame is the one
	// input tuple, and no tuple stream is evaluated to find it.
	dependent bool
	// first limits evaluation to the first binding in document order: the
	// lowering of Head(TupleTreePattern), which hands the nested-loop
	// algorithm its cursor-style early exit (§5.3).
	first bool
	// itemField, when >= 0, puts the operator in items mode: the lowering of
	// MapToItem{IN#f}(TupleTreePattern) with f the pattern's itemField-th
	// output field. The operator then evaluates to the item sequence of that
	// field over its bindings and builds no tuple at all. toSink marks the
	// plan root, whose table is delivered straight from the ranks.
	itemField int
	toSink    bool
	// minimized records that logical minimization changed the pattern at
	// lowering time (explain annotation only).
	minimized bool

	// Run-state layout: the operator's patState, the scratch slot of its
	// gathered contexts, and its singleton cells — one per output slot, then
	// one per kept slot.
	id, tmp, cell int
	// keep lists the slots bound by the input stream that the operator's
	// consumers read.
	keep []int
}

// patState is what a pattern operator keeps within a run: its rank table
// (the rank buffer is reused from one dependent evaluation to the next) and,
// when it streams tuples over a tuple stream, per input tuple the end of its
// contexts (ends) and the items of the kept slots (saved, len(keep) each).
type patState struct {
	t     rankTable
	ends  []int32
	saved []xdm.Item
	// one backs the gathered contexts while there is a single one, the usual
	// root-bound input.
	one [1]xdm.Item
}

// prepFor resolves the prepared join for one document: a tree of the
// runtime's catalog through the runtime's prepared-join owner, any other
// tree through the explicit bindings that brought it in (one-shot index
// build and preparation when the runtime carries neither).
func (o *opTTP) prepFor(rt *Runtime, t *xdm.Tree) (*join.Prepared, error) {
	if rt.Catalog != nil {
		if ix, ok := rt.Catalog.Lookup(t); ok {
			if rt.Preps != nil {
				return rt.Preps.Prepared(o.alg, ix, o.pat)
			}
			return join.Prepare(o.alg, ix, o.pat)
		}
	}
	if rt.Vars != nil {
		return rt.Vars.prepared(o.alg, t, o.pat)
	}
	return join.Prepare(o.alg, xmlstore.BuildIndex(t), o.pat)
}

func (o *opTTP) deliverToSink() { o.toSink = true }

// items is the operator in items mode.
func (o *opTTP) items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	t, err := o.bind(rs)
	switch {
	case err != nil:
		return dst, err
	case o.toSink:
		return dst, t.deliver(rs.rt.EC, rs.sink, o.itemField)
	}
	return t.appendItems(dst, o.itemField), nil
}

// run streams the bindings as tuples: the input tuple's kept slots and the
// binding's nodes, each in the singleton cell behind its slot.
func (o *opTTP) run(rs *RunState) error {
	t, err := o.bind(rs)
	if err != nil {
		return err
	}
	nf, nk := len(o.outSlots), len(o.keep)
	cells := rs.cells[o.cell : o.cell+nf+nk]
	for k, slot := range o.outSlots {
		rs.fr[slot] = cells[k : k+1 : k+1]
	}
	saved := rs.pats[o.id].saved
	i := 0
	for si := 0; si < t.nseg; si++ {
		s := t.seg(si)
		for k, slot := range o.keep {
			cells[nf+k] = saved[s.fi*nk+k]
			rs.fr[slot] = cells[nf+k : nf+k+1 : nf+k+1]
		}
		for i < s.end {
			for k := 0; k < nf; k++ {
				cells[k] = s.tree.Node(t.ranks[i])
				i++
			}
			if err := o.out.tuple(rs); err != nil {
				return err
			}
		}
	}
	return nil
}

// tuple gathers one tuple of the input stream: its context nodes and, when a
// consumer reads the input's slots, where they end and the items of the kept
// slots.
func (o *opTTP) tuple(rs *RunState) error {
	if o.inSlot < 0 {
		return fmt.Errorf("exec: pattern input field %s unbound", o.pat.Input)
	}
	rs.fr[o.tmp] = append(rs.fr[o.tmp], rs.fr[o.inSlot]...)
	if len(o.keep) > 0 {
		ps := &rs.pats[o.id]
		ps.ends = append(ps.ends, int32(len(rs.fr[o.tmp])))
		for _, slot := range o.keep {
			ps.saved = append(ps.saved, rs.fr[slot][0])
		}
	}
	return nil
}

// bind fills the operator's table with the pattern's bindings over every
// context node of every input tuple, ordered and duplicate-free. Every
// evaluation shape funnels through the stop check at its end, so a stopped
// execution context surfaces as the typed abort error and partial kernel
// results are never emitted.
func (o *opTTP) bind(rs *RunState) (*rankTable, error) {
	rt := rs.rt
	if err := rt.EC.Err(); err != nil {
		return nil, err
	}
	ps := &rs.pats[o.id]
	t := &ps.t
	t.reset(len(o.outSlots))
	var ctxs xdm.Sequence
	if o.dependent {
		if o.inSlot < 0 {
			return nil, fmt.Errorf("exec: pattern input field %s unbound", o.pat.Input)
		}
		ctxs = rs.fr[o.inSlot]
	} else {
		if rs.fr[o.tmp] == nil {
			rs.fr[o.tmp] = ps.one[:]
		}
		rs.fr[o.tmp], ps.ends, ps.saved = rs.fr[o.tmp][:0], ps.ends[:0], ps.saved[:0]
		if err := o.input.run(rs); err != nil {
			return nil, err
		}
		ctxs = rs.fr[o.tmp]
	}
	err := o.eachContext(rt, ctxs, ps.ends, func(fi int, ctx *xdm.Node, prep *join.Prepared) {
		switch {
		case rt.EC.Stopped():
			return
		case o.first:
			// First-match: the prepared join's cursor-style early exit
			// (§5.3) where it has one; the sort and keepFirst below pick
			// the document-order first of whatever it appends.
			t.ranks = prep.AppendFirst(rt.EC, ctx, t.ranks)
		default:
			t.ranks = prep.AppendRanks(rt.EC, ctx, t.ranks)
		}
		t.seal(fi, ctx.Doc)
	})
	if err != nil {
		return nil, err
	}
	if err := rt.EC.Err(); err != nil {
		return nil, err
	}
	if !t.ordered() {
		t.sort()
	}
	if o.first {
		t.keepFirst()
	}
	return t, nil
}

// eachContext calls fn for every context node (fi is the position of its
// input tuple: ends[fi-1] <= its position in ctxs < ends[fi]; 0 without ends,
// when nothing tells the input tuples apart)
// with the prepared join of the node's document, resolved once per run of
// contexts in the same document — with a single document, the common case,
// one lookup for the whole input.
func (o *opTTP) eachContext(rt *Runtime, ctxs xdm.Sequence, ends []int32, fn func(fi int, ctx *xdm.Node, prep *join.Prepared)) error {
	var prep *join.Prepared
	var tree *xdm.Tree
	fi := 0
	for i, it := range ctxs {
		for fi < len(ends) && i >= int(ends[fi]) {
			fi++
		}
		ctx, ok := it.(*xdm.Node)
		if !ok {
			return fmt.Errorf("exec: pattern context is atomic value %T", it)
		}
		if ctx.Doc != tree {
			var err error
			if prep, err = o.prepFor(rt, ctx.Doc); err != nil {
				return err
			}
			tree = ctx.Doc
		}
		fn(fi, ctx, prep)
	}
	return nil
}

// rankTable is the bindings of one pattern evaluation: nf int32 pre ranks per
// binding, root-to-leaf, in segments that share an input tuple and a tree. It
// is what the kernels produce (join.Prepared.AppendRanks appends into ranks)
// and the only form a binding has until a consumer asks for tuples or items;
// nodes[r] is resolved there, once. The table lives in its operator's run
// state, the one segment of the common case (one input tuple, one document)
// inline in it, so a dependent pattern's evaluation allocates what it returns
// and, once the rank buffer has grown to its largest result, nothing else.
type rankTable struct {
	nf    int
	ranks []int32
	// Segment i is done[i], the last one is last (seg, nseg).
	done []rankSeg
	last rankSeg
	nseg int
}

// rankSeg is a run of bindings of one input tuple (the fi-th) in one tree.
type rankSeg struct {
	fi   int
	tree *xdm.Tree
	end  int // offset in ranks one past the run's last binding
}

func (t *rankTable) seg(i int) *rankSeg {
	if i == len(t.done) {
		return &t.last
	}
	return &t.done[i]
}

// len returns the number of bindings.
func (t *rankTable) len() int {
	if t.nf == 0 {
		return 0
	}
	return len(t.ranks) / t.nf
}

// reset empties the table for an evaluation of nf-field bindings, keeping its
// buffers.
func (t *rankTable) reset(nf int) {
	*t = rankTable{nf: nf, ranks: t.ranks[:0], done: t.done[:0]}
}

// seal files the ranks appended since the previous seal as bindings of the
// fi-th input tuple in tree: more of the last segment when that is the same
// tuple's and tree's, a new segment otherwise.
func (t *rankTable) seal(fi int, tree *xdm.Tree) {
	end := len(t.ranks)
	switch {
	case end == t.last.end:
		return
	case t.nseg > 0 && t.last.fi == fi && t.last.tree == tree:
		t.last.end = end
		return
	case t.nseg > 0:
		t.done = append(t.done, t.last)
	}
	t.last = rankSeg{fi: fi, tree: tree, end: end}
	t.nseg++
}

// ordered reports whether the table already has the operator's output order:
// bindings strictly increasing on (tree ID, ranks…), which is root-to-leaf
// lexical document order without duplicates. It is one pass over the integers;
// bind sorts only when it fails. One kernel call from one context answers in
// order, and so do contexts met in document order whose results do not
// interleave — but nothing here relies on what a kernel returns.
func (t *rankTable) ordered() bool {
	nf, start := t.nf, 0
	increasing := func(i int) bool { // binding at rank offset i-nf before the one at i
		a, b := t.ranks[i-nf], t.ranks[i]
		return a < b || a == b && slices.Compare(t.ranks[i-nf+1:i], t.ranks[i+1:i+nf]) < 0
	}
	for si := 0; si < t.nseg; si++ {
		s := t.seg(si)
		if si > 0 {
			if prev := t.seg(si - 1).tree; prev.ID > s.tree.ID || prev.ID == s.tree.ID && !increasing(start) {
				return false
			}
		}
		for i := start + nf; i < s.end; i += nf {
			if !increasing(i) {
				return false
			}
		}
		start = s.end
	}
	return true
}

// sort rebuilds the table in order: a permutation of the bindings sorted on
// (tree ID, ranks…, input position), equal keys dropped after their first —
// the binding of the earliest input tuple survives, as under a stable sort.
func (t *rankTable) sort() {
	nf, n := t.nf, t.len()
	owner := make([]int32, n) // segment of each binding
	perm := make([]int32, n)
	b := 0
	for si := 0; si < t.nseg; si++ {
		for end := t.seg(si).end; b*nf < end; b++ {
			owner[b], perm[b] = int32(si), int32(b)
		}
	}
	key := func(b int32) []int32 { return t.ranks[int(b)*nf : int(b)*nf+nf] }
	cmp := func(a, b int32) int {
		if ta, tb := t.seg(int(owner[a])).tree, t.seg(int(owner[b])).tree; ta.ID != tb.ID {
			return ta.ID - tb.ID
		}
		return slices.Compare(key(a), key(b))
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := cmp(a, b); c != 0 {
			return c
		}
		return int(a - b)
	})
	sorted := rankTable{nf: nf, ranks: make([]int32, 0, len(t.ranks))}
	for i, b := range perm {
		if i > 0 && cmp(perm[i-1], b) == 0 {
			continue
		}
		sorted.ranks = append(sorted.ranks, key(b)...)
		s := t.seg(int(owner[b]))
		sorted.seal(s.fi, s.tree)
	}
	*t = sorted
}

// keepFirst drops every binding but the first.
func (t *rankTable) keepFirst() {
	if t.len() > 1 {
		first := *t.seg(0)
		first.end = t.nf
		*t = rankTable{nf: t.nf, ranks: t.ranks[:t.nf], last: first, nseg: 1}
	}
}

// appendItems reads the table as the item sequence of output field k,
// appended to dst grown once by the exact size: the projection
// MapToItem{IN#f} would compute from the tuples, without the tuples.
func (t *rankTable) appendItems(dst xdm.Sequence, k int) xdm.Sequence {
	dst = slices.Grow(dst, t.len())
	i := k
	for si := 0; si < t.nseg; si++ {
		s := t.seg(si)
		for ; i < s.end; i += t.nf {
			dst = append(dst, s.tree.Node(t.ranks[i]))
		}
	}
	return dst
}

// deliver is items for a plan root: output field k goes to the sink through
// the execution context's budgets straight from the ranks, so the result
// never exists as a sequence here and a budget stops delivery on the exact
// prefix.
func (t *rankTable) deliver(ec *execctx.Ctx, sink execctx.Sink, k int) error {
	start := 0
	for si := 0; si < t.nseg; si++ {
		s := t.seg(si)
		if err := execctx.DeliverNodes(ec, sink, s.tree, t.ranks[start:s.end], k, t.nf); err != nil {
			return err
		}
		start = s.end
	}
	return nil
}
