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

	// Run-state layout: the operator's patState and its singleton cells —
	// one per output slot, then one per kept slot.
	id, cell int
	// keep lists the slots bound by the input stream that the operator's
	// consumers read.
	keep []int
	// feed, when set, is the operator's consumer: a batched MapToItem over
	// the output field feedField, which takes the bindings as contexts
	// straight from the ranks instead of as tuples (opMapToItem.gatherTable).
	feed      *opMapToItem
	feedField int
}

// patState is what a pattern operator keeps within a run: its rank table
// (the rank buffer is reused from one dependent evaluation to the next), its
// contexts and, when it streams tuples over a tuple stream, per input tuple
// the end of its contexts (ctxs.ends) and the items of the kept slots (saved,
// len(keep) each).
type patState struct {
	t     rankTable
	ctxs  ctxSet
	saved []xdm.Item
}

// prepFor resolves the prepared join for one document: from the runtime's
// prepared-join source when that owns the tree (the member of a member run,
// the member holding it in a corpus-wide run), through the runtime's catalog
// for another tree the catalog holds, and through the explicit bindings that
// brought it in for any other tree (one-shot index build and preparation
// when the runtime carries neither).
func (o *opTTP) prepFor(rt *Runtime, t *xdm.Tree) (*join.Prepared, error) {
	if tp, ok := rt.Preps.(treePreps); ok {
		if p, owned, err := tp.PreparedFor(o.alg, t, o.pat); owned {
			return p, err
		}
	}
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
	if o.feed != nil {
		return o.feed.gatherTable(rs, t, o.feedField)
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
	ps := &rs.pats[o.id]
	ps.ctxs.add(rs.fr[o.inSlot])
	if len(o.keep) > 0 {
		ps.ctxs.endTuple()
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
	ps.ctxs.reset()
	if o.dependent {
		if o.inSlot < 0 {
			return nil, fmt.Errorf("exec: pattern input field %s unbound", o.pat.Input)
		}
		ps.ctxs.add(rs.fr[o.inSlot])
	} else {
		ps.saved = ps.saved[:0]
		if err := o.input.run(rs); err != nil {
			return nil, err
		}
	}
	if _, err := o.bindRuns(rt, t, &ps.ctxs, len(ps.ctxs.ranks)); err != nil {
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

// ctxSet is the context nodes of a pattern evaluation in the shape the
// prepared join takes a set in (join.Prepared.AppendRanksFor): pre ranks in
// input order, in runs of one tree, and — when the input tuples must be told
// apart — where each tuple's contexts end (ends[fi] is one past the fi-th
// tuple's last). An atomic item keeps its place as a rank in a run of its
// own without a tree, so that its error is raised at its tuple; atom is the
// first one.
type ctxSet struct {
	ranks []int32
	runs  []ctxRun
	ends  []int32
	atom  xdm.Item
	// kends is the scratch of bindRuns: the kernel's per-context ends.
	kends []int32
	// oneRank, oneRun and oneEnd back ranks, runs and kends until a second
	// context comes: a root-bound pattern has one, and a plan that runs once
	// (an ad-hoc query) then allocates nothing for it.
	oneRank, oneEnd [1]int32
	oneRun          [1]ctxRun
}

// ctxRun is a run of contexts in one tree (nil: an atomic item), ending one
// before ranks[end].
type ctxRun struct {
	tree *xdm.Tree
	end  int32
}

func (c *ctxSet) reset() {
	if c.ranks == nil {
		c.ranks, c.runs, c.kends = c.oneRank[:0], c.oneRun[:0], c.oneEnd[:0]
	}
	c.ranks, c.runs, c.ends, c.atom = c.ranks[:0], c.runs[:0], c.ends[:0], nil
}

// addNode appends the context of rank r in tree t.
func (c *ctxSet) addNode(t *xdm.Tree, r int32) {
	c.ranks = append(c.ranks, r)
	if n := len(c.runs); n > 0 && c.runs[n-1].tree == t {
		c.runs[n-1].end++
		return
	}
	c.runs = append(c.runs, ctxRun{tree: t, end: int32(len(c.ranks))})
}

// add appends the items of one tuple's context field.
func (c *ctxSet) add(items xdm.Sequence) {
	for _, it := range items {
		if n, ok := it.(*xdm.Node); ok {
			c.addNode(n.Doc, int32(n.Pre))
			continue
		}
		if c.atom == nil {
			c.atom = it
		}
		c.ranks = append(c.ranks, -1)
		c.runs = append(c.runs, ctxRun{end: int32(len(c.ranks))})
	}
}

// endTuple ends the contexts of one input tuple.
func (c *ctxSet) endTuple() { c.ends = append(c.ends, int32(len(c.ranks))) }

// tupleOf returns the input tuple of the context at position i, moving the
// cursor *fi (which only moves forward) there.
func (c *ctxSet) tupleOf(i int32, fi *int) int {
	for *fi < len(c.ends) && i >= c.ends[*fi] {
		*fi++
	}
	return *fi
}

// bindRuns appends to t the bindings from the contexts of cs before
// position upto, each filed under its input tuple (tuple 0 without ends).
// Each run of contexts in one document goes through that document's
// prepared join in one call — with a single document, the common case, one
// call for the whole input. An atomic context, or a document whose join
// cannot be prepared, fails its tuple: bindRuns then returns that tuple with
// the error.
func (o *opTTP) bindRuns(rt *Runtime, t *rankTable, cs *ctxSet, upto int) (int, error) {
	fi, start := 0, int32(0)
	for _, run := range cs.runs {
		if int(start) >= upto {
			break
		}
		if run.tree == nil {
			return cs.tupleOf(start, &fi), fmt.Errorf("exec: pattern context is atomic value %T", cs.atom)
		}
		prep, err := o.prepFor(rt, run.tree)
		if err != nil {
			return cs.tupleOf(start, &fi), err
		}
		ranks := cs.ranks[start:min(int(run.end), upto)]
		// First-match: the prepared join's cursor-style early exit (§5.3)
		// where it has one; the sort and keepFirst pick the document-order
		// first of whatever it appends.
		if o.first {
			t.ranks, cs.kends = prep.AppendFirstFor(rt.EC, ranks, t.ranks, cs.kends[:0])
		} else {
			t.ranks, cs.kends = prep.AppendRanksFor(rt.EC, ranks, t.ranks, cs.kends[:0])
		}
		if len(cs.ends) == 0 {
			t.seal(0, run.tree, len(t.ranks))
		} else {
			for k, end := range cs.kends {
				t.seal(cs.tupleOf(start+int32(k), &fi), run.tree, int(end))
			}
		}
		start = run.end
	}
	return cs.tupleOf(int32(upto), &fi), nil
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
	nf int
	// perTuple orders and deduplicates the bindings within each input tuple
	// only: a batched MapToItem's table holds one evaluation per tuple.
	perTuple bool
	ranks    []int32
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

// seal files the ranks from the previous seal's end to end as bindings of
// the fi-th input tuple in tree: more of the last segment when that is the
// same tuple's and tree's, a new segment otherwise.
func (t *rankTable) seal(fi int, tree *xdm.Tree, end int) {
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
// lexical document order without duplicates — within each input tuple when
// perTuple is set. It is one pass over the integers; bind sorts only when it
// fails. One kernel call from one context answers in
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
			prev := t.seg(si - 1)
			sameOrder := !t.perTuple || prev.fi == s.fi
			if sameOrder && (prev.tree.ID > s.tree.ID || prev.tree.ID == s.tree.ID && !increasing(start)) {
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
// With perTuple the input tuple leads the key, so each tuple's bindings are
// sorted and deduplicated among themselves.
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
		sa, sb := t.seg(int(owner[a])), t.seg(int(owner[b]))
		if t.perTuple && sa.fi != sb.fi {
			return sa.fi - sb.fi
		}
		if sa.tree.ID != sb.tree.ID {
			return sa.tree.ID - sb.tree.ID
		}
		return slices.Compare(key(a), key(b))
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := cmp(a, b); c != 0 {
			return c
		}
		return int(a - b)
	})
	sorted := rankTable{nf: nf, perTuple: t.perTuple, ranks: make([]int32, 0, len(t.ranks))}
	for i, b := range perm {
		if i > 0 && cmp(perm[i-1], b) == 0 {
			continue
		}
		sorted.ranks = append(sorted.ranks, key(b)...)
		s := t.seg(int(owner[b]))
		sorted.seal(s.fi, s.tree, len(sorted.ranks))
	}
	*t = sorted
}

// keepFirst drops every binding but the first — of each input tuple when
// perTuple is set.
func (t *rankTable) keepFirst() {
	if t.perTuple {
		t.keepFirstEach()
		return
	}
	if t.len() > 1 {
		first := *t.seg(0)
		first.end = t.nf
		*t = rankTable{nf: t.nf, ranks: t.ranks[:t.nf], last: first, nseg: 1}
	}
}

// keepFirstEach keeps the first binding of each input tuple, in place: the
// bindings and segments it keeps are written at or before where they are
// read.
func (t *rankTable) keepFirstEach() {
	nf, n := t.nf, t.nseg
	kept := rankTable{nf: nf, perTuple: true, ranks: t.ranks[:0], done: t.done[:0]}
	start := 0
	for si := 0; si < n; si++ {
		s := *t.seg(si)
		if kept.nseg == 0 || kept.last.fi != s.fi {
			kept.ranks = append(kept.ranks, t.ranks[start:start+nf]...)
			kept.seal(s.fi, s.tree, len(kept.ranks))
		}
		start = s.end
	}
	*t = kept
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
