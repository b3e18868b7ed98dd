package physical

import (
	"fmt"

	"xqtp/internal/execctx"
	"xqtp/internal/xdm"
)

// The batch bound of a batched MapToItem: it evaluates its dependency once
// the gathered tuples reach batchTuples or their contexts batchContexts, at a
// tuple with an atomic context, and at the end of its input. It is what a
// stop can cost beyond the items delivered: one batch of evaluation whose
// items are never emitted.
const (
	batchTuples   = 256
	batchContexts = 1024
)

// mapBatch is the batched form of a MapToItem's dependency, decided at
// lowering: every part reads the one field f of the input tuple (slot) and is
// either a dependent pattern operator in items mode over IN#f or a TreeJoin
// over IN#f — the return clause of a FLWOR over paths from its variable. The
// map then gathers its input tuples' f contexts and runs each part once over
// the whole batch (one kernel call per run of same-tree contexts, a step's
// RankTest resolved once per tree) instead of once per tuple, and emits each
// tuple's parts in input order — the items per-tuple evaluation gives, in its
// order and with its duplicates, and its first error at the same tuple.
type mapBatch struct {
	id    int // the batch's mapState in the run state
	slot  int
	parts []itemOp // *opTTP or *opTreeJoin
}

// mapState is what a batched MapToItem keeps within a run: the gathered
// tuples' contexts and each part's bindings over them.
type mapState struct {
	ctxs ctxSet
	outs []partOut
}

// partOut is one part's bindings over a batch, filed by tuple (rankSeg.fi),
// and the emission cursor over them: the next segment and where it starts.
type partOut struct {
	t          rankTable
	cur, start int
}

// batchOf returns the batched form of dep, or nil when some part is neither
// an items-mode dependent pattern over a field nor a TreeJoin over a field,
// or the parts read different fields.
func (c *compiler) batchOf(dep itemOp) *mapBatch {
	slot := fieldOf(dep)
	var parts []itemOp
	if s, ok := dep.(*opSequence); ok && len(s.parts) > 0 {
		slot = fieldOf(s.parts[0])
		for _, p := range s.parts[1:] {
			if fieldOf(p) != slot {
				return nil
			}
		}
		parts = s.parts
	}
	if slot < 0 {
		return nil
	}
	if parts == nil {
		parts = []itemOp{dep}
	}
	b := &mapBatch{id: len(c.p.batches), slot: slot, parts: parts}
	c.p.batches = append(c.p.batches, b)
	return b
}

// fieldOf returns the slot of the field a batchable part reads, or -1.
func fieldOf(part itemOp) int {
	switch x := part.(type) {
	case *opTTP:
		if x.dependent && x.itemField >= 0 {
			return x.inSlot
		}
	case *opTreeJoin:
		if f, ok := x.input.(*opField); ok {
			return f.slot
		}
	}
	return -1
}

// gather adds the input tuple's contexts to the batch, and evaluates the
// batch once it is full or the tuple fails.
func (o *opMapToItem) gather(rs *RunState) error {
	cs := &rs.maps[o.batch.id].ctxs
	cs.add(rs.fr[o.batch.slot])
	cs.endTuple()
	return o.flushFull(rs, cs)
}

// gatherTable is gather for the tuples of a pattern operator's bindings,
// field k of each one the tuple's one context: it takes the ranks of the
// table, so that no node is built for them.
func (o *opMapToItem) gatherTable(rs *RunState, t *rankTable, k int) error {
	cs := &rs.maps[o.batch.id].ctxs
	i := k
	for si := 0; si < t.nseg; si++ {
		s := t.seg(si)
		for ; i < s.end; i += t.nf {
			cs.addNode(s.tree, t.ranks[i])
			cs.endTuple()
			if err := o.flushFull(rs, cs); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushFull evaluates the batch when it has reached the batch bound or holds
// an atomic context, whose tuple fails.
func (o *opMapToItem) flushFull(rs *RunState, cs *ctxSet) error {
	if len(cs.ends) < batchTuples && len(cs.ranks) < batchContexts && cs.atom == nil {
		return nil
	}
	acc, err := o.flush(rs, rs.fr[o.acc])
	rs.fr[o.acc] = acc
	return err
}

// flush evaluates the dependency over the gathered tuples and emits their
// items in input order — to the run's sink at the plan root, else appended to
// dst — up to the first tuple whose evaluation fails, whose error it then
// returns. A stop of the execution context emits nothing of the batch: what
// a cut-short kernel returned is never taken for a result.
func (o *opMapToItem) flush(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	ms := &rs.maps[o.batch.id]
	cs := &ms.ctxs
	defer cs.reset()
	if len(cs.ends) == 0 {
		return dst, nil
	}
	ec := rs.rt.EC
	if err := ec.Err(); err != nil {
		return dst, err
	}
	// Each part runs over the tuples before the earliest failure found so
	// far: a later part's failure at an earlier tuple comes first in tuple
	// order, one at the same tuple does not.
	stop := len(cs.ends)
	var failure error
	for j, part := range o.batch.parts {
		if stop == 0 {
			break
		}
		out := &ms.outs[j]
		out.cur, out.start = 0, 0
		upto := int(cs.ends[stop-1])
		var at int
		var err error
		switch x := part.(type) {
		case *opTTP:
			at, err = x.bindBatch(rs.rt, &out.t, cs, upto)
		case *opTreeJoin:
			at, err = x.stepBatch(rs.rt, &out.t, cs, upto)
		}
		if err != nil {
			stop, failure = at, err
		}
	}
	if err := ec.Err(); err != nil {
		return dst, err
	}
	for fi := 0; fi < stop; fi++ {
		for j, part := range o.batch.parts {
			out := &ms.outs[j]
			t := &out.t
			k := 0
			if x, ok := part.(*opTTP); ok {
				k = x.itemField
			}
			for ; out.cur < t.nseg; out.cur++ {
				s := t.seg(out.cur)
				if s.fi != fi {
					break
				}
				ranks := t.ranks[out.start:s.end]
				out.start = s.end
				if !o.toSink {
					for i := k; i < len(ranks); i += t.nf {
						dst = append(dst, s.tree.Node(ranks[i]))
					}
				} else if err := execctx.DeliverNodes(ec, rs.sink, s.tree, ranks, k, t.nf); err != nil {
					return dst, err
				}
			}
		}
	}
	return dst, failure
}

// bindBatch fills t with the pattern's bindings from each tuple's contexts,
// ordered and duplicate-free within each tuple — the table a dependent
// evaluation per tuple would give, one tuple after the other. It returns the
// tuple that failed with the error, if one did.
func (o *opTTP) bindBatch(rt *Runtime, t *rankTable, cs *ctxSet, upto int) (int, error) {
	t.reset(len(o.outSlots))
	t.perTuple = true
	at, err := o.bindRuns(rt, t, cs, upto)
	if rt.EC.Stopped() {
		return at, err // flush discards the batch
	}
	// Bindings of the failed tuple and after stay in the table unemitted.
	if !t.ordered() {
		t.sort()
	}
	if o.first {
		t.keepFirst()
	}
	return at, err
}

// stepBatch fills t with the step's ranks from the contexts of cs before
// position upto, each filed under its tuple, in the order the TreeJoin
// appends them per tuple. The step's RankTest is compiled once per run of
// contexts in one tree (rankTest). It returns the tuple of the first atomic
// context with its error.
func (o *opTreeJoin) stepBatch(rt *Runtime, t *rankTable, cs *ctxSet, upto int) (int, error) {
	t.reset(1)
	yield := func(r int32) bool {
		t.ranks = append(t.ranks, r)
		return true
	}
	tp, _ := rt.Preps.(treePreps)
	fi, start := 0, int32(0)
	for _, run := range cs.runs {
		if int(start) >= upto {
			break
		}
		if run.tree == nil {
			return cs.tupleOf(start, &fi), fmt.Errorf("exec: TreeJoin applied to atomic value %T", cs.atom)
		}
		cols, test := run.tree.Cols, o.rankTest(tp, run.tree)
		for i := start; i < min(run.end, int32(upto)); i++ {
			xdm.EachStepRank(cols, cs.ranks[i], o.axis, test, yield)
			t.seal(cs.tupleOf(i, &fi), run.tree, len(t.ranks))
		}
		start = run.end
	}
	return 0, nil
}

// rankTest compiles the step's node test in tree t. A name test takes its
// symbol from the tree's owner when the runtime's prepared-join source holds
// the tree (a corpus member keeps the names its steps resolved, so a name is
// hashed once per member, not on every run), else from the tree's symbol
// table.
func (o *opTreeJoin) rankTest(tp treePreps, t *xdm.Tree) xdm.RankTest {
	if tp != nil && o.test.Kind == xdm.TestName {
		if s, owned := tp.SymFor(t, o.test.Name); owned {
			return o.test.OnSym(o.axis, s)
		}
	}
	return o.test.On(o.axis, t)
}
