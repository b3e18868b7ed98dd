package xqtp

import (
	"context"
	"sync/atomic"

	"xqtp/internal/collection"
	"xqtp/internal/execctx"
	"xqtp/internal/physical"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// ErrCanceled reports a run cut short by its context: cancellation or an
// expired deadline. Match with errors.Is; the concrete error is a *RunError
// carrying the rows delivered before the stop, and unwraps to the context's
// cause (context.Canceled or context.DeadlineExceeded).
var ErrCanceled = execctx.ErrCanceled

// ErrBudgetExceeded reports a run stopped by its row or byte budget. The
// delivered results are exactly the first rows of the full result in
// document order; the concrete error is a *RunError carrying the counts.
var ErrBudgetExceeded = execctx.ErrBudgetExceeded

// RunError is the typed abort error of a canceled or budget-stopped run:
// the reason (ErrCanceled or ErrBudgetExceeded) plus the rows and bytes
// delivered before the stop.
type RunError = execctx.Error

// Sink receives result items as a run produces them. Push returning an
// error aborts the run; the error comes back from the Run call. A Sink is
// called from the run's merging goroutine only — implementations need no
// locking against the run itself.
type Sink = execctx.Sink

// RunOptions configures a context-aware run; deadlines and timeouts come
// with the context. The zero value means no budgets, one worker per CPU on
// a Corpus run, and results collected into the returned Sequence.
type RunOptions struct {
	// Workers is how many corpus members a Corpus run evaluates at once; <= 0
	// means one per available CPU, and the count is capped at the member
	// count. A Document run, and a corpus plan that calls fn:doc or
	// fn:collection, evaluates once on the calling goroutine and ignores it.
	Workers int
	// MaxRows, when positive, stops the run after that many result items
	// have been delivered; the run returns ErrBudgetExceeded and the
	// delivered items are the first MaxRows of the full result in document
	// order.
	MaxRows int64
	// MaxBytes, when positive, stops the run once the delivered items'
	// estimated size exceeds it (node items weigh in at their subtree size,
	// atomics at their lexical length).
	MaxBytes int64
	// Sink, when non-nil, receives result items as the run produces them;
	// the returned Sequence is then nil. A nil Sink collects into the
	// returned Sequence.
	Sink Sink
	// Vars, when non-nil, binds the query's free variables explicitly: a
	// variable it leaves out is unbound, and the context item is bound only
	// by a "dot" entry. A Corpus run with Vars evaluates once, with the
	// corpus as document resolver, as a plan calling fn:collection does: the
	// bindings are not per member.
	Vars map[string]Sequence
}

// RunInfo reports what one context-aware run delivered.
type RunInfo struct {
	// Rows counts the delivered result items, on every run. Bytes is their
	// estimated size, metered only under a MaxBytes budget.
	Rows, Bytes int64
	// Members is the number of corpus members the run addressed — the corpus
	// size for a Corpus run, 1 for a Document run (a document is a one-member
	// corpus) — and Skipped how many of them the emptiness proof elided
	// without evaluation (always 0 for a Document run, which has no skip
	// test).
	Members, Skipped int
}

// RunWith evaluates the query against a document under a context with
// deadlines, budgets, and streaming delivery. Result items flow to opts.Sink
// as they are produced (a nil Sink collects them into the returned
// Sequence). On cancellation or a spent budget the delivered items are a
// prefix of the full result in document order, the returned Sequence
// (nil-Sink case) holds that prefix, and the error matches ErrCanceled or
// ErrBudgetExceeded. A member view of a Corpus resolves fn:doc and
// fn:collection corpus-wide. The run evaluates on the calling goroutine;
// opts.Workers does not apply.
func (q *Query) RunWith(ctx context.Context, doc *Document, alg Algorithm, opts RunOptions) (Sequence, RunInfo, error) {
	return run(ctx, q, doc.c, doc.i, alg, opts)
}

// RunWith evaluates the query against the corpus, in one of two shapes
// chosen by the plan and opts.Vars:
//
// Root-bound plans (no fn:doc/fn:collection, no opts.Vars) fan out one
// evaluation per member, opts.Workers members at once (<= 0: one per
// available CPU, capped at the member count) — the context item and every
// free variable bound to the member's document node, exactly as
// Query.RunWith binds a single Document — and the per-document results merge
// in corpus order, so the output is byte-identical at any worker count.
// Members where some required step of the plan (physical.RequiredSteps over
// the conjunctive patterns) has an empty rank stream — the name absent
// entirely, or present only as the wrong node kind — are skipped without
// evaluation; the members that do run pick their algorithm per member
// through the cost model when alg is Auto.
//
// Plans that call fn:doc or fn:collection, and runs with opts.Vars, see the
// whole corpus at once: they evaluate once, on the calling goroutine, with
// the corpus bound as the document resolver; opts.Workers does not apply.
//
// Results flow to opts.Sink in corpus order as the merge admits them (a nil
// Sink collects into the returned Sequence). Budgets are charged at the
// merge point, so a stopped run's delivered items are exactly the first rows
// of the full corpus-order result; in-flight member evaluations past the
// stop are cut short and discarded.
func (c *Corpus) RunWith(ctx context.Context, q *Query, alg Algorithm, opts RunOptions) (Sequence, RunInfo, error) {
	return run(ctx, q, c.c, allMembers, alg, opts)
}

// allMembers is run's member argument for a whole-corpus evaluation.
const allMembers = -1

// run is the one evaluation path behind every public Run*: closed check,
// physical plan, execution context, runtime, then one of three shapes.
// member selects one member of c or allMembers. Without opts.Vars the context
// item and every free variable are bound to the evaluated member's document
// node.
//
// A single member, any plan that reaches documents through
// fn:doc/fn:collection, and any run with explicit bindings evaluate once,
// streaming to the sink under the full execution context. Otherwise the plan
// fans out. With one worker corpus order is evaluation order: each admitted
// member's plan streams into the sink like a single member's, budgets charged
// at delivery, all members in one run state. With more, member evaluations
// run under a cancel-only view of ec — they observe the stop but never charge
// the budgets — and the merge charges each delivered item in corpus order, so
// budget cutoffs land on the exact corpus-order prefix regardless of how the
// worker pool interleaved.
func run(ctx context.Context, q *Query, c *collection.Corpus, member int, alg Algorithm, opts RunOptions) (_ Sequence, _ RunInfo, err error) {
	// Every shape may read the pages of a mapped snapshot on this goroutine:
	// a fault on a page the file no longer backs is the run's error, naming
	// the member whose bytes it hit. (Fan-out members guard their own runs, on
	// whichever goroutine evaluates them.)
	defer func() { err = c.NameFault(err) }()
	defer xmlstore.CatchFault(xmlstore.ArmFaults(), &err)
	if c.Closed() {
		return nil, RunInfo{}, ErrClosed
	}
	p, err := q.physicalPlan(alg)
	if err != nil {
		return nil, RunInfo{}, err
	}
	ec := execctx.From(ctx, opts.MaxRows, opts.MaxBytes)
	defer ec.Release()
	// The runtime and the default sink share one allocation, so a plain
	// Query.Run allocates nothing for collecting its result; the run state
	// comes from the plan's pool. Prepared joins belong to the corpus: each
	// lives on the member it was prepared against, which the owner finds by
	// tree (a bound node of some other document is prepared in the bindings
	// that brought it, for this run only).
	var st struct {
		m     memberRun
		col   execctx.Collector
		count countingSink
	}
	st.m.rt = physical.Runtime{Preps: c, Docs: c, EC: ec}
	if opts.Vars != nil {
		st.m.rt.Vars = p.BindVars(opts.Vars)
	}
	rt := &st.m.rt
	sink := opts.Sink
	switch {
	case sink == nil:
		sink = &st.col
	case ec == nil:
		// Nothing meters a run without deadline or budget (the nil execution
		// context is free because it counts nothing), so the rows a caller's
		// sink receives are counted on their way to it.
		st.count.Sink = sink
		sink = &st.count
	}
	info := RunInfo{Members: c.Len()}
	switch {
	case member != allMembers:
		info.Members = 1
		var d *collection.Doc
		if d, err = c.Loaded(member); err == nil {
			rt.Root = d.RootSeq()
			err = p.RunSink(rt, sink)
		}
	case p.UsesDocAccess() || opts.Vars != nil:
		err = p.RunSink(rt, sink)
	default:
		skip, skipped := memberSkipTest(c, p.RequiredSteps())
		st.m.p = p
		err = c.FanOut(ec, opts.Workers, skip, sink, &st.m)
		st.m.Release()
		info.Skipped = int(skipped.Load())
	}
	if st.count.err != nil {
		// The caller's sink stopped the run: its error, not a member failure
		// wrapping it (a metered run records it as the stop error instead).
		err = st.count.err
	}
	switch {
	case ec != nil:
		info.Rows, info.Bytes = ec.Rows(), ec.Bytes()
	case opts.Sink == nil:
		info.Rows = int64(len(st.col.Seq))
	default:
		info.Rows = st.count.rows
	}
	return st.col.Seq, info, err
}

// memberRun is a fan-out's Member: it evaluates members in one runtime and
// one run state — the run's own on the calling goroutine, a fork's on each
// further worker.
type memberRun struct {
	rt physical.Runtime
	p  *physical.Plan
	rs *physical.RunState // taken at the first member
}

// Eval runs the plan against member d. A deferred member parses and
// validates here, on the goroutine that evaluates it, so a corrupt member
// becomes this member's query error. A member run reaches its own tree only,
// so the member answers for its prepared joins directly. The run state is
// off m while it runs: a run that faults panics out of RunSink and leaves it
// off, so Release never pools the state of a run that panicked.
func (m *memberRun) Eval(d *collection.Doc, ec *execctx.Ctx, sink Sink) error {
	if err := d.Ensure(); err != nil {
		return err
	}
	rs := m.rs
	if rs == nil {
		rs = m.p.State()
	}
	m.rs = nil
	m.rt.Root, m.rt.Preps, m.rt.EC = d.RootSeq(), d, ec
	err := rs.RunSink(&m.rt, sink)
	m.rs = rs
	return err
}

func (m *memberRun) Fork() collection.Member { return &memberRun{rt: m.rt, p: m.p} }

func (m *memberRun) Release() {
	if m.rs != nil {
		m.rs.Release()
		m.rs = nil
	}
}

// countingSink counts the items it passes on and keeps the error with which
// its sink refused one. It takes ranks, and passes them on as ranks when its
// sink takes them too.
type countingSink struct {
	Sink
	rows int64
	err  error
}

func (s *countingSink) Push(it Item) error { return s.count(s.Sink.Push(it)) }

func (s *countingSink) PushRank(t *xdm.Tree, r int32) error {
	if ranks, ok := s.Sink.(execctx.RankSink); ok {
		return s.count(ranks.PushRank(t, r))
	}
	return s.count(s.Sink.Push(t.Node(r)))
}

func (s *countingSink) count(err error) error {
	if err != nil {
		s.err = err
		return err
	}
	s.rows++
	return nil
}

// memberSkipTest builds the fan-out's per-member emptiness proof: member i
// is skipped when some required step's rank stream is empty there. It
// returns a nil test when the plan requires nothing.
func memberSkipTest(c *collection.Corpus, required []physical.RequiredStep) (func(int) bool, *atomic.Int64) {
	skipped := new(atomic.Int64)
	if len(required) == 0 {
		return nil, skipped
	}
	// Hoist the name-table lookups: one symbol column per required step, then
	// the per-member test is an array index plus a stream length — no string
	// hashing anywhere in the fan-out.
	nt := c.Names()
	cols := make([][]xdm.Sym, len(required))
	for k, r := range required {
		cols[k] = nt.SymColumn(r.Name)
	}
	docs := c.Docs()
	return func(i int) bool {
		ix := docs[i].Index
		for k, r := range required {
			col := cols[k]
			if col == nil || col[i] == xdm.NoSym {
				skipped.Add(1)
				return true
			}
			// StreamLen answers from the loaded index or, for a deferred
			// member, from its section directory — a definite count either
			// way, without paging in the member's data. ok=false means the
			// directory itself is unreadable: admit the member so its load
			// error surfaces as a query error instead of a silent skip.
			if n, ok := ix.StreamLen(col[i], r.Attr); ok && n == 0 {
				skipped.Add(1)
				return true
			}
		}
		return false
	}, skipped
}
