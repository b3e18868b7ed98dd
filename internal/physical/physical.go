// Package physical compiles algebraic plans (internal/algebra) into
// slot-addressed physical operator trees. The lowering pass runs once per
// (plan, algorithm): it resolves every Field/In/VarRef to an integer slot in
// a flat tuple frame, binds every Call to its builtin function pointer
// (funcs.Resolve), and annotates every TupleTreePattern with its validated
// pattern, output-field slots and physical algorithm choice — so evaluation
// performs no string comparisons for tuple fields or variables, no name
// dispatch for builtins, and no per-run pattern analysis.
//
// A Plan is immutable after Compile and safe for concurrent Run calls; all
// per-run state lives in the Runtime and in a RunState, which the plan pools
// from its second run on, so a repeated query reuses the buffers its earlier
// runs grew.
package physical

import (
	"sync"
	"sync/atomic"

	"xqtp/internal/execctx"
	"xqtp/internal/join"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// frame is the tuple of the physical executor: a flat, plan-wide array of
// field sequences indexed by compile-time slot numbers. A run has exactly one
// (RunState): Compile gives every binder occurrence a slot of its own, so a
// binder writes its slot in place and hands the same frame on — no operator
// can overwrite a field another still reads, and lexical scoping guarantees a
// slot is read only on a path its binder has already executed on. Behind the
// named slots the frame carries the operators' scratch slots (tmp): the
// evaluated operands they hold between their calls.
type frame []xdm.Sequence

// The algebra's two sorts are two operator shapes, decided at lowering.
//
// An itemOp appends its item sequence to dst and returns the extended slice.
//
// A tupleOp streams: run calls the consumer it was wired to at lowering (to)
// once per output tuple, in order. The tuple is the run's frame as the
// producer left it, and it is borrowed — valid until the consumer returns. A
// consumer that keeps a tuple past that copies the items it will read (a
// binder of the tuple chain holds exactly one item in its slot).
type itemOp interface {
	items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error)
}

type tupleOp interface {
	run(rs *RunState) error
	to(c consumer)
}

// consumer is the receiving end of a tuple stream.
type consumer interface {
	tuple(rs *RunState) error
}

// stream is the consumer wiring every tupleOp embeds.
type stream struct{ out consumer }

func (s *stream) to(c consumer) { s.out = c }

// RunState is what one run of a plan writes: the frame, and what the plan's
// operators keep between their calls within the run besides its scratch slots
// — singleton cells behind the slots of positions and pattern bindings, each
// pattern operator's rank table. Its layout is fixed by Compile, so the plan
// itself stays immutable and shared. Plan.State hands one out and Release
// gives it back to the plan's pool with the buffers its runs grew. A RunState
// may serve consecutive runs of its plan (the members of a fan-out), never
// concurrent ones.
type RunState struct {
	p  *Plan
	rt *Runtime
	// sink receives what a delivering root produces, charged to charge (nil:
	// uncharged collection, Plan.Run).
	sink   execctx.Sink
	charge *execctx.Ctx

	fr    frame
	cells []xdm.Item
	pats  []patState
}

// seq evaluates an operand into the scratch slot tmp of the operator that
// reads it: the result is valid until that operator's next evaluation. A
// reference (field, variable, constant) is read in place.
func (rs *RunState) seq(o itemOp, tmp int) (xdm.Sequence, error) {
	if r, ok := o.(refOp); ok {
		return r.ref(rs)
	}
	s, err := o.items(rs, rs.fr[tmp][:0])
	rs.fr[tmp] = s
	return s, err
}

// ebv evaluates an operand to its effective boolean value. The operand is
// evaluated in full, as the interpreter does: an error behind the first item
// is still raised.
func (rs *RunState) ebv(o itemOp, tmp int) (bool, error) {
	s, err := rs.seq(o, tmp)
	if err != nil {
		return false, err
	}
	return xdm.EffectiveBool(s)
}

// PrepSource resolves (algorithm, document, pattern) to a prepared join.
// The owner of the documents implements it — a corpus member holds the joins
// prepared against it (collection.Doc, collection.Corpus) — so a prepared
// join lives exactly as long as the index it was resolved against.
type PrepSource interface {
	Prepared(alg join.Algorithm, ix *xmlstore.Index, pat *pattern.Pattern) (*join.Prepared, error)
}

// Runtime is the per-run execution environment of a compiled plan. It
// carries only what varies between runs: the document side (catalog,
// prepared joins) and the variable bindings. A Runtime may be shared by
// concurrent Run calls as long as its fields are not mutated.
type Runtime struct {
	// Catalog holds the indexes of the documents the run is against. It is
	// only read: a tree it does not hold was brought in by Vars, and is
	// indexed there.
	Catalog *xmlstore.Catalog
	// Preps holds the prepared joins of the Catalog's documents, normally the
	// documents' owner. Nil falls back to one-shot preparation per pattern
	// evaluation.
	Preps PrepSource
	// Docs resolves fn:doc($uri) and fn:collection() to document nodes. Nil
	// makes both functions evaluation errors (a plan that never calls them
	// needs no corpus).
	Docs xdm.DocResolver
	// Vars holds the explicit free-variable bindings (Plan.BindVars). Nil
	// Vars with a non-nil Root binds every variable to Root.
	Vars *Bindings
	// Root, when non-nil, is the uniform binding used when Vars is nil: the
	// serving path binds every free variable (and the context item) to the
	// document node, so per-run setup is storing one field.
	Root xdm.Sequence
	// EC is the run's execution context: cancellation, deadline, and
	// row/byte budgets. Operators poll it at bounded intervals and abort
	// with its typed error once it stops. Nil (the default) disables every
	// check beyond a nil-test branch.
	EC *execctx.Ctx
}

// varBinding resolves variable slot i.
func (rt *Runtime) varBinding(i int) (xdm.Sequence, bool) {
	if rt.Vars == nil {
		if rt.Root != nil {
			return rt.Root, true
		}
		return nil, false
	}
	if p := rt.Vars.slots[i]; p != nil {
		return *p, true
	}
	return nil, false
}

// Plan is a compiled physical plan: the operator tree plus its frame and
// variable layouts.
type Plan struct {
	root itemOp
	alg  join.Algorithm
	// width and cells size the run state's frame (named slots, then scratch
	// slots) and singleton cells; there is one pattern state per ttps entry.
	width, cells int

	// slotNames maps each frame slot to the field name it was allocated
	// for (explain output; never consulted at run time).
	slotNames []string
	// varNames maps each variable slot to its name, sorted by first use.
	varNames []string
	// ttps lists the plan's pattern operators in lowering order (explain).
	ttps []*opTTP
	// usesDocs records (at lowering time) whether the plan contains an
	// fn:doc/fn:collection operator, i.e. needs a Runtime document resolver
	// and may reach nodes outside its root binding.
	usesDocs bool
	// reused is set by the plan's first Release, states made by its second:
	// a plan that runs once (an ad-hoc query) pays for no pool, whose first
	// use allocates per-processor storage.
	reused atomic.Bool
	states atomic.Pointer[sync.Pool]

	// reqOnce/reqSteps memoize RequiredSteps (the analysis is per-plan, not
	// per-run).
	reqOnce  sync.Once
	reqSteps []RequiredStep
}

// UsesDocAccess reports whether the plan calls fn:doc or fn:collection, and
// therefore must be evaluated against a corpus-wide runtime rather than
// fanned out per document.
func (p *Plan) UsesDocAccess() bool { return p.usesDocs }

// Algorithm returns the physical tree-pattern algorithm the plan was
// compiled for.
func (p *Plan) Algorithm() join.Algorithm { return p.alg }

// NumSlots returns the width of the plan's tuple frame.
func (p *Plan) NumSlots() int { return len(p.slotNames) }

// Vars returns the plan's free-variable names in slot order.
func (p *Plan) Vars() []string { return p.varNames }

// Patterns returns the pattern of each TupleTreePattern operator, in
// lowering order.
func (p *Plan) Patterns() []*pattern.Pattern {
	out := make([]*pattern.Pattern, len(p.ttps))
	for i, t := range p.ttps {
		out[i] = t.pat
	}
	return out
}

// RootBoundPatterns reports, per pattern operator (lowering order, matching
// Patterns), whether the operator's input tuples are built directly from a
// free-variable binding — the document root under the uniform binding — so
// a document-rooted evaluation or annotation is meaningful for it.
// Downstream pattern operators (e.g. after a positional head) consume
// derived bindings instead.
func (p *Plan) RootBoundPatterns() []bool {
	out := make([]bool, len(p.ttps))
	for i, t := range p.ttps {
		if m, ok := t.input.(*opMapFromItem); ok {
			if _, isVar := m.input.(*opVar); isVar {
				out[i] = true
			}
		}
	}
	return out
}

// Bindings is an explicit variable environment resolved to a plan's slot
// layout: a nil slot is an unbound variable and errors lazily on use.
//
// Explicitly bound nodes are the only way a tree from outside the runtime's
// Catalog enters a run, so the bindings also own what evaluation resolves
// against such a tree: it is indexed once, and each pattern prepared against
// it once — not once per tuple — for as long as the bindings are in use, and
// nothing about it is registered in the Catalog or stored in Preps, whose
// lifetimes are somebody else's documents'.
type Bindings struct {
	slots []*xdm.Sequence

	mu      sync.Mutex
	foreign []foreignPrep
}

// foreignPrep is one join prepared against a tree from outside the catalog
// (ix.Tree).
type foreignPrep struct {
	ix   *xmlstore.Index
	pat  *pattern.Pattern
	alg  join.Algorithm
	prep *join.Prepared
}

// BindVars resolves a name-keyed variable environment to the plan's slot
// layout once per run.
func (p *Plan) BindVars(vars map[string]xdm.Sequence) *Bindings {
	b := &Bindings{slots: make([]*xdm.Sequence, len(p.varNames))}
	for i, n := range p.varNames {
		if v, ok := vars[n]; ok {
			v := v
			b.slots[i] = &v
		}
	}
	return b
}

// prepared resolves a join against a tree the catalog does not hold.
func (b *Bindings) prepared(alg join.Algorithm, t *xdm.Tree, pat *pattern.Pattern) (*join.Prepared, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var ix *xmlstore.Index
	for i := range b.foreign {
		if e := &b.foreign[i]; e.ix.Tree == t {
			if e.pat == pat && e.alg == alg {
				return e.prep, nil
			}
			ix = e.ix
		}
	}
	if ix == nil {
		ix = xmlstore.BuildIndex(t)
	}
	p, err := join.Prepare(alg, ix, pat)
	if err != nil {
		return nil, err
	}
	b.foreign = append(b.foreign, foreignPrep{ix: ix, pat: pat, alg: alg, prep: p})
	return p, nil
}

// State returns a run state of the plan: a released one from the plan's
// pool, or a new one. The caller gives it back with Release once its runs are
// done — not after a run that panicked, whose state may be half-written.
func (p *Plan) State() *RunState {
	if pool := p.states.Load(); pool != nil {
		if rs, ok := pool.Get().(*RunState); ok {
			return rs
		}
	}
	rs := &RunState{p: p, fr: make(frame, p.width)}
	if p.cells > 0 {
		rs.cells = make([]xdm.Item, p.cells)
	}
	if len(p.ttps) > 0 {
		rs.pats = make([]patState, len(p.ttps))
	}
	return rs
}

// Release gives the state back to its plan's pool; the caller must not use
// it again. It keeps its buffers but drops the runtime and the sink. The
// items and trees its slots still reference are released with the pool at
// the next garbage collection. Pooling starts with the plan's second run:
// its first Release drops the state.
func (rs *RunState) Release() {
	rs.rt, rs.sink, rs.charge = nil, nil, nil
	p := rs.p
	if !p.reused.Load() {
		p.reused.Store(true)
		return
	}
	pool := p.states.Load()
	if pool == nil {
		p.states.CompareAndSwap(nil, new(sync.Pool))
		pool = p.states.Load()
	}
	pool.Put(rs)
}

// Run evaluates the plan to an item sequence, collected without charging the
// execution context's budgets (a fan-out's member runs: the merge charges).
func (p *Plan) Run(rt *Runtime) (xdm.Sequence, error) {
	var col execctx.Collector
	rs := p.State()
	err := rs.exec(rt, &col, nil)
	rs.Release()
	if err != nil {
		return nil, err
	}
	return col.Seq, nil
}

// RunSink evaluates the plan, delivering result items to sink through the
// runtime's execution context (budget charging, typed early abort). The root
// is the plan's last consumer: a MapToItem root delivers each tuple's items
// before the next tuple is produced — so a spent budget or a canceled context
// stops further evaluation, not just further delivery, and the sink observes
// exactly the document-order prefix — and a pattern operator in items mode
// at the root, one set-at-a-time evaluation with nothing to stop between
// tuples, delivers its rank table directly. Other root shapes evaluate
// fully, then deliver.
func (p *Plan) RunSink(rt *Runtime, sink execctx.Sink) error {
	rs := p.State()
	err := rs.RunSink(rt, sink)
	rs.Release()
	return err
}

// RunSink is Plan.RunSink in this run state, so that consecutive runs of the
// plan share one.
func (rs *RunState) RunSink(rt *Runtime, sink execctx.Sink) error {
	return rs.exec(rt, sink, rt.EC)
}

func (rs *RunState) exec(rt *Runtime, sink execctx.Sink, charge *execctx.Ctx) error {
	if err := rt.EC.Err(); err != nil {
		return err
	}
	rs.rt, rs.sink, rs.charge = rt, sink, charge
	seq, err := rs.p.root.items(rs, nil)
	if err != nil {
		return err
	}
	return execctx.Deliver(charge, sink, seq)
}
