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
// per-run state lives in the Runtime and in frames allocated per call.
package physical

import (
	"fmt"
	"sync"

	"xqtp/internal/execctx"
	"xqtp/internal/join"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// frame is one tuple of the physical executor: a flat, plan-wide array of
// field sequences indexed by compile-time slot numbers. A nil entry means
// the binder for that slot has not executed on this tuple's path (reading it
// through its op yields the empty sequence, matching the persistent-chain
// semantics where such a field was simply absent from an enclosing scope).
type frame []xdm.Sequence

// value is the result of one operator: an item sequence or a tuple-frame
// sequence, mirroring the algebra's two-sorted typing.
type value struct {
	items    xdm.Sequence
	frames   []frame
	isFrames bool
}

func itemsValue(s xdm.Sequence) value { return value{items: s} }
func framesValue(fs []frame) value    { return value{frames: fs, isFrames: true} }

// itemsVal returns the item sequence, or an error if the value is tuples.
func (v value) itemsVal() (xdm.Sequence, error) {
	if v.isFrames {
		return nil, fmt.Errorf("exec: expected an item sequence, got %d tuples", len(v.frames))
	}
	return v.items, nil
}

// framesVal returns the tuple frames, or an error if the value is items.
func (v value) framesVal() ([]frame, error) {
	if !v.isFrames {
		return nil, fmt.Errorf("exec: expected a tuple sequence, got %d items", len(v.items))
	}
	return v.frames, nil
}

// op is a compiled physical operator.
type op interface {
	eval(rt *Runtime, fr frame) (value, error)
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
	// Parallel caps the goroutines evaluating one TupleTreePattern's context
	// nodes concurrently (<=1: sequential).
	Parallel int
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
	root op
	alg  join.Algorithm

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

// Run evaluates the plan to an item sequence.
func (p *Plan) Run(rt *Runtime) (xdm.Sequence, error) {
	if err := rt.EC.Err(); err != nil {
		return nil, err
	}
	v, err := p.root.eval(rt, nil)
	if err != nil {
		return nil, err
	}
	return v.itemsVal()
}

// RunSink evaluates the plan, delivering result items to sink through the
// runtime's execution context (budget charging, typed early abort). When
// the plan's root is the usual MapToItem output boundary, the dependent
// item expression is evaluated tuple by tuple and each tuple's items are
// delivered before the next tuple is touched — so a spent budget or a
// canceled context stops further evaluation, not just further delivery,
// and the sink observes exactly the document-order prefix. A pattern
// operator in items mode at the root is one set-at-a-time evaluation with
// nothing to stop between tuples: its rank table is delivered directly, the
// budgets charged per item as everywhere. Other root shapes evaluate fully,
// then deliver.
func (p *Plan) RunSink(rt *Runtime, sink execctx.Sink) error {
	if err := rt.EC.Err(); err != nil {
		return err
	}
	switch m := p.root.(type) {
	case *opTTP:
		if m.itemField >= 0 {
			var t rankTable
			if err := m.bind(rt, nil, &t); err != nil {
				return err
			}
			return t.deliver(rt.EC, sink, m.itemField)
		}
	case *opMapToItem:
		in, err := evalFrames(m.input, rt, nil)
		if err != nil {
			return err
		}
		for _, t := range in {
			if err := rt.EC.Err(); err != nil {
				return err
			}
			v, err := evalItems(m.dep, rt, t)
			if err != nil {
				return err
			}
			if err := execctx.Deliver(rt.EC, sink, v); err != nil {
				return err
			}
		}
		return nil
	}
	seq, err := p.Run(rt)
	if err != nil {
		return err
	}
	return execctx.Deliver(rt.EC, sink, seq)
}

// newFrame clones fr into a fresh frame of the plan's width (fr may be nil:
// the top-level context).
func (p *Plan) newFrame(fr frame) frame {
	nf := make(frame, len(p.slotNames))
	copy(nf, fr)
	return nf
}
