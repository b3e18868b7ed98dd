package join

import (
	"sort"

	"xqtp/internal/execctx"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// Prepared is a tree pattern compiled against one document's index: the
// pattern is validated once, algorithm applicability is decided once, and
// every step's node test is resolved to its pre-sorted integer rank stream
// and its columnar test (interned symbol + principal kind) once — the
// compile-once half of the serving path. After that, Eval per context node
// does no string hashing and no per-run setup, and the set-at-a-time kernels
// run entirely on int32 ranks against the tree's columns and answer in ranks
// (AppendRanks); nodes appear only when a caller asks for bindings.
//
// A Prepared is immutable and safe for concurrent Eval/EvalFirst calls from
// many goroutines (the evaluation scratch comes from internal pools).
type Prepared struct {
	alg Algorithm
	ix  *xmlstore.Index
	pat *pattern.Pattern

	fields    []string // output fields, root-to-leaf (cached: OutputFields walks)
	childOnly bool     // spine has child/attribute/self steps only
	empty     bool     // some required step's stream is empty document-wide (never set for NestedLoop)
	// kernel is the set-at-a-time kernel the pattern runs on, nil for the
	// nested loop: single-output patterns inside the selected algorithm's
	// fragment, with Auto taking SCJoin (rule 3, auto.go).
	kernel func(p *Prepared, ec *execctx.Ctx, ctx *xdm.Node, dst []int32) []int32

	cols  *xdm.Cols // the document's region-encoding columns
	spine []cstep   // compiled steps, spine order
}

// cstep is one compiled pattern step: the axis, the columnar node test, the
// resolved rank stream, and the compiled predicate chains. The spine and
// each predicate chain are flat slices, so the kernels walk plain arrays —
// no map lookups and no step-pointer chasing in the hot loops.
type cstep struct {
	axis   xdm.Axis
	test   xdm.RankTest
	stream []int32
	out    bool
	preds  [][]cstep
}

// compileChain compiles a step chain (the spine or a predicate branch).
// Each step's predicate branches are ordered smallest total stream first:
// predicates are conjunctive existential checks (patterns cannot carry
// outputs inside predicates), so their order is free, and checking the
// scarcest branch first fail-fasts both the staircase semi-joins and the
// twig stack's child-support probes. The pattern itself is never mutated —
// only the compiled form is reordered.
func compileChain(ix *xmlstore.Index, s *pattern.Step) []cstep {
	var out []cstep
	for c := s; c != nil; c = c.Next {
		cs := cstep{
			axis:   c.Axis,
			test:   c.Test.On(c.Axis, ix.Tree),
			stream: ix.RanksFor(c.Axis, c.Test),
			out:    c.Out != "",
		}
		for _, pr := range c.Preds {
			cs.preds = append(cs.preds, compileChain(ix, pr))
		}
		if len(cs.preds) > 1 {
			sort.SliceStable(cs.preds, func(i, j int) bool {
				return chainStream(cs.preds[i]) < chainStream(cs.preds[j])
			})
		}
		out = append(out, cs)
	}
	return out
}

// chainStream totals the stream lengths of a compiled chain (branch cost
// proxy for the smallest-first ordering).
func chainStream(chain []cstep) int {
	n := 0
	for i := range chain {
		n += len(chain[i].stream)
		for _, pr := range chain[i].preds {
			n += chainStream(pr)
		}
	}
	return n
}

// Prepare resolves pat against ix for evaluation under alg. The index may be
// nil only for algorithms that never touch streams (pure nested-loop
// evaluation).
func Prepare(alg Algorithm, ix *xmlstore.Index, pat *pattern.Pattern) (*Prepared, error) {
	if err := checkPattern(pat); err != nil {
		return nil, err
	}
	// A deferred snapshot member loads and validates here, on its first
	// preparation — the error-returning boundary every kernel path passes
	// through, so a corrupt member turns into a query error instead of a
	// fault inside a join loop.
	if ix != nil {
		if err := ix.Ensure(); err != nil {
			return nil, err
		}
	}
	p := &Prepared{alg: alg, ix: ix, pat: pat}
	p.fields = pat.OutputFields()
	p.childOnly = spineChildOnly(pat.Root)
	if ix != nil && alg != NestedLoop {
		p.cols = ix.Tree.Cols
		p.spine = compileChain(ix, pat.Root)
		// The conjunctive emptiness proof: one required step with an empty
		// document-wide stream means no binding can exist anywhere in this
		// document, so the kernels never need to run (generalizes the
		// corpus layer's name-presence skip to counts). Plain NestedLoop
		// stays fully general — it is the differential oracle — so only the
		// other algorithms, Auto included, take the skip.
		p.empty = provablyEmpty(p.spine)
		if _, single := pat.SingleOutput(); single {
			switch {
			case (alg == Staircase || alg == Auto) && scSupported(pat.Root):
				p.kernel = scEval
			case alg == Twig && twigSupported(pat.Root):
				p.kernel = twigEval
			case alg == Streaming && streamSupported(pat):
				p.kernel = streamEval
			}
		}
	}
	return p, nil
}

// Pattern returns the prepared pattern.
func (p *Prepared) Pattern() *pattern.Pattern { return p.pat }

// OutputFields returns the pattern's output fields, root-to-leaf, resolved
// once at preparation time.
func (p *Prepared) OutputFields() []string { return p.fields }

// AppendRanks appends every binding of the pattern from context node ctx to
// dst as int32 pre ranks in ctx's tree — len(OutputFields()) ranks per
// binding, root-to-leaf — and returns the extended slice. It is the one exit
// of the set-at-a-time kernels: they finish in a pooled arena of ranks and
// copy the final list out here, so no node is touched and, when dst has
// room, nothing is allocated. Patterns outside the algorithm's fragment fall
// back to nested-loop evaluation, which is fully general and converts its
// node bindings on the way out.
//
// The kernels poll ec at bounded intervals and bail out once it stops. A
// stopped evaluation appends a partial (possibly empty) result — callers that
// thread a non-nil ec must check ec.Err() afterwards and discard the ranks on
// stop (the physical operator layer does exactly that).
func (p *Prepared) AppendRanks(ec *execctx.Ctx, ctx *xdm.Node, dst []int32) []int32 {
	if p.empty {
		return dst
	}
	if p.kernel == nil {
		return nlRanks(ec, ctx, p.pat, dst)
	}
	return p.kernel(p, ec, ctx, dst)
}

// Eval returns every binding of the pattern from context node ctx.
func (p *Prepared) Eval(ctx *xdm.Node) []Binding { return p.EvalCtx(nil, ctx) }

// EvalCtx is AppendRanks resolved to nodes: each rank becomes its tree's
// node (Tree.Node, built on first request) and is viewed as a binding. The
// nested loop's bindings are returned as they are. A stopped evaluation has
// AppendRanks' partial-result contract.
func (p *Prepared) EvalCtx(ec *execctx.Ctx, ctx *xdm.Node) []Binding {
	if p.kernel == nil && !p.empty {
		return nlEval(ec, ctx, p.pat)
	}
	ranks := p.AppendRanks(ec, ctx, nil)
	nodes := make([]*xdm.Node, len(ranks))
	for i, r := range ranks {
		nodes[i] = p.ix.Tree.Node(r)
	}
	return wrapNodes(nodes)
}

// EvalFirst returns the first binding in document order, allowing the
// nested-loop algorithm its cursor-style early exit (§5.3). The
// set-at-a-time algorithms evaluate fully and take the head — that cost
// difference is precisely the paper's §5.3 observation. The early exit is
// only taken for child/attribute-only spines, where the nested loop's
// lexical first binding is also the document-order first.
func (p *Prepared) EvalFirst(ctx *xdm.Node) (Binding, bool) { return p.EvalFirstCtx(nil, ctx) }

// EvalFirstCtx is EvalFirst under an execution context, with the same
// partial-result contract as EvalCtx.
func (p *Prepared) EvalFirstCtx(ec *execctx.Ctx, ctx *xdm.Node) (Binding, bool) {
	alg := p.alg
	if p.empty {
		return nil, false
	}
	if alg == Auto && p.childOnly {
		// First-match over a non-nesting spine: the §5.3 heuristic —
		// always take the nested loop's cursor-style early exit.
		alg = NestedLoop
	}
	if alg == NestedLoop && p.childOnly {
		var spine []cstep
		if p.spine != nil && ctx.Doc == p.ix.Tree {
			spine = p.spine
		}
		return nlFirst(ec, ctx, p.pat, spine)
	}
	if p.kernel != nil {
		// The head of the kernel's ranks is the only node built: the rest
		// are never delivered.
		ranks := p.AppendRanks(ec, ctx, nil)
		if len(ranks) == 0 {
			return nil, false
		}
		return Binding{p.ix.Tree.Node(ranks[0])}, true
	}
	all := nlEval(ec, ctx, p.pat)
	if len(all) == 0 {
		return nil, false
	}
	return all[0], true
}
