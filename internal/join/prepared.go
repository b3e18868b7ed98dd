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
// compile-once half of the serving path. After that, evaluation from a
// context node does no string hashing and no per-run setup: every algorithm,
// the nested loop included, runs on int32 ranks against the tree's columns
// and answers in ranks (AppendRanks, AppendRanksFor, AppendFirstFor); nodes
// appear only when a caller asks for bindings (EvalCtx).
//
// A Prepared is immutable and safe for concurrent evaluation from many
// goroutines (the evaluation scratch comes from internal pools).
type Prepared struct {
	alg Algorithm
	ix  *xmlstore.Index

	fields    []string // output fields, root-to-leaf (cached: OutputFields walks)
	childOnly bool     // spine has child/attribute/self steps only
	empty     bool     // some required step's stream is empty document-wide (never set for NestedLoop)
	// kernel is the set-at-a-time kernel the pattern runs on, nestedLoop for
	// none: single-output patterns inside the selected algorithm's fragment,
	// with Auto taking SCJoin (rule 3, auto.go).
	kernel kernel

	cols  *xdm.Cols // the document's region-encoding columns
	spine []cstep   // compiled steps, spine order
}

// kernel names the evaluation a Prepared runs a context through.
type kernel uint8

const (
	nestedLoop kernel = iota // the nested loop (nl.go), which takes every pattern
	staircase                // scFrom
	twig                     // twigEval
	streaming                // streamEval
)

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
// scarcest branch first fail-fasts both the staircase existence checks and the
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

// Prepare resolves pat against ix for evaluation under alg.
func Prepare(alg Algorithm, ix *xmlstore.Index, pat *pattern.Pattern) (*Prepared, error) {
	if err := checkPattern(pat); err != nil {
		return nil, err
	}
	// A deferred snapshot member loads and validates here, on its first
	// preparation — the error-returning boundary every evaluation passes
	// through, so a corrupt member turns into a query error instead of a
	// fault inside a join loop.
	if err := ix.Ensure(); err != nil {
		return nil, err
	}
	p := &Prepared{alg: alg, ix: ix, cols: ix.Tree.Cols}
	p.fields = pat.OutputFields()
	p.childOnly = spineChildOnly(pat.Root)
	p.spine = compileChain(ix, pat.Root)
	if alg == NestedLoop {
		// Plain NestedLoop stays fully general — it is the differential
		// oracle — so it takes neither the emptiness skip nor a kernel.
		return p, nil
	}
	// The conjunctive emptiness proof: one required step with an empty
	// document-wide stream means no binding can exist anywhere in this
	// document, so the kernels never need to run (generalizes the corpus
	// layer's name-presence skip to counts).
	p.empty = provablyEmpty(p.spine)
	if _, single := pat.SingleOutput(); single {
		switch {
		case (alg == Staircase || alg == Auto) && scSupported(pat.Root):
			p.kernel = staircase
		case alg == Twig && twigSupported(pat.Root):
			p.kernel = twig
		case alg == Streaming && streamSupported(pat):
			p.kernel = streaming
		}
	}
	return p, nil
}

// OutputFields returns the pattern's output fields, root-to-leaf, resolved
// once at preparation time.
func (p *Prepared) OutputFields() []string { return p.fields }

// AppendRanks appends every binding of the pattern from context node ctx to
// dst as int32 pre ranks in ctx's tree — len(OutputFields()) ranks per
// binding, root-to-leaf — and returns the extended slice. It is the one exit
// of every algorithm: the set-at-a-time kernels finish in a pooled arena of
// ranks and copy the final list out here, in document order; the nested
// loop, which also takes the patterns outside the selected algorithm's
// fragment, appends its bindings in lexical order as it meets them. No node
// is touched and, when dst has room, nothing is allocated.
//
// Every algorithm polls ec at bounded intervals and bails out once it stops.
// A stopped evaluation appends a partial (possibly empty) result — callers
// that thread a non-nil ec must check ec.Err() afterwards and discard the
// ranks on stop (the physical operator layer does exactly that).
func (p *Prepared) AppendRanks(ec *execctx.Ctx, ctx *xdm.Node, dst []int32) []int32 {
	one, end := [1]int32{int32(ctx.Pre)}, [1]int32{}
	dst, _ = p.AppendRanksFor(ec, one[:], dst, end[:0])
	return dst
}

// cursor reports whether AppendFirstFor takes the nested loop's early exit.
func (p *Prepared) cursor() bool {
	return p.childOnly && !p.empty && (p.alg == NestedLoop || p.alg == Auto)
}

// AppendRanksFor is AppendRanks from every context of a set: ctxs are pre
// ranks in the prepared document's tree, and context i's bindings are
// appended to dst after context i-1's, in AppendRanks' shape and order. It
// appends to ends, per context, len(dst) once that context's bindings are in,
// and returns both slices. The set is evaluated in one call — the staircase
// join in one pooled arena, the nested loop in one recursion state — with
// AppendRanks' poll schedule and partial-result contract: on a stop the
// remaining contexts append nothing, and every context still gets its end.
func (p *Prepared) AppendRanksFor(ec *execctx.Ctx, ctxs, dst, ends []int32) ([]int32, []int32) {
	return p.appendFor(ec, ctxs, dst, ends, false)
}

// AppendFirstFor is AppendRanksFor for first-match evaluation: per context,
// bindings among which is its first in document order; the caller takes it
// by ordering what was appended (the TupleTreePattern operator's sort and
// keepFirst). Under NestedLoop and Auto, a spine of child and attribute
// steps takes the nested loop's cursor-style early exit and appends that
// binding alone (§5.3): its results cannot nest, so the lexically first
// binding is the document-order first. Everywhere else it appends what
// AppendRanksFor appends — the set-at-a-time algorithms evaluate fully, and
// that cost difference is precisely the paper's §5.3 observation.
func (p *Prepared) AppendFirstFor(ec *execctx.Ctx, ctxs, dst, ends []int32) ([]int32, []int32) {
	return p.appendFor(ec, ctxs, dst, ends, p.cursor())
}

func (p *Prepared) appendFor(ec *execctx.Ctx, ctxs, dst, ends []int32, first bool) ([]int32, []int32) {
	switch {
	case p.empty:
		for range ctxs {
			ends = append(ends, int32(len(dst)))
		}
	case first || p.kernel == nestedLoop:
		s := p.nl(ec, first)
		for _, c := range ctxs {
			dst = s.from(c, p.spine, dst)
			ends = append(ends, int32(len(dst)))
		}
		s.release()
	case p.kernel == staircase:
		arena := scArenaPool.Get().(*scArena)
		for _, c := range ctxs {
			dst = scFrom(p, ec, arena, c, dst)
			ends = append(ends, int32(len(dst)))
		}
		scArenaPool.Put(arena)
	default:
		for _, c := range ctxs {
			if p.kernel == twig {
				dst = twigEval(p, ec, c, dst)
			} else {
				dst = streamEval(p, ec, c, dst)
			}
			ends = append(ends, int32(len(dst)))
		}
	}
	return dst, ends
}

// EvalCtx is AppendRanks resolved to nodes, the join layer's one node-shaped
// exit: each rank becomes its tree's node (Tree.Node, built on first
// request), grouped len(OutputFields()) per binding. A stopped evaluation has
// AppendRanks' partial-result contract.
func (p *Prepared) EvalCtx(ec *execctx.Ctx, ctx *xdm.Node) []Binding {
	ranks := p.AppendRanks(ec, ctx, nil)
	nodes := make([]*xdm.Node, len(ranks))
	for i, r := range ranks {
		nodes[i] = p.ix.Tree.Node(r)
	}
	nf := len(p.fields)
	bs := make([]Binding, 0, len(nodes)/max(nf, 1))
	for i := 0; i < len(nodes); i += nf {
		bs = append(bs, nodes[i:i+nf:i+nf])
	}
	return bs
}
