// Package xqtp is an XQuery-subset compiler and evaluation engine that
// reproduces "Put a Tree Pattern in Your Algebra" (Michiels, Mihăilă,
// Siméon; ICDE 2007).
//
// Queries are compiled through the paper's pipeline: parsing, normalization
// into the XQuery Core, rewriting into TPNF′ (type rewritings, FLWOR
// rewritings, document-order rewritings, loop splitting), compilation into
// a tuple algebra, and algebraic optimization that detects maximal
// TupleTreePattern operators. Detected patterns evaluate under one of three
// physical algorithms: nested-loop navigation, staircase join, or holistic
// twig join.
//
// Quick start:
//
//	doc, _ := xqtp.LoadXMLString("<doc><person><emailaddress/><name>Ann</name></person></doc>")
//	q, _ := xqtp.Prepare(`$d//person[emailaddress]/name`)
//	items, _ := q.Run(doc, xqtp.Staircase)
package xqtp

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"xqtp/internal/algebra"
	"xqtp/internal/ast"
	"xqtp/internal/collection"
	"xqtp/internal/compile"
	"xqtp/internal/core"
	"xqtp/internal/join"
	"xqtp/internal/optimize"
	"xqtp/internal/parser"
	"xqtp/internal/pattern"
	"xqtp/internal/physical"
	"xqtp/internal/rewrite"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// Item is a single XDM item: a *Node or an atomic value.
type Item = xdm.Item

// Node is an XML tree node with its region encoding.
type Node = xdm.Node

// Sequence is an ordered sequence of items.
type Sequence = xdm.Sequence

// Atomic item types, for binding variables and inspecting results.
type (
	// String is an xs:string item.
	String = xdm.String
	// Integer is an xs:integer item.
	Integer = xdm.Integer
	// Float is an xs:double item.
	Float = xdm.Float
	// Bool is an xs:boolean item.
	Bool = xdm.Bool
)

// Algorithm selects the physical tree-pattern algorithm.
type Algorithm = join.Algorithm

// The physical tree-pattern algorithms of the paper's evaluation, plus the
// rule that picks among them per pattern (join.Auto).
const (
	NestedLoop = join.NestedLoop // NLJoin: navigational, cursor-style
	Staircase  = join.Staircase  // SCJoin: staircase join over region-encoded streams
	Twig       = join.Twig       // TwigJoin: holistic twig join
	Auto       = join.Auto       // the rule: skip provably empty patterns, else SCJoin inside its fragment
)

// Algorithms lists all physical algorithms, in the paper's table order
// (NL, TJ, SC).
var Algorithms = []Algorithm{NestedLoop, Twig, Staircase}

// ParseAlgorithm resolves an algorithm name ("nl", "sc", "twig"/"tj",
// "auto", …) as accepted by the command-line tools.
func ParseAlgorithm(name string) (Algorithm, error) {
	return join.ParseAlgorithm(name)
}

// Document is a loaded XML document with its index structures: a view of
// one member of a corpus. A standalone document (LoadXML*, LoadSnapshot,
// OpenSnapshotFile, the generators) is the only member of a private
// one-member corpus, which it owns; Corpus.Document and Corpus.DocumentAt
// return views that borrow the corpus. Either way the document runs,
// resolves fn:doc/fn:collection and reports ErrClosed through the corpus, so
// the two shapes cannot drift apart. A Document is immutable after load and
// safe for concurrent Run calls.
type Document struct {
	c *collection.Corpus
	i int // member position in c
	// owned marks a standalone document: Close closes c, SetURI names the
	// member. A borrowed view leaves both to the Corpus it came from.
	owned bool
}

// LoadXML parses an XML document: one scan over the input builds the tree's
// region columns, from which the tag-stream index is derived. Node structs
// are built from the columns only when something first navigates the
// document (Root, a query run).
func LoadXML(r io.Reader) (*Document, error) {
	return newDocument(xmlstore.IngestReader(r))
}

// LoadXMLBytes ingests an XML document held in a byte slice. The document
// keeps no reference to data: its names and text values are copied out, so
// the caller may reuse the slice once LoadXMLBytes returns.
func LoadXMLBytes(data []byte) (*Document, error) {
	return newDocument(xmlstore.Ingest(data))
}

// LoadXMLString ingests an XML document held in a string.
func LoadXMLString(s string) (*Document, error) {
	return newDocument(xmlstore.IngestString(s))
}

// newDocument wraps a loader's result as a standalone document: the only
// member of a one-member corpus it owns.
func newDocument(ix *xmlstore.Index, err error) (*Document, error) {
	if err != nil {
		return nil, err
	}
	return &Document{c: collection.Single("", ix), owned: true}, nil
}

// member returns the document's corpus member.
func (d *Document) member() *collection.Doc { return d.c.Doc(d.i) }

// Root returns the document node. Root and the size accessors answer their
// zero value once the document is closed: its nodes may live in the released
// mapping.
func (d *Document) Root() *Node {
	if d.c.Closed() {
		return nil
	}
	return d.member().Root()
}

// URI returns the document's name for fn:doc resolution ("" when loaded
// without one).
func (d *Document) URI() string { return d.member().URI }

// SetURI names a standalone document for fn:doc resolution. Call before
// sharing the document across goroutines. On a member view of a Corpus it
// does nothing: the corpus names its members.
func (d *Document) SetURI(uri string) {
	if d.owned {
		d.c.SetURI(d.i, uri)
	}
}

// NumNodes returns the number of nodes in the document (including the
// document node and attributes).
func (d *Document) NumNodes() int {
	if d.c.Closed() {
		return 0
	}
	return d.member().Index.NumNodes()
}

// SizeBytes returns the serialized size of the document.
func (d *Document) SizeBytes() int {
	if d.c.Closed() {
		return 0
	}
	return len(xmlstore.AppendXML(nil, d.Root()))
}

// XML serializes the document.
func (d *Document) XML() string {
	if d.c.Closed() {
		return ""
	}
	return xmlstore.SerializeString(d.Root())
}

// WriteXML serializes the document to w without materializing the whole
// document as a string first.
func (d *Document) WriteXML(w io.Writer) error {
	m, err := d.c.Loaded(d.i)
	if err != nil {
		return err
	}
	return xmlstore.Serialize(w, m.Root())
}

// SaveSnapshot writes the document in the columnar binary snapshot format:
// the region columns and index streams go out as-is, so loading skips both
// the parse and the index build. The file is the one-member corpus snapshot
// of the document — URI and name table included — so LoadSnapshot,
// OpenSnapshotFile, OpenCorpusFile and xqd all open it.
func (d *Document) SaveSnapshot(w io.Writer) error {
	m, err := d.c.Loaded(d.i)
	if err != nil {
		return err
	}
	return collection.Single(m.URI, m.Index).WriteSnapshot(w)
}

// LoadSnapshot reads a document written by SaveSnapshot. The tree and its
// tag-stream index come straight from the stored columns — no region
// encoding or index rebuild — and the document keeps the URI it was saved
// with.
func LoadSnapshot(r io.Reader) (*Document, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xqtp: %w", err)
	}
	return singleMember(collection.OpenSnapshot(data))
}

// OpenSnapshotFile opens a single-document snapshot by memory-mapping the
// file: the columns, symbol table and rank streams alias the mapping
// directly, so no copy of the document is made and cold pages load on
// demand. The document owns the mapping — call Close to release it; after
// Close every entry point that can return an error returns ErrClosed. Unlike
// the deferred corpus open, the single member is validated here (the open
// reports corruption immediately rather than at first query).
func OpenSnapshotFile(path string) (*Document, error) {
	return singleMember(collection.OpenSnapshotFile(path))
}

// singleMember wraps an opened snapshot as a standalone document: it must
// hold exactly one member, which is loaded (validated) before returning.
func singleMember(c *collection.Corpus, err error) (*Document, error) {
	if err != nil {
		return nil, err
	}
	if c.Len() != 1 {
		c.Close()
		return nil, fmt.Errorf("xqtp: snapshot holds %d members; use OpenCorpusSnapshot or OpenCorpusFile for corpora", c.Len())
	}
	if _, err := c.Loaded(0); err != nil {
		c.Close()
		return nil, err
	}
	return &Document{c: c, owned: true}, nil
}

// Close closes a standalone document: it poisons the document and releases
// its snapshot file mapping (if any), after which every entry point that can
// return an error returns ErrClosed; so does a second Close. Closing while
// queries are in flight is a caller bug, exactly as with os.File. A member
// view borrowed from a Corpus cannot close it under its siblings: Close
// returns an error and changes nothing (ErrClosed once the Corpus is closed).
func (d *Document) Close() error {
	if d.owned || d.c.Closed() {
		return d.c.Close()
	}
	return fmt.Errorf("xqtp: Close on corpus member view %d: close the Corpus", d.i)
}

// Closed reports whether the document's corpus has been closed.
func (d *Document) Closed() bool { return d.c.Closed() }

// Mapped reports whether the document is backed by a live file mapping
// (OpenSnapshotFile documents and members of OpenCorpusFile corpora on
// mmap-capable builds, before Close).
func (d *Document) Mapped() bool { return d.c.Mapped() }

// CompileOptions configures query preparation.
type CompileOptions struct {
	// TreePatterns enables the algebraic tree-pattern detection (Fig. 3
	// rules). Disabling it yields plans that keep their navigational maps.
	TreePatterns bool
	// Rewrites enables the TPNF′ core rewritings (§3). Disabling both
	// Rewrites and TreePatterns reproduces the paper's "standard engine"
	// baseline, whose plans depend on the syntactic form of the query.
	Rewrites bool

	// Ablation knobs (benchmarks measure the value of individual design
	// choices; leave false for normal use).
	DisablePositionalFirst bool // keep MapIndex/Select instead of Head (§5.3 early exit)
	DisableBulkConversion  bool // force the per-tuple fallback instead of rule (b)
}

// DefaultOptions is the configuration used by Prepare.
var DefaultOptions = CompileOptions{TreePatterns: true, Rewrites: true}

// StandardEngineOptions reproduces the paper's baseline engine: no core
// rewritings, no tree-pattern detection — nested maps with navigational
// TreeJoins and explicit ddo calls.
var StandardEngineOptions = CompileOptions{TreePatterns: false, Rewrites: false}

// Query is a compiled query, retaining every intermediate compilation phase
// for inspection. A Query holds plans, never documents: what a run resolves
// against a document — its index, the joins prepared against it — is kept by
// the document's corpus member and freed with it, so a long-lived Query pins
// none of the corpora it ever ran against.
type Query struct {
	Source string

	surface   ast.Expr
	coreExpr  core.Expr // normalized
	rewritten core.Expr // TPNF′
	plan      algebra.Expr
	optimized algebra.Expr

	// phys memoizes the physical lowering of the optimized plan, one entry
	// per algorithm: slots resolved, builtins bound, patterns annotated —
	// compiled on first use and shared by every subsequent Run.
	phys sync.Map // Algorithm -> *physical.Plan
}

// Prepare compiles a query with the default options.
func Prepare(query string) (*Query, error) {
	return PrepareWithOptions(query, DefaultOptions)
}

// PrepareWithOptions compiles a query through all phases of Fig. 2.
func PrepareWithOptions(query string, opts CompileOptions) (*Query, error) {
	return prepare(query, opts, nil)
}

// prepare is the one compile pipeline: parse → normalize → TPNF′ rewrite →
// compile → algebraic optimize. A non-nil tr records every intermediate
// state (PrepareTraced); a nil tr leaves the passes' trace hooks unset.
func prepare(query string, opts CompileOptions, tr *Trace) (*Query, error) {
	surface, err := parser.Parse(query)
	if err != nil {
		return nil, err
	}
	// The context item for "." and absolute paths is the variable $dot.
	normalized, err := core.Normalize(surface, "dot")
	if err != nil {
		return nil, err
	}
	// Run binds every free variable to a single node, so the rewriter's
	// singleton assumption is discharged by construction.
	singletons := rewrite.FreeVars(normalized)
	ropts := rewrite.Options{SingletonVars: singletons}
	oopts := optimize.Options{
		SingletonVars:          singletons,
		DisablePositionalFirst: opts.DisablePositionalFirst,
		DisableBulkConversion:  opts.DisableBulkConversion,
	}
	if tr != nil {
		tr.Core = core.String(normalized)
		ropts.Trace, oopts.Trace = tr.coreStep, tr.planStep
	}
	rewritten := normalized
	if opts.Rewrites {
		rewritten = rewrite.Rewrite(normalized, ropts)
	}
	plan, err := compile.Compile(rewritten)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.Plan = algebra.String(plan)
	}
	q := &Query{
		Source:    query,
		surface:   surface,
		coreExpr:  normalized,
		rewritten: rewritten,
		plan:      plan,
		optimized: plan,
	}
	if opts.TreePatterns {
		q.optimized = optimize.Optimize(plan, oopts)
	}
	return q, nil
}

// MustPrepare compiles a query and panics on error (for fixed query sets).
func MustPrepare(query string) *Query {
	q, err := Prepare(query)
	if err != nil {
		panic(err)
	}
	return q
}

// physicalPlan returns the query's compiled physical plan for alg, lowering
// the optimized logical plan on first use and memoizing it. The compiled
// plan is immutable and shared by concurrent runs.
func (q *Query) physicalPlan(alg Algorithm) (*physical.Plan, error) {
	if v, ok := q.phys.Load(alg); ok {
		return v.(*physical.Plan), nil
	}
	p, err := physical.Compile(q.optimized, alg)
	if err != nil {
		return nil, err
	}
	v, _ := q.phys.LoadOrStore(alg, p)
	return v.(*physical.Plan), nil
}

// Run evaluates the query against a document with the given algorithm.
// Every free variable of the query ($d, $input, …) and the context item are
// bound to the document node. Run is safe to call concurrently from many
// goroutines on the same Query and Document.
func (q *Query) Run(doc *Document, alg Algorithm) (Sequence, error) {
	seq, _, err := q.RunWith(context.Background(), doc, alg, RunOptions{})
	return seq, err
}

// Plan returns the optimized plan in the paper's functional notation.
func (q *Query) Plan() string { return algebra.String(q.optimized) }

// PlanTree returns the optimized plan with one operator per line.
func (q *Query) PlanTree() string { return algebra.Pretty(q.optimized) }

// UnoptimizedPlan returns the plan before tree-pattern detection (the
// paper's P1 shape).
func (q *Query) UnoptimizedPlan() string { return algebra.String(q.plan) }

// Core returns the normalized XQuery Core (the paper's Q1a-n shape).
func (q *Query) Core() string { return core.Pretty(q.coreExpr) }

// Rewritten returns the TPNF′ core after the §3 rewritings (the paper's
// Q1-tp shape).
func (q *Query) Rewritten() string { return core.Pretty(q.rewritten) }

// Operators returns the operator counts of the optimized plan.
func (q *Query) Operators() map[string]int { return algebra.CountOperators(q.optimized) }

// TreePatterns returns the number of TupleTreePattern operators in the
// optimized plan.
func (q *Query) TreePatterns() int { return q.Operators()["TupleTreePattern"] }

// Explain renders every compilation phase (the Fig. 2 pipeline, extended
// with the physical lowering) for inspection. The physical phase shows the
// default algorithm's plan; ExplainPhysical renders other algorithms and
// per-document Auto choices.
func (q *Query) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Query:\n  %s\n\n", q.Source)
	fmt.Fprintf(&b, "Parsed (surface syntax):\n  %s\n\n", ast.String(q.surface))
	fmt.Fprintf(&b, "Normalized (XQuery Core):\n%s\n\n", indentLines(core.Pretty(q.coreExpr)))
	fmt.Fprintf(&b, "Rewritten (TPNF'):\n%s\n\n", indentLines(core.Pretty(q.rewritten)))
	fmt.Fprintf(&b, "Compiled plan:\n%s\n", indentLines(algebra.Pretty(q.plan)))
	fmt.Fprintf(&b, "Optimized plan:\n%s\n\n", indentLines(algebra.Pretty(q.optimized)))
	if phys, err := q.ExplainPhysical(Staircase, nil); err != nil {
		fmt.Fprintf(&b, "Physical plan:\n  (error: %v)", err)
	} else {
		fmt.Fprintf(&b, "Physical plan:\n%s", indentLines(phys))
	}
	return b.String()
}

// ExplainPhysical renders the compiled physical plan for alg: one operator
// per line, with the frame slot every dependent field and variable was
// compiled to and each pattern operator's algorithm annotation. When doc is
// non-nil and alg is Auto, every pattern line fed directly by the root
// binding additionally records what Auto's rule does with it on that
// document: the algorithm, or skip(empty). Downstream operators (after a
// positional head, say) consume derived bindings and stay unannotated.
func (q *Query) ExplainPhysical(alg Algorithm, doc *Document) (string, error) {
	p, err := q.physicalPlan(alg)
	if err != nil {
		return "", err
	}
	if doc == nil || alg != Auto {
		return p.Explain(), nil
	}
	m, err := doc.c.Loaded(doc.i)
	if err != nil {
		return "", err
	}
	rootBound := make(map[*pattern.Pattern]bool)
	pats := p.Patterns()
	for i, rb := range p.RootBoundPatterns() {
		if rb {
			rootBound[pats[i]] = true
		}
	}
	return p.ExplainAnnotated(func(pat *pattern.Pattern) string {
		if !rootBound[pat] {
			return ""
		}
		est := join.ChooseEstimate(m.Index, m.Root(), pat)
		if est.Empty {
			return "skip(empty)"
		}
		return est.Alg.String()
	}), nil
}

func indentLines(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n")
}

// ItemString renders an item for display.
func ItemString(it Item) string { return xdm.ItemString(it) }

// SerializeItem renders a node item as XML, and atomics as their lexical
// value.
func SerializeItem(it Item) string { return string(AppendItem(nil, it)) }

// AppendItem appends what SerializeItem renders to dst and returns the
// extended slice; rendering a node into a buffer with room allocates nothing.
func AppendItem(dst []byte, it Item) []byte {
	if n, ok := it.(*xdm.Node); ok {
		return xmlstore.AppendXML(dst, n)
	}
	return append(dst, xdm.ItemString(it)...)
}
