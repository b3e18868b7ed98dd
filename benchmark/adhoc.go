package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"xqtp"
	"xqtp/internal/execctx"
	"xqtp/internal/gen"
	"xqtp/internal/physical"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// adhocDoc is one ~20 KB document of compile_adhoc: through the public API
// for the measured operation, and as index and root for the staged one.
type adhocDoc struct {
	doc   *xqtp.Document
	fresh *xqtp.Document // the oracle's own parse of the same bytes
	cat   *xmlstore.Catalog
	ix    *xmlstore.Index
	root  *xdm.Node
}

type adhocQuery struct {
	text   string
	family string // variants of one family must agree; "" for a single query
	doc    *adhocDoc
	want   expect
	staged *staged // traced pass only
}

// adhocInst is compile_adhoc: every operation compiles a query text from
// scratch, as a caller without a plan cache would, and runs it once on a
// small document.
type adhocInst struct {
	queries  []adhocQuery
	bindings int
	probed   bool
}

func (a *adhocInst) query(i int) *adhocQuery { return &a.queries[i%len(a.queries)] }

func (a *adhocInst) op(_, i int) (time.Duration, bool) {
	aq := a.query(i)
	t0 := time.Now()
	q, err := xqtp.Prepare(aq.text)
	if err != nil {
		return time.Since(t0), false
	}
	seq, err := q.Run(aq.doc.doc, xqtp.Auto)
	lat := time.Since(t0)
	return lat, err == nil && itemsSum(seq) == aq.want
}

// tracedOp is op with the compilation taken stage by stage and the run on
// the lowered plan directly, one span around each.
func (a *adhocInst) tracedOp(tr *tracer, _, i int) (time.Duration, bool) {
	aq := a.query(i)
	tr.nextOp()
	t0 := time.Now()
	tr.begin("op", "")
	st, err := compileStages(tr, aq.text)
	if err != nil {
		tr.end()
		return time.Since(t0), false
	}
	rt := &physical.Runtime{Catalog: aq.doc.cat, Preps: st.preps, Root: xdm.Singleton(aq.doc.root)}
	var col execctx.Collector
	tr.begin("physical.run", "")
	err = st.phys.RunSink(rt, &col)
	tr.end()
	tr.end()
	lat := time.Since(t0)
	return lat, err == nil && itemsSum(col.Seq) == aq.want
}

func (a *adhocInst) startTrace() error { return nil }

func (a *adhocInst) probe(tr *tracer) error {
	for k := range a.queries {
		aq := &a.queries[k]
		if aq.staged == nil {
			st, err := compileStages(nil, aq.text)
			if err != nil {
				return err
			}
			if err := st.checkAgainstPrepare(); err != nil {
				return err
			}
			aq.staged = st
		}
		b, err := probeQuery(tr, aq.staged, aq.doc.cat, aq.doc.ix, aq.doc.root)
		if err != nil {
			return err
		}
		if !a.probed {
			a.bindings += b
		}
	}
	a.probed = true
	return nil
}

func (a *adhocInst) finish(f *finishArgs) error {
	var staged []*staged
	for k := range a.queries {
		staged = append(staged, a.queries[k].staged)
	}
	addStagedCounts(f.metrics, staged)
	f.metrics["join.kernel_bindings"] = float64(a.bindings)
	// Every operation compiles afresh: nothing is looked up in a plan cache,
	// and each query's prepared-join cache starts empty and is used once.
	f.metrics["plancache.hit_ratio"] = 0
	f.metrics["exec.prepcache_hit_ratio"] = 0
	return nil
}

func (a *adhocInst) close() {}

func newAdhocDoc(data []byte) (*adhocDoc, error) {
	doc, err := xqtp.LoadXMLBytes(bytes.Clone(data))
	if err != nil {
		return nil, err
	}
	ix, err := xmlstore.Ingest(bytes.Clone(data))
	if err != nil {
		return nil, err
	}
	fresh, err := xqtp.LoadXMLBytes(bytes.Clone(data))
	if err != nil {
		return nil, err
	}
	cat := xmlstore.NewCatalog()
	cat.Register(ix)
	return &adhocDoc{doc: doc, fresh: fresh, cat: cat, ix: ix, root: ix.Tree.RootNode()}, nil
}

// setupCompileAdhoc collects the paper's query texts, each with a small
// document of its family, and asks the oracle for every answer.
func setupCompileAdhoc(e env) (instance, error) {
	inputs := map[string][]byte{
		"xmark":  xmarkXML(e.seed, e.sizes.adhocPeople),
		"member": memberXML(e.seed, 6, e.sizes.adhocNodes),
		"deep":   serializeRoot(gen.DeepRoot(e.seed, e.sizes.adhocNodes, 12, "t1")),
	}
	docs := map[string]*adhocDoc{}
	for name, data := range inputs {
		d, err := newAdhocDoc(data)
		if err != nil {
			return nil, err
		}
		docs[name] = d
	}

	a := &adhocInst{}
	add := func(doc, family string, texts ...string) {
		for _, t := range texts {
			a.queries = append(a.queries, adhocQuery{text: t, family: family, doc: docs[doc]})
		}
	}
	add("xmark", "fig4", xqtp.Fig4Variants()...)
	add("xmark", "email", xqtp.PathVariants("$input", []string{"site", "people", "person", "name"}, 2, "emailaddress")...)
	add("xmark", "increase", xqtp.PathVariants("$input", []string{"site", "open_auctions", "open_auction", "bidder", "increase"}, 0, "")...)
	add("xmark", "price", xqtp.PathVariants("$input", []string{"site", "closed_auctions", "closed_auction", "price"}, 0, "")...)
	add("xmark", "interest", xqtp.PathVariants("$input", []string{"site", "people", "person", "profile", "interest"}, 0, "")...)
	for _, q := range xqtp.Figure1Queries {
		add("xmark", "", q.Query)
	}
	for _, q := range xqtp.XMarkQueries {
		if q.Name != "XQ8" { // a value join, quadratic even on a small document
			add("xmark", "", q.Query)
		}
	}
	for _, q := range xqtp.QEQueries {
		add("member", "", q.Query)
	}
	for k := 1; k <= 8; k++ {
		add("deep", "", xqtp.Section53Query(k))
	}

	type familyFacts struct {
		want     expect
		patterns int
	}
	families := map[string]familyFacts{}
	for k := range a.queries {
		aq := &a.queries[k]
		std, err := xqtp.PrepareWithOptions(aq.text, xqtp.StandardEngineOptions)
		if err != nil {
			return nil, fmt.Errorf("oracle: %q: %w", aq.text, err)
		}
		seq, err := std.Run(aq.doc.fresh, xqtp.NestedLoop)
		if err != nil {
			return nil, fmt.Errorf("oracle: %q: %w", aq.text, err)
		}
		aq.want = itemsSum(seq)
		if aq.family == "" {
			continue
		}
		// The paper's claim of section 5.1: every syntactic variant of a
		// path returns the same items and compiles to the same tree patterns.
		q, err := xqtp.Prepare(aq.text)
		if err != nil {
			return nil, err
		}
		facts := familyFacts{want: aq.want, patterns: q.TreePatterns()}
		if first, ok := families[aq.family]; !ok {
			families[aq.family] = facts
		} else if first != facts {
			return nil, fmt.Errorf("family %s: variant %q gives %+v, the first variant %+v", aq.family, aq.text, facts, first)
		}
	}
	rand.New(rand.NewSource(e.seed)).Shuffle(len(a.queries), func(i, j int) {
		a.queries[i], a.queries[j] = a.queries[j], a.queries[i]
	})
	return a, nil
}
