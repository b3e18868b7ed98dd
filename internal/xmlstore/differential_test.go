package xmlstore

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"xqtp/internal/gen"
	"xqtp/internal/xdm"
	"xqtp/internal/xdm/xdmref"
)

// The differential contract of the ingest path: for every input that
// xdmref.ParseStd (the encoding/xml reference) accepts, the scanner must accept it
// too and produce a bit-identical tree — same symbol table, same columns,
// same text values, and, rank by rank, built nodes equal to the ones
// Finalize adopted, whose links the columns must reproduce — and Ingest's
// index must equal a BuildIndex run over the reference tree. Both trees
// must serialize to the bytes the reference's links walk to. The scanner
// may additionally accept inputs ParseStd rejects (it is non-validating);
// it must never reject what ParseStd accepts.

// parseStdString runs the reference path over a string.
func parseStdString(s string) (*xdmref.Doc, error) { return xdmref.ParseStd(strings.NewReader(s)) }

// requireIngestMatchesStd holds Ingest (scan → columns → BuildIndex → nodes
// on request) to the reference (ParseStd → Finalize → BuildIndex), rank for
// rank, node for node and byte for byte.
func requireIngestMatchesStd(t *testing.T, want *xdmref.Doc, data []byte) {
	t.Helper()
	ix, err := Ingest(data)
	if err != nil {
		t.Fatalf("Ingest rejected input accepted by ParseStd: %v\ninput: %q", err, data)
	}
	requireIndexesEqual(t, BuildIndex(want.Tree), ix)
	requireTreesEqual(t, want, ix.Tree)
	requireSerializationsAgree(t, want, ix.Tree)
}

// requireTreesEqual compares two trees column for column and node for node;
// std is a Finalize tree, whose columns and nodes are compared with got's and
// whose Parent/Children/Attrs links are checked against got's columns.
func requireTreesEqual(t *testing.T, std *xdmref.Doc, got *xdm.Tree) {
	t.Helper()
	want := std.Tree
	if want.CountNodes() != got.CountNodes() {
		t.Fatalf("node count: fast %d, std %d", got.CountNodes(), want.CountNodes())
	}
	if want.Syms.Len() != got.Syms.Len() {
		t.Fatalf("symbol count: fast %d, std %d", got.Syms.Len(), want.Syms.Len())
	}
	for s := 0; s < want.Syms.Len(); s++ {
		if want.Syms.Name(xdm.Sym(s)) != got.Syms.Name(xdm.Sym(s)) {
			t.Fatalf("symbol %d: fast %q, std %q", s, got.Syms.Name(xdm.Sym(s)), want.Syms.Name(xdm.Sym(s)))
		}
	}
	wOff, wBlob := want.TextTable()
	gOff, gBlob := got.TextTable()
	if !slices.Equal(wOff, gOff) || wBlob != gBlob {
		t.Fatalf("text table: fast %v %q, std %v %q", gOff, gBlob, wOff, wBlob)
	}
	wc, gc := want.Cols, got.Cols
	for pre := range wc.Kind {
		if wc.Size[pre] != gc.Size[pre] || wc.Parent[pre] != gc.Parent[pre] ||
			wc.Kind[pre] != gc.Kind[pre] || wc.Sym[pre] != gc.Sym[pre] {
			t.Fatalf("pre %d: column mismatch fast(size=%d parent=%d kind=%d sym=%d) std(size=%d parent=%d kind=%d sym=%d)",
				pre, gc.Size[pre], gc.Parent[pre], gc.Kind[pre], gc.Sym[pre],
				wc.Size[pre], wc.Parent[pre], wc.Kind[pre], wc.Sym[pre])
		}
	}
	for pre := range wc.Kind {
		r := int32(pre)
		w, g := std.Nodes[r], got.Node(r)
		if w.Kind != g.Kind || w.Name != g.Name || w.Text != g.Text || w.Sym != g.Sym {
			t.Fatalf("pre %d: fast {kind=%v name=%q text=%q sym=%d}, std {kind=%v name=%q text=%q sym=%d}",
				pre, g.Kind, g.Name, g.Text, g.Sym, w.Kind, w.Name, w.Text, w.Sym)
		}
		if w.Pre != g.Pre || w.Size != g.Size {
			t.Fatalf("pre %d: encoding fast (pre=%d size=%d), std (pre=%d size=%d)", pre, g.Pre, g.Size, w.Pre, w.Size)
		}
		if g.Doc != got {
			t.Fatalf("pre %d: Doc pointer not set", pre)
		}
		if w.Parent != nil && int32(w.Parent.Pre) != gc.Parent[pre] {
			t.Fatalf("pre %d: parent column %d, std link %d", pre, gc.Parent[pre], w.Parent.Pre)
		}
		var kids, attrs []int
		for ch := gc.FirstChild(r); ch <= gc.End(r); ch = gc.NextSibling(ch) {
			kids = append(kids, int(ch))
		}
		for a := r + 1; a <= gc.End(r) && xdm.Kind(gc.Kind[a]) == xdm.AttributeNode; a++ {
			attrs = append(attrs, int(a))
		}
		if !slices.Equal(kids, pres(w.Children)) || !slices.Equal(attrs, pres(w.Attrs)) {
			t.Fatalf("pre %d: fast children %v attrs %v, std %v %v", pre, kids, attrs, pres(w.Children), pres(w.Attrs))
		}
	}
}

func pres(ns []*xdmref.Node) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n.Pre
	}
	return out
}

// requireSerializationsAgree holds the column serializer to the link walk:
// for every rank, AppendXML over the columns of the reference tree and of
// the ingested one must be the bytes xdmref.AppendLinked walks from the
// reference node, and Serialize (flushing through the same scan) must write
// the document's bytes.
func requireSerializationsAgree(t *testing.T, std *xdmref.Doc, got *xdm.Tree) {
	t.Helper()
	want := std.Tree
	for pre := range want.Cols.Kind {
		r := int32(pre)
		ref := xdmref.AppendLinked(nil, std.Nodes[r], appendEscaped)
		if out := AppendXML(nil, want.Node(r)); !bytes.Equal(out, ref) {
			t.Fatalf("pre %d: column AppendXML %q, link walk %q", pre, out, ref)
		}
		if out := AppendXML(nil, got.Node(r)); !bytes.Equal(out, ref) {
			t.Fatalf("pre %d: ingested AppendXML %q, link walk %q", pre, out, ref)
		}
	}
	var buf bytes.Buffer
	if err := Serialize(&buf, got.RootNode()); err != nil {
		t.Fatal(err)
	}
	if ref := xdmref.AppendLinked(nil, std.Nodes[0], appendEscaped); !bytes.Equal(buf.Bytes(), ref) {
		t.Fatalf("Serialize wrote %d bytes differing from the link walk's %d", buf.Len(), len(ref))
	}
}

// requireIndexesEqual compares an index against a reference, rank stream
// for rank stream.
func requireIndexesEqual(t *testing.T, want, got *Index) {
	t.Helper()
	requireStreams := func(label string, w, g []int32) {
		t.Helper()
		if len(w) != len(g) {
			t.Fatalf("%s: fast has %d ranks, reference %d", label, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("%s[%d]: fast %d, reference %d", label, i, g[i], w[i])
			}
		}
	}
	if len(want.elems.off) != len(got.elems.off) || len(want.attrs.off) != len(got.attrs.off) {
		t.Fatalf("per-symbol table sizes: fast %d/%d, reference %d/%d",
			len(got.elems.off), len(got.attrs.off), len(want.elems.off), len(want.attrs.off))
	}
	for s := xdm.Sym(0); int(s) < len(want.elems.off)-1; s++ {
		requireStreams("elem sym "+want.Tree.Syms.Name(s), want.ElementRanksSym(s), got.ElementRanksSym(s))
		requireStreams("attr sym "+want.Tree.Syms.Name(s), want.AttributeRanksSym(s), got.AttributeRanksSym(s))
	}
	requireStreams("allElems", want.allElems, got.allElems)
	requireStreams("allText", want.allText, got.allText)
	requireStreams("allNodes", want.allNodes, got.allNodes)
	requireStreams("allAttrs", want.allAttrs, got.allAttrs)
}

// differentialCorpus exercises the scanner against xdmref.ParseStd: every entry is
// accepted by encoding/xml.
var differentialCorpus = []string{
	`<a/>`,
	`<a></a>`,
	`<doc><person><name>Ann</name><emailaddress/></person></doc>`,
	`<p>one<b>two</b> three</p>`,
	"<a>\n  <b/>\n  <c>x</c>\n</a>",
	"<a>\u00a0</a>", // NBSP: Unicode whitespace-only text is dropped
	"<a>\ufeff</a>", // ZWNBSP is not TrimSpace whitespace: kept
	"<a>\t \n</a>",  // ASCII whitespace-only: dropped
	`<a><![CDATA[<not>&markup;]]></a>`,
	`<a>pre<![CDATA[mid]]>post</a>`, // CDATA splits the run into 3 text nodes
	`<a>  <![CDATA[]]>  </a>`,
	`<a><![CDATA[x]]><![CDATA[y]]></a>`,
	`<a>&lt;&gt;&amp;&apos;&quot;</a>`,
	`<a>&#65;&#x41;&#x1F600;&#x00000041;</a>`,
	`<a b="x&amp;y&#10;z" c="&quot;q&apos;"/>`,
	"<a>line1\r\nline2\rline3</a>", // \r\n and \r normalize to \n
	"<a b=\"v1\r\nv2\rv3\"/>",
	"<a><![CDATA[x\r\ny\rz]]></a>", // normalization applies inside CDATA too
	`<a>x<!-- comment -->y</a>`,    // comment splits the run into 2 text nodes
	`<a><!-- only --></a>`,
	`<?xml version="1.0" encoding="UTF-8"?><a><?pi data?>t</a>`,
	`<!DOCTYPE doc [<!ELEMENT doc (#PCDATA)> <!-- c --> ]><doc>x</doc>`,
	`<a xmlns="u" xmlns:p="v" p:attr="w" regular="r"><p:b p:c="1"/></a>`,
	`<a xmlns:z="xmlns" z:b="1"/>`, // z resolves to the xmlns space: dropped
	`<a xmlns:z="xmlns"><b z:c="1"/><z:d/></a>`,
	`<a xmlns:z="xmlns"><b xmlns:z="other" z:c="1"/><c z:d="1"/></a>`, // shadowing
	`<a z:b="1" xmlns:z="xmlns"/>`,                                    // declaration after use, same tag
	`<a p:xmlns="v"/>`,                                                // not a declaration: kept (local name xmlns)
	`<a xmlns:="v"/>`,                                                 // trailing colon does not split: kept
	`<a b="1" b="2"/>`,                                                // duplicate attributes are both kept
	"<a  b = '1'\tc\n=\n\"2\" />",
	`<a></a >`,
	`<root><mid><deep attr="x">t1</deep></mid>tail</root>`,
	`<a><b/><b></b><b>x</b></a>`,
	`<a>t1<b>t2</b>t3<b/>t4</a>`,
}

// TestFastVsStdCorpus checks Ingest against the reference path on the
// handwritten corpus.
func TestFastVsStdCorpus(t *testing.T) {
	for _, doc := range differentialCorpus {
		t.Run("", func(t *testing.T) {
			want, err := parseStdString(doc)
			if err != nil {
				t.Fatalf("ParseStd rejected corpus entry %q: %v", doc, err)
			}
			requireIngestMatchesStd(t, want, []byte(doc))
		})
	}
}

// TestFastVsStdGenerated runs the differential check over serialized
// MemBeR, XMark, and deep generated documents — the benchmark workloads.
func TestFastVsStdGenerated(t *testing.T) {
	docs := map[string][]byte{
		"member": AppendXML(nil, gen.MemberRoot(gen.MemberConfig{Seed: 7, Depth: 4, NumTags: 100, NumNodes: 20000})),
		"xmark":  AppendXML(nil, gen.XMarkRoot(gen.XMarkConfig{Seed: 7, People: 200})),
		"deep":   AppendXML(nil, gen.DeepRoot(7, 5000, 15, "t1")),
	}
	for name, data := range docs {
		t.Run(name, func(t *testing.T) {
			want, err := xdmref.ParseStd(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("ParseStd: %v", err)
			}
			requireIngestMatchesStd(t, want, data)
		})
	}
}

// TestMalformedRejected checks that both parsers reject malformed input
// with an xmlstore:-prefixed error.
func TestMalformedRejected(t *testing.T) {
	cases := []struct {
		name, doc string
	}{
		{"empty", ""},
		{"whitespace only", "  \n\t "},
		{"text only", "hello"},
		{"unterminated root", "<a>"},
		{"unterminated nested", "<a><b></b>"},
		{"mismatched close", "<a><b></a>"},
		{"stray end", "</x>"},
		{"stray end after root", "<a/></x>"},
		{"multiple roots", "<a/><b/>"},
		{"unquoted attr", "<a b=c/>"},
		{"attr without value", "<a b/>"},
		{"bad self close", "<a/ >"},
		{"junk in end tag", "<a></a junk>"},
		{"unknown entity", "<a>&unknown;</a>"},
		{"empty charref", "<a>&#;</a>"},
		{"bare ampersand run", "<a>x & y</a>"},
		{"unterminated comment", "<a><!-- never"},
		{"unterminated cdata", "<a><![CDATA[x"},
		{"unterminated pi", "<a><?pi x"},
		{"unterminated tag", "<a b=\"1\""},
		{"lone angle", "<"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := xdmref.ParseStd(strings.NewReader(tc.doc)); err == nil {
				t.Fatalf("ParseStd accepted %q", tc.doc)
			} else if !strings.HasPrefix(err.Error(), "xmlstore:") {
				t.Fatalf("ParseStd error not xmlstore-prefixed: %v", err)
			}
			if _, err := ParseString(tc.doc); err == nil {
				t.Fatalf("fast parser accepted %q", tc.doc)
			} else if !strings.HasPrefix(err.Error(), "xmlstore:") {
				t.Fatalf("fast parser error not xmlstore-prefixed: %v", err)
			}
		})
	}
}

// parseStdTree is parseStdString's column tree.
func parseStdTree(s string) (*xdm.Tree, error) {
	d, err := parseStdString(s)
	if err != nil {
		return nil, err
	}
	return d.Tree, nil
}

// TestXmlnsDropSymmetry pins the namespace-declaration handling both
// parsers share: declarations are dropped, lookalikes are kept.
func TestXmlnsDropSymmetry(t *testing.T) {
	cases := []struct {
		doc       string
		wantAttrs []string // names of the root's surviving attributes, in order
	}{
		{`<a xmlns="u"/>`, nil},
		{`<a xmlns:p="u"/>`, nil},
		{`<a xmlns="u" keep="1"/>`, []string{"keep"}},
		{`<a p:xmlns="v"/>`, []string{"xmlns"}},
		{`<a xmlns:="v"/>`, []string{"xmlns:"}},
		{`<a Xmlns="v"/>`, []string{"Xmlns"}},
		{`<a xmlns:z="xmlns" z:b="1" keep="2"/>`, []string{"keep"}},
		{`<a z:b="1" xmlns:z="xmlns"/>`, nil},
		{`<a xmlns:z="other" z:b="1"/>`, []string{"b"}},
	}
	for _, tc := range cases {
		for _, parse := range []struct {
			label string
			fn    func(string) (*xdm.Tree, error)
		}{{"std", parseStdTree}, {"fast", ParseString}} {
			tr, err := parse.fn(tc.doc)
			if err != nil {
				t.Fatalf("%s rejected %q: %v", parse.label, tc.doc, err)
			}
			var names []string
			for _, a := range xdm.Step(tr.DocElem(), xdm.AxisAttribute, xdm.StarTest()) {
				names = append(names, a.Name)
			}
			if len(names) != len(tc.wantAttrs) {
				t.Fatalf("%s on %q: attrs %v, want %v", parse.label, tc.doc, names, tc.wantAttrs)
			}
			for i := range names {
				if names[i] != tc.wantAttrs[i] {
					t.Fatalf("%s on %q: attrs %v, want %v", parse.label, tc.doc, names, tc.wantAttrs)
				}
			}
		}
	}
}

// FuzzScanVsStd fuzzes the differential contract: whenever ParseStd accepts
// an input, the fast scanner must accept it and produce an identical tree
// and index, and both must serialize to the reference's link walk.
func FuzzScanVsStd(f *testing.F) {
	for _, doc := range differentialCorpus {
		f.Add([]byte(doc))
	}
	f.Add([]byte("<a>&#xD;&#13;</a>")) // charrefs escape newline normalization
	f.Add([]byte("<a><b><c/></b><b/></a>"))
	f.Add([]byte("<!DOCTYPE a SYSTEM \"x\"><a/>"))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, stdErr := xdmref.ParseStd(bytes.NewReader(data))
		if stdErr != nil {
			// ParseStd rejects; the non-validating scanner may go either way.
			return
		}
		requireIngestMatchesStd(t, want, bytes.Clone(data))
	})
}
