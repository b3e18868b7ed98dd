package xmlstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"xqtp/internal/gen"
	"xqtp/internal/xdm"
)

// appendEscapedRef is the byte-at-a-time loop appendEscaped replaced, kept as
// the reference its output must stay byte-identical to.
func appendEscapedRef(dst []byte, s string, attr bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		case '\r':
			dst = append(dst, "&#xD;"...)
		case '"':
			if attr {
				dst = append(dst, "&quot;"...)
			} else {
				dst = append(dst, c)
			}
		case '\n':
			if attr {
				dst = append(dst, "&#xA;"...)
			} else {
				dst = append(dst, c)
			}
		case '\t':
			if attr {
				dst = append(dst, "&#x9;"...)
			} else {
				dst = append(dst, c)
			}
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// FuzzAppendEscaped checks the table-driven escaper against the reference
// loop in text and attribute mode, appending to a non-empty prefix.
func FuzzAppendEscaped(f *testing.F) {
	for _, seed := range []string{
		"", "plain text with nothing to escape",
		"&", "<", ">", "\r", `"`, "\n", "\t",
		`a&b<c>d"e`, "line one\nline two\r\n\tindented", "&&&&", `trailing "`, `"leading`,
		"héllo wörld — ünïcode ✓ 日本語", "\xff\xfe invalid utf-8 \x80", "\x00\x01\x1f",
		strings.Repeat("clean run ", 50) + "<" + strings.Repeat("another ", 50),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, attr := range []bool{false, true} {
			want := appendEscapedRef([]byte("prefix:"), s, attr)
			got := appendEscaped([]byte("prefix:"), s, attr)
			if !bytes.Equal(got, want) {
				t.Fatalf("appendEscaped(%q, attr=%v) = %q, reference %q", s, attr, got, want)
			}
		}
	})
}

func BenchmarkAppendEscaped(b *testing.B) {
	text := strings.Repeat("Quisque a lectus & donec <consectetuer> ligula vulputate sem tristique cursus. ", 40)
	buf := make([]byte, 0, 2*len(text))
	for _, bc := range []struct {
		name string
		fn   func([]byte, string, bool) []byte
	}{{"table", appendEscaped}, {"reference", appendEscapedRef}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				buf = bc.fn(buf[:0], text, false)
			}
		})
	}
}

// jsonSeeds hold every byte class the fused JSON mode escapes differently
// from plain text: control bytes, the JSON and XML specials, tabs and
// newlines in attribute values, U+2028/9 and invalid UTF-8 in names and
// values, and UTF-8 sequences cut between two text nodes by a CDATA section
// or a comment, which encoding/json decodes whole.
var jsonSeeds = func() []string {
	var ctl []byte
	for b := byte(1); b < ' '; b++ {
		ctl = append(ctl, b)
	}
	ctl = append(ctl, 0x7f)
	return []string{
		"<a k=\"" + string(ctl) + "\">" + string(ctl) + "</a>",
		`<a k="&quot;\&lt;&gt;&amp;'" l='"'>"\&lt;&gt;&amp;'</a>`,
		"<a k=\"t&#9;n&#10;r&#13;\tx\ny\">t\tn\nr&#13;</a>",
		"<a  k =\"v \">x y<b /></a >",
		"<a\xff k\xfe=\"\xfd\xc3\">\xe2\x80 \xf0\x9f\x8e<b\xc0/></a\xff>",
		"<a\u2028 k\u2029=\"\u2028\">\u2029<b\u2029 \u2028=\"x\u2029y\"/>\u2028</a\u2028>",
		"<p>a\xe2\x80<![CDATA[\xa8]]>b</p>",
		"<p>\xe2<!-- c -->\x80\xa9<![CDATA[]]>\xf0<![CDATA[\x9f]]><!---->\x8e\x89</p>",
		"<p>\xe2\xe2<![CDATA[\x80\xa8\xa8]]>\xed\xa0<!---->\x80</p>",
		"<p><b>\xe2\x80</b>\xa8</p>",
	}
}()

// requireFusedMatchesJSON holds the fused mode to its definition: for every
// rank of the document, AppendRank with asJSON writes what json.Marshal
// writes for the rank's XML between the quotes, after a prefix it leaves
// alone.
func requireFusedMatchesJSON(t *testing.T, tr *xdm.Tree) {
	t.Helper()
	for pre := range tr.Cols.Kind {
		r := int32(pre)
		want, err := json.Marshal(string(AppendXML(nil, tr.Node(r))))
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendRank([]byte(`prefix:"`), tr, r, true); string(got)+`"` != `prefix:`+string(want) {
			t.Fatalf("pre %d: fused %s, json.Marshal of the XML %s", pre, got[len("prefix:"):], want)
		}
	}
}

// TestAppendRankJSON holds both ways scan writes names to json.Marshal: as
// they are under a plain symbol table (the XMark document), escaped under
// one that is not (the seeds with \xff and U+2028 names). It renders every
// document once as ingested and once saved and reopened, whose symbol table
// the snapshot loader builds.
func TestAppendRankJSON(t *testing.T) {
	xmark := string(AppendXML(nil, gen.XMarkRoot(gen.XMarkConfig{Seed: 7, People: 20})))
	docs := append(append([]string{}, jsonSeeds...), differentialCorpus...)
	docs = append(docs, xmark)
	ixs := make([]*Index, len(docs))
	uris := make([]string, len(docs))
	for i, doc := range docs {
		ix, err := IngestString(doc)
		if err != nil {
			t.Fatalf("Ingest(%q): %v", doc, err)
		}
		requireFusedMatchesJSON(t, ix.Tree)
		ixs[i], uris[i] = ix, fmt.Sprintf("doc%d", i)
	}
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, snapshotFromIndexes(uris, ixs)); err != nil {
		t.Fatal(err)
	}
	reopened, err := openEager(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	odd := 0
	for i, doc := range docs {
		tr := reopened.Indexes[i].Tree
		requireFusedMatchesJSON(t, tr)
		plain := ixs[i].Tree.Syms.Plain()
		if tr.Syms.Plain() != plain {
			t.Fatalf("%q: reopened symbol table plain %v, ingested %v", doc, tr.Syms.Plain(), plain)
		}
		switch {
		case doc == xmark && !plain:
			t.Fatal("the XMark document's symbol table is not plain")
		case strings.HasPrefix(doc, "<a\xff") || strings.HasPrefix(doc, "<a\u2028"):
			if plain {
				t.Fatalf("%q: symbol table is plain", doc)
			}
			odd++
		}
	}
	if odd != 3 {
		t.Fatalf("%d seeds with odd names, want the \\xff one and both U+2028 ones", odd)
	}
}

func FuzzAppendRankJSON(f *testing.F) {
	for _, doc := range jsonSeeds {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := Ingest(bytes.Clone(data))
		if err != nil {
			return
		}
		requireFusedMatchesJSON(t, ix.Tree)
	})
}

// BenchmarkSerialize renders every person of an XMark document: as XML, as
// the JSON string of its XML in one fused pass, and in the two passes the
// fused mode replaces.
func BenchmarkSerialize(b *testing.B) {
	ix, err := IngestString(string(AppendXML(nil, gen.XMarkRoot(gen.XMarkConfig{Seed: 1, People: 400}))))
	if err != nil {
		b.Fatal(err)
	}
	tr := ix.Tree
	var persons []int32
	for r := range tr.Cols.Kind {
		if xdm.Kind(tr.Cols.Kind[r]) == xdm.ElementNode && tr.Syms.Name(xdm.Sym(tr.Cols.Sym[r])) == "person" {
			persons = append(persons, int32(r))
		}
	}
	xmlBytes := 0
	for _, r := range persons {
		xmlBytes += len(AppendRank(nil, tr, r, false))
	}
	var buf, scratch []byte
	for _, bc := range []struct {
		name   string
		render func(r int32)
	}{
		{"xml", func(r int32) { buf = AppendRank(buf, tr, r, false) }},
		{"json-fused", func(r int32) { buf = append(AppendRank(append(buf, '"'), tr, r, true), '"') }},
		{"json-two-pass", func(r int32) {
			scratch = AppendRank(scratch[:0], tr, r, false)
			buf = AppendJSONString(buf, string(scratch))
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(xmlBytes))
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				for _, r := range persons {
					bc.render(r)
				}
			}
		})
	}
}
