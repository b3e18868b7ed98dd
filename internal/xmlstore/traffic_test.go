package xmlstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"unsafe"

	"xqtp/internal/gen"
	"xqtp/internal/xdm"
)

// countingWriter counts the writes the snapshot writer issues and the bytes
// they carry.
type countingWriter struct{ writes, bytes int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += len(p)
	return len(p), nil
}

var errSink = errors.New("sink full")

// failAfter accepts n writes and fails every later one.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n == 0 {
		return 0, errSink
	}
	f.n--
	return len(p), nil
}

// ingestAll ingests docs as the members of a corpus snapshot.
func ingestAll(t *testing.T, docs [][]byte) *CorpusSnapshot {
	t.Helper()
	uris := make([]string, len(docs))
	ixs := make([]*Index, len(docs))
	for i, d := range docs {
		ix, err := Ingest(d)
		if err != nil {
			t.Fatal(err)
		}
		uris[i], ixs[i] = fmt.Sprintf("m%d.xml", i), ix
	}
	return snapshotFromIndexes(uris, ixs)
}

// textMembers returns members documents holding texts text values each,
// over one tag set.
func textMembers(members, texts int) [][]byte {
	doc := []byte("<r>" + strings.Repeat(`<a k="v">x</a>`, texts/2) + "</r>")
	out := make([][]byte, members)
	for i := range out {
		out[i] = doc
	}
	return out
}

// The writer's traffic does not depend on how many values it encodes: on a
// generated corpus every write but the last is a full snapChunk (and a sink
// error mid-stream is what WriteCorpus returns), and two corpora of the same
// member count whose text values differ tenfold cost the same allocations —
// on the aliasing path and on the portable per-element encoder alike.
func TestWriteCorpusTraffic(t *testing.T) {
	defer func(prev bool) { forcePortable = prev }(forcePortable)
	generated := ingestAll(t, [][]byte{
		AppendXML(nil, gen.MemberRoot(gen.MemberConfig{Seed: 1, Depth: 4, NumTags: 20, NumNodes: 3000})),
		AppendXML(nil, gen.XMarkRoot(gen.XMarkConfig{Seed: 2, People: 40})),
		AppendXML(nil, gen.MemberRoot(gen.MemberConfig{Seed: 3, Depth: 4, NumTags: 50, NumNodes: 2000})),
		AppendXML(nil, gen.XMarkRoot(gen.XMarkConfig{Seed: 4, People: 30})),
	})
	few, many := ingestAll(t, textMembers(4, 200)), ingestAll(t, textMembers(4, 2000))
	for _, portable := range []bool{false, true} {
		forcePortable = portable
		t.Run(fmt.Sprintf("portable=%v", portable), func(t *testing.T) {
			var cw countingWriter
			if err := WriteCorpus(&cw, generated); err != nil {
				t.Fatal(err)
			}
			if limit := (cw.bytes+snapChunk-1)/snapChunk + 1; cw.bytes <= 2*snapChunk || cw.writes > limit {
				t.Fatalf("%d bytes in %d writes, want more than two chunks in at most %d", cw.bytes, cw.writes, limit)
			}
			if err := WriteCorpus(&failAfter{n: 1}, generated); !errors.Is(err, errSink) {
				t.Fatalf("a sink failing on its second write: WriteCorpus returned %v", err)
			}
			allocs := func(s *CorpusSnapshot) float64 {
				return testing.AllocsPerRun(5, func() {
					if err := WriteCorpus(io.Discard, s); err != nil {
						t.Fatal(err)
					}
				})
			}
			if a, b := allocs(few), allocs(many); a != b {
				t.Fatalf("WriteCorpus allocates %v times for 4×200 text values, %v for 4×2000", a, b)
			}
		})
	}
}

// One loader reused across members — a failure in between included — hands
// out trees and indexes that share nothing with its scratch or with each
// other: each equals a fresh Ingest of the same bytes after the loader has
// moved on. Warm, its allocations do not grow with the member.
func TestLoaderReuseCannotAlias(t *testing.T) {
	docA := AppendXML(nil, gen.XMarkRoot(gen.XMarkConfig{Seed: 5, People: 20}))
	docB := AppendXML(nil, gen.MemberRoot(gen.MemberConfig{Seed: 6, Depth: 4, NumTags: 20, NumNodes: 800}))
	malformed := []byte(`<x xmlns:p="u" a="1&amp;2"><p:y k="&lt;">t &amp; u</p:y><z>text</x>`)
	var ld Loader
	a, err := ld.Ingest(bytes.Clone(docA))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ld.Ingest(malformed); err == nil {
		t.Fatal("malformed document ingested without error")
	}
	if ld.in.data != nil || len(ld.in.nsBindings) != 0 {
		t.Fatal("the loader still references the failed document")
	}
	b, err := ld.Ingest(bytes.Clone(docB))
	if err != nil {
		t.Fatal(err)
	}
	freshA, err := Ingest(bytes.Clone(docA))
	if err != nil {
		t.Fatal(err)
	}
	freshB, err := Ingest(bytes.Clone(docB))
	if err != nil {
		t.Fatal(err)
	}
	indexesEqual(t, freshA, a)
	indexesEqual(t, freshB, b)

	small := []byte("<r>" + strings.Repeat(`<a k="1"><b>t</b><c/></a>`, 100) + "</r>")
	large := []byte("<r>" + strings.Repeat(`<a k="1"><b>t</b><c/></a>`, 1000) + "</r>")
	if _, err := ld.Ingest(large); err != nil {
		t.Fatal(err)
	}
	allocs := func(doc []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := ld.Ingest(doc); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s, l := allocs(small), allocs(large); s != l {
		t.Fatalf("a warm loader allocates %v times for 300 elements, %v for 3000", s, l)
	}

	// Values that need decoding cost no allocation each either: they are
	// decoded into the loader's scratch and copied into the text blob.
	entities := func(n int) []byte {
		return []byte("<r>" + strings.Repeat(`<a k="1&amp;2">t &lt; u&#x9;</a>`, n) + "</r>")
	}
	if _, err := ld.Ingest(entities(1000)); err != nil {
		t.Fatal(err)
	}
	if s, l := allocs(entities(10)), allocs(entities(1000)); s != l {
		t.Fatalf("a warm loader allocates %v times for 10 entity-bearing texts and attribute values, %v for 1000", s, l)
	}

	// Names the loader has seen before are not copied again: a re-ingested
	// member's symbol table holds the very strings the first one held.
	a2, err := ld.Ingest(bytes.Clone(docA))
	if err != nil {
		t.Fatal(err)
	}
	indexesEqual(t, freshA, a2)
	for s := xdm.Sym(0); int(s) < a.Tree.Syms.Len(); s++ {
		if n1, n2 := a.Tree.Syms.Name(s), a2.Tree.Syms.Name(s); unsafe.StringData(n1) != unsafe.StringData(n2) {
			t.Fatalf("re-ingesting the member allocated its name %q again", n2)
		}
	}
}

// Nothing an ingest returns aliases its input: once Ingest or Loader.Ingest
// returns, every byte of the input may be overwritten and the index still
// equals a fresh ingest of a copy — names, clean and entity-decoded text,
// attribute values and namespace declarations alike.
func TestIngestRetainsNoInput(t *testing.T) {
	docs := [][]byte{
		[]byte(`<r xmlns="urn:d" xmlns:p="urn:p"><p:a p:k="v &amp; w" k="plain">clean<![CDATA[c<d]]>t &lt; u&#x41;</p:a>` +
			`<b xml:lang="en">text</b><?pi data?><!--note--><p:a/></r>`),
		AppendXML(nil, gen.XMarkRoot(gen.XMarkConfig{Seed: 7, People: 10})),
	}
	var ld Loader
	for _, ingest := range []struct {
		name string
		f    func([]byte) (*Index, error)
	}{{"Ingest", Ingest}, {"Loader.Ingest", ld.Ingest}} {
		for i, doc := range docs {
			want, err := Ingest(bytes.Clone(doc))
			if err != nil {
				t.Fatal(err)
			}
			buf := bytes.Clone(doc)
			got, err := ingest.f(buf)
			if err != nil {
				t.Fatalf("%s, document %d: %v", ingest.name, i, err)
			}
			for j := range buf {
				buf[j] = 'X'
			}
			indexesEqual(t, want, got)
		}
	}
}
