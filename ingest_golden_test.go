package xqtp

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"xqtp/internal/gen"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// goldenIngestPath holds the snapshot of goldenIngestSources as written by
// the commit before the ingest loaders reused their scratch and the writer
// stopped encoding integers one allocation at a time. The format did not
// change, so ingest followed by SaveSnapshot must still produce these bytes.
const goldenIngestPath = "testdata/corpus_v3_pr23_ingest.snap"

// goldenIngestSources is the fixed corpus behind goldenIngestPath: MemBeR and
// XMark members, a needle member, and a member exercising entity decoding,
// character references, CDATA, line-ending normalization and a DOCTYPE.
func goldenIngestSources() []CorpusSource {
	var out []CorpusSource
	for i := 0; i < 6; i++ {
		var root *xdm.Node
		if i%2 == 0 {
			root = gen.MemberRoot(gen.MemberConfig{Seed: 2300 + int64(i), Depth: 4, NumTags: 20, NumNodes: 300})
		} else {
			root = gen.XMarkRoot(gen.XMarkConfig{Seed: 2300 + int64(i), People: 8})
		}
		out = append(out, CorpusSource{
			URI:  fmt.Sprintf("mem://golden-%d.xml", i),
			Data: xmlstore.AppendXML(nil, root),
		})
	}
	out = append(out,
		CorpusSource{URI: "mem://needle.xml", Data: []byte(`<needle><pin note="x">hit</pin></needle>`)},
		CorpusSource{URI: "mem://entities.xml", Data: []byte("<?xml version=\"1.0\"?>\n" +
			"<!DOCTYPE r [<!ENTITY e \"x\">]>\n" +
			"<r a=\"x &amp; y\" b='&#65;&lt;&#x42;'>" +
			"<t>Bob &amp; co &#x263A;</t>" +
			"<![CDATA[<raw> & stuff]]>" +
			"<m>mixed<i>in</i>tail&gt;\r\nline two\rthree</m>" +
			"<ws>  </ws><c a=\"1\r\n2\"/>" +
			"</r>")},
	)
	return out
}

// Ingest with one worker and with two (each worker reusing its scratch across
// members), followed by SaveSnapshot, reproduces the committed bytes.
func TestIngestSnapshotGoldenBytes(t *testing.T) {
	want, err := os.ReadFile(goldenIngestPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		c, err := LoadCorpus(goldenIngestSources(), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := c.SaveSnapshot(&buf); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("workers=%d: snapshot (%d bytes) differs from %s (%d bytes)", workers, buf.Len(), goldenIngestPath, len(want))
		}
	}
}
