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

// goldenIngestPath holds the snapshot of goldenIngestSources in format v4:
// ingest followed by SaveSnapshot must produce these bytes.
// goldenIngestV3Path holds the same corpus as the format-v3 writer wrote it,
// before the postorder and depth columns were dropped.
const (
	goldenIngestPath   = "testdata/corpus_v4_pr26_ingest.snap"
	goldenIngestV3Path = "testdata/corpus_v3_pr23_ingest.snap"
)

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

// Opening the v3 golden and re-saving it gives exactly the v4 golden bytes,
// so the upgrade loses nothing; and v4 is smaller than v3 by exactly what it
// dropped: per member two int32 column sections, each padded to 8 bytes, and
// their two u64 directory entries.
func TestIngestSnapshotUpgradesV3(t *testing.T) {
	v3, err := os.ReadFile(goldenIngestV3Path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenIngestPath)
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenCorpusSnapshot(bytes.Clone(v3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("re-saved %s (%d bytes) differs from %s (%d bytes)", goldenIngestV3Path, buf.Len(), goldenIngestPath, len(want))
	}
	s, err := xmlstore.OpenCorpus(v3, nil)
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, ix := range s.Indexes {
		dropped += 2*((4*ix.NumNodes()+7)&^7) + 16
	}
	if got := len(v3) - len(want); got != dropped {
		t.Errorf("v4 is %d bytes smaller than v3, want %d", got, dropped)
	}
}
