package xmlstore

import (
	"strings"
	"testing"

	"xqtp/internal/xdm"
)

const sampleXML = `<a id="1">
  <b><c>hello</c></b>
  <b x="y"><d/></b>
  <c>world &amp; more</c>
</a>`

func TestParseRoundTrip(t *testing.T) {
	tr, err := ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	a := tr.DocElem()
	if as := xdm.Step(a, xdm.AxisAttribute, xdm.StarTest()); a.Name != "a" || len(as) != 1 || as[0].Text != "1" {
		t.Fatalf("root parsed wrong: %v", a)
	}
	if got := len(xdm.Step(a, xdm.AxisChild, xdm.StarTest())); got != 3 {
		t.Fatalf("root has %d element children, want 3", got)
	}
	cs := xdm.Step(a, xdm.AxisChild, xdm.NameTest("c"))
	if len(cs) != 1 || cs[0].StringValue() != "world & more" {
		t.Fatalf("entity not decoded: %v", cs)
	}
	// Round trip: serialize and reparse; same structure.
	out := SerializeString(tr.RootNode())
	tr2, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse of %q: %v", out, err)
	}
	if tr2.CountNodes() != tr.CountNodes() {
		t.Errorf("round trip node count %d != %d (serialized: %s)", tr2.CountNodes(), tr.CountNodes(), out)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "<a><b></a>", "<a/><b/>", "text only"} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) should fail", bad)
		}
	}
}

func TestParseMixedAndWhitespace(t *testing.T) {
	tr, err := ParseString("<a>  \n  <b>x</b>mid<b>y</b>\t</a>")
	if err != nil {
		t.Fatal(err)
	}
	a := tr.DocElem()
	// Whitespace-only runs dropped, "mid" preserved.
	texts := xdm.Step(a, xdm.AxisChild, xdm.TextTest())
	if len(texts) != 1 || texts[0].Text != "mid" {
		t.Errorf("mixed content handling wrong: %v", texts)
	}
	if a.StringValue() != "xmidy" {
		t.Errorf("string value = %q", a.StringValue())
	}
}

func TestIndexStreams(t *testing.T) {
	tr, err := ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	ix := BuildIndex(tr)
	bs := nodesAt(tr, ix.ElementRanks(xdm.NameTest("b")))
	if len(bs) != 2 {
		t.Fatalf("b stream has %d entries", len(bs))
	}
	for i := 1; i < len(bs); i++ {
		if bs[i-1].Pre >= bs[i].Pre {
			t.Fatal("stream not sorted by pre")
		}
	}
	if got := len(nodesAt(tr, ix.ElementRanks(xdm.StarTest()))); got != 6 {
		t.Errorf("element stream * has %d entries, want 6", got)
	}
	if got := len(nodesAt(tr, ix.ElementRanks(xdm.TextTest()))); got != 2 {
		t.Errorf("text stream has %d entries, want 2", got)
	}
	if got := len(nodesAt(tr, ix.AttributeRanks(xdm.NameTest("id")))); got != 1 {
		t.Errorf("@id stream has %d entries, want 1", got)
	}
	if got := len(nodesAt(tr, ix.AttributeRanks(xdm.StarTest()))); got != 2 {
		t.Errorf("@* stream has %d entries, want 2", got)
	}
	node := nodesAt(tr, ix.ElementRanks(xdm.AnyNodeTest()))
	if len(node) != 8 { // 6 elements + 2 texts
		t.Errorf("node() stream has %d entries, want 8", len(node))
	}
	for i := 1; i < len(node); i++ {
		if node[i-1].Pre >= node[i].Pre {
			t.Fatal("node() stream not merged in pre order")
		}
	}
	if tags := ix.Tags(); strings.Join(tags, ",") != "a,b,c,d" {
		t.Errorf("Tags = %v", tags)
	}
}

func TestRegionRanks(t *testing.T) {
	tr, err := ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	ix := BuildIndex(tr)
	a := tr.DocElem()
	bs := xdm.Step(a, xdm.AxisChild, xdm.NameTest("b"))
	cs := ix.ElementRanks(xdm.NameTest("c"))
	region := func(n *xdm.Node) []int32 {
		return RegionRanks(cs, int32(n.Pre), int32(n.End()))
	}
	// c nodes inside the first b.
	csInB := nodesAt(tr, region(bs[0]))
	if len(csInB) != 1 || csInB[0].StringValue() != "hello" {
		t.Errorf("RegionRanks(c, b1) = %v", csInB)
	}
	// No c inside the second b.
	if got := region(bs[1]); len(got) != 0 {
		t.Errorf("RegionRanks(c, b2) = %v", got)
	}
	// All c inside a.
	if got := region(a); len(got) != 2 {
		t.Errorf("RegionRanks(c, a) = %v", got)
	}
}

// nodesAt resolves ranks to the tree's nodes.
func nodesAt(tr *xdm.Tree, ranks []int32) []*xdm.Node {
	out := make([]*xdm.Node, len(ranks))
	for i, r := range ranks {
		out[i] = tr.Node(r)
	}
	return out
}

// The text table's offsets are u32, so a document's text values may fill
// at most MaxUint32 bytes: ingest rejects the value that would pass that,
// before any offset wraps. Checked on lengths, not on a 4 GiB document.
func TestTextBytesGuard(t *testing.T) {
	const limit = 1<<32 - 1
	for _, c := range []struct {
		have, add int
		ok        bool
	}{
		{0, 0, true},
		{0, limit, true},
		{limit - 5, 5, true},
		{limit, 0, true},
		{limit - 5, 6, false},
		{limit, 1, false},
		{0, limit + 1, false},
		{1 << 40, 1, false},
	} {
		err := checkTextBytes(c.have, c.add)
		if (err == nil) != c.ok || err != nil && !strings.HasPrefix(err.Error(), "xmlstore: ") {
			t.Errorf("checkTextBytes(%d, %d) = %v, want ok=%v", c.have, c.add, err, c.ok)
		}
	}
}
