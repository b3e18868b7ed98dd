package xmlstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"xqtp/internal/gen"
	"xqtp/internal/xdm"
	"xqtp/internal/xdm/xdmref"
)

// indexesEqual compares two indexes node for node and stream for stream:
// the region columns (parents included), the text values, the nodes built
// from them, the serialization, and every tag stream.
func indexesEqual(t *testing.T, a, b *Index) {
	t.Helper()
	ta, tb := a.Tree, b.Tree
	na, nb := ta.Nodes(), tb.Nodes()
	if len(na) != len(nb) {
		t.Fatalf("node count %d != %d", len(nb), len(na))
	}
	for i := range na {
		x, y := na[i], nb[i]
		if x.Kind != y.Kind || x.Name != y.Name || x.Text != y.Text ||
			x.Pre != y.Pre || x.Size != y.Size || x.Sym != y.Sym {
			t.Fatalf("node %d differs: %+v vs %+v", i, x, y)
		}
	}
	offA, blobA := ta.TextTable()
	offB, blobB := tb.TextTable()
	if !reflect.DeepEqual(offA, offB) || blobA != blobB {
		t.Fatalf("text tables differ")
	}
	if xa, xb := SerializeString(na[0]), SerializeString(nb[0]); xa != xb {
		t.Fatalf("serializations differ:\n%s\n%s", xa, xb)
	}
	ca, cb := ta.Cols, tb.Cols
	if !reflect.DeepEqual(ca.Size, cb.Size) || !reflect.DeepEqual(ca.Parent, cb.Parent) ||
		!reflect.DeepEqual(ca.Kind, cb.Kind) || !reflect.DeepEqual(ca.Sym, cb.Sym) {
		t.Fatalf("columns differ")
	}
	if ta.Syms.Len() != tb.Syms.Len() {
		t.Fatalf("symbol count %d != %d", tb.Syms.Len(), ta.Syms.Len())
	}
	for s := xdm.Sym(0); int(s) < ta.Syms.Len(); s++ {
		if ta.Syms.Name(s) != tb.Syms.Name(s) {
			t.Fatalf("symbol %d: %q != %q", s, tb.Syms.Name(s), ta.Syms.Name(s))
		}
		ae, be := a.ElementRanksSym(s), b.ElementRanksSym(s)
		if !streamsEq(ae, be) {
			t.Fatalf("element stream for %q differs: %v vs %v", ta.Syms.Name(s), ae, be)
		}
		aa, ba := a.AttributeRanksSym(s), b.AttributeRanksSym(s)
		if !streamsEq(aa, ba) {
			t.Fatalf("attribute stream for %q differs: %v vs %v", ta.Syms.Name(s), aa, ba)
		}
	}
	if !streamsEq(a.allElems, b.allElems) || !streamsEq(a.allText, b.allText) ||
		!streamsEq(a.allNodes, b.allNodes) || !streamsEq(a.allAttrs, b.allAttrs) {
		t.Fatalf("merged streams differ")
	}
}

func streamsEq(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// openEager is the read-everything open — OpenCorpus plus Ensure on every
// member, as collection.OpenSnapshot spells it — so corruption anywhere in
// the bytes is an error here.
func openEager(data []byte) (*CorpusSnapshot, error) {
	s, err := OpenCorpus(data, nil)
	if err != nil {
		return nil, err
	}
	for _, ix := range s.Indexes {
		if err := ix.Ensure(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// openMapped opens the snapshot behind a file mapping, members deferred.
func openMapped(m *Mapping) (*CorpusSnapshot, error) {
	data, err := m.Bytes()
	if err != nil {
		return nil, err
	}
	return OpenCorpus(data, m)
}

// writeSingle and readSingle round-trip one document as a one-member corpus
// with an empty name table.
func writeSingle(w io.Writer, ix *Index) error {
	return WriteCorpus(w, &CorpusSnapshot{URIs: []string{""}, Indexes: []*Index{ix}})
}

func readSingle(data []byte) (*Index, error) {
	s, err := openEager(data)
	if err != nil {
		return nil, err
	}
	if len(s.Indexes) != 1 {
		return nil, fmt.Errorf("snapshot holds %d members, want 1", len(s.Indexes))
	}
	return s.Indexes[0], nil
}

func TestSnapshotRoundTrip(t *testing.T) {
	ix, err := IngestString(`<a id="1"><b x="y"><c>hello</c></b><c>world</c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeSingle(&buf, ix); err != nil {
		t.Fatal(err)
	}
	ix2, err := readSingle(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	indexesEqual(t, ix, ix2)
	if SerializeString(ix2.Tree.RootNode()) != SerializeString(ix.Tree.RootNode()) {
		t.Errorf("serialization differs:\n  %s\n  %s",
			SerializeString(ix.Tree.RootNode()), SerializeString(ix2.Tree.RootNode()))
	}
}

// snapshotFromIndexes assembles a CorpusSnapshot over members the way the
// collection layer does: the name table is the union of all member symbol
// tables, sorted, with NoSym cells for absent names.
func snapshotFromIndexes(uris []string, ixs []*Index) *CorpusSnapshot {
	set := map[string]bool{}
	for _, ix := range ixs {
		for _, n := range ix.Tree.Syms.Names() {
			set[n] = true
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	cells := make([]xdm.Sym, len(names)*len(ixs))
	for i, name := range names {
		for m, ix := range ixs {
			s, ok := ix.Tree.Syms.Lookup(name)
			if !ok {
				s = xdm.NoSym
			}
			cells[i*len(ixs)+m] = s
		}
	}
	return &CorpusSnapshot{URIs: uris, Indexes: ixs, Names: names, NameSyms: cells}
}

func TestCorpusSnapshotRoundTrip(t *testing.T) {
	docs := []string{
		`<a id="1"><b>one</b><b>two</b></a>`,
		`<catalog><item price="3">x</item><other/></catalog>`,
		`<a><c k="v"/></a>`,
	}
	uris := []string{"one.xml", "two.xml", "three.xml"}
	ixs := make([]*Index, len(docs))
	for i, d := range docs {
		ix, err := IngestString(d)
		if err != nil {
			t.Fatal(err)
		}
		ixs[i] = ix
	}
	s := snapshotFromIndexes(uris, ixs)
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, s); err != nil {
		t.Fatal(err)
	}
	s2, err := openEager(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s2.URIs, s.URIs) {
		t.Fatalf("URIs differ: %v vs %v", s2.URIs, s.URIs)
	}
	if !reflect.DeepEqual(s2.Names, s.Names) {
		t.Fatalf("names differ: %v vs %v", s2.Names, s.Names)
	}
	if !reflect.DeepEqual(s2.NameSyms, s.NameSyms) {
		t.Fatalf("name table cells differ: %v vs %v", s2.NameSyms, s.NameSyms)
	}
	for m := range ixs {
		indexesEqual(t, ixs[m], s2.Indexes[m])
	}
}

func TestSnapshotEmptyCorpus(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, &CorpusSnapshot{}); err != nil {
		t.Fatal(err)
	}
	s, err := openEager(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Indexes) != 0 || len(s.URIs) != 0 || len(s.Names) != 0 {
		t.Fatalf("empty corpus round-tripped non-empty: %+v", s)
	}
}

func TestSnapshotErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XQ"),
		[]byte("NOPE\x01\x00\x00\x00"),
		[]byte("XQTS\x01\x00\x00\x00"), // old version
		[]byte("XQTS\x05\x00\x00\x00"), // future version
		[]byte("XQTS\x63\x00\x00\x00"), // future version
		[]byte("XQTS\x02\x00\x00\x00"), // truncated header
		// Header claiming 4 billion members with no member data: must error,
		// not attempt a giant allocation.
		append([]byte("XQTS\x02\x00\x00\x00"), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0),
	}
	for _, c := range cases {
		if _, err := openEager(c); err == nil {
			t.Errorf("open of %q should fail", c)
		}
	}
}

// Corrupting any single byte of a valid snapshot, v4 or v3, must produce
// either an error or a successful load — never a panic. (Some flips are
// benign: a bit in a text character, say.)
func TestSnapshotCorruption(t *testing.T) {
	ix, err := IngestString(`<a id="1"><b x="y"><c>hello</c></b><c>world</c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeSingle(&buf, ix); err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile("../../testdata/corpus_v3_pr14.snap")
	if err != nil {
		t.Fatal(err)
	}
	for _, good := range [][]byte{buf.Bytes(), v3} {
		for i := range good {
			for _, flip := range []byte{0xff, 0x01, 0x80} {
				data := bytes.Clone(good)
				data[i] ^= flip
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("OpenCorpus of version %d panicked with byte %d ^= %#x: %v", good[4], i, flip, r)
						}
					}()
					s, err := openEager(data)
					if err != nil {
						return
					}
					// A load that succeeds must also materialize without
					// panicking — load-time validation has to be strong
					// enough to cover the deferred pointer-model build.
					for _, ix2 := range s.Indexes {
						ix2.Tree.RootNode()
					}
				}()
			}
		}
		// Every truncation must error (a prefix is never a valid snapshot here).
		for n := 0; n < len(good); n++ {
			if _, err := openEager(good[:n:n]); err == nil {
				t.Errorf("version %d: truncation to %d bytes should fail", good[4], n)
			}
		}
	}
}

// Property: snapshot round trips preserve random documents exactly,
// including their index streams.
func TestSnapshotProperty(t *testing.T) {
	tags := []string{"a", "b", "c-long-name", "d"}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := xdmref.NewElement("root")
		nodes := []*xdmref.Node{root}
		for i := 0; i < 5+rng.Intn(80); i++ {
			parent := nodes[rng.Intn(len(nodes))]
			el := xdmref.NewElement(tags[rng.Intn(len(tags))])
			if rng.Intn(3) == 0 {
				el.SetAttr("k", strings.Repeat("v", rng.Intn(5)))
			}
			if rng.Intn(4) == 0 {
				el.AppendChild(xdmref.NewText("text & <stuff>"))
			}
			parent.AppendChild(el)
			nodes = append(nodes, el)
		}
		tr := xdmref.Finalize(root).Tree
		ix := BuildIndex(tr)
		var buf bytes.Buffer
		if err := writeSingle(&buf, ix); err != nil {
			return false
		}
		ix2, err := readSingle(buf.Bytes())
		if err != nil {
			return false
		}
		return SerializeString(ix2.Tree.RootNode()) == SerializeString(tr.RootNode()) &&
			ix2.Tree.CountNodes() == tr.CountNodes() &&
			streamsEq(ix.allNodes, ix2.allNodes) &&
			streamsEq(ix.allElems, ix2.allElems)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotDeferredRoundTrip checks the O(open) path: a deferred open
// answers the directory probes (node counts, stream lengths) without loading
// any member, and a later Ensure yields exactly the eager load.
func TestSnapshotDeferredRoundTrip(t *testing.T) {
	docs := []string{
		`<a id="1"><b>one</b><b>two</b></a>`,
		`<catalog><item price="3">x</item><other/></catalog>`,
		`<a><c k="v"/></a>`,
	}
	uris := []string{"one.xml", "two.xml", "three.xml"}
	ixs := make([]*Index, len(docs))
	for i, d := range docs {
		ix, err := IngestString(d)
		if err != nil {
			t.Fatal(err)
		}
		ixs[i] = ix
	}
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, snapshotFromIndexes(uris, ixs)); err != nil {
		t.Fatal(err)
	}
	s, err := OpenCorpus(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for m, ix := range s.Indexes {
		if ix.Loaded() {
			t.Fatalf("member %d loaded before any touch", m)
		}
		// Directory probes against the eager truth, before any load.
		if got, want := ix.NumNodes(), ixs[m].Tree.CountNodes(); got != want {
			t.Fatalf("member %d NumNodes = %d, want %d", m, got, want)
		}
		for sym := xdm.Sym(0); int(sym) < ixs[m].Tree.Syms.Len(); sym++ {
			for _, attr := range []bool{false, true} {
				n, ok := ix.StreamLen(sym, attr)
				if !ok {
					t.Fatalf("member %d StreamLen(%d, %v) not answerable", m, sym, attr)
				}
				want := len(ixs[m].ElementRanksSym(sym))
				if attr {
					want = len(ixs[m].AttributeRanksSym(sym))
				}
				if n != want {
					t.Fatalf("member %d StreamLen(%d, %v) = %d, want %d", m, sym, attr, n, want)
				}
			}
		}
		// Out-of-range symbols have no cheap proof: the fan-out must admit
		// the member rather than silently skip it.
		if _, ok := ix.StreamLen(xdm.Sym(ixs[m].Tree.Syms.Len()), false); ok {
			t.Fatalf("member %d StreamLen past the symbol table reported ok", m)
		}
		if ix.Loaded() {
			t.Fatalf("member %d loaded by a directory probe", m)
		}
		if err := ix.Ensure(); err != nil {
			t.Fatalf("member %d Ensure: %v", m, err)
		}
		if !ix.Loaded() {
			t.Fatalf("member %d not loaded after Ensure", m)
		}
		indexesEqual(t, ixs[m], ix)
	}
}

// One reader opens both versions: the committed v3 snapshot answers the
// directory probes before any load (its 128-byte directory) and loads to
// exactly the members of its re-saved v4 bytes (their 112-byte one).
func TestSnapshotReadsV3(t *testing.T) {
	v3, err := os.ReadFile("../../testdata/corpus_v3_pr23_ingest.snap")
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenCorpus(v3, nil)
	if err != nil {
		t.Fatal(err)
	}
	old, err := openEager(bytes.Clone(v3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, old); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[4] != snapshotVersion {
		t.Fatalf("re-saved as version %d", buf.Bytes()[4])
	}
	upgraded, err := openEager(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for m, ix := range s.Indexes {
		want := upgraded.Indexes[m]
		if got := ix.NumNodes(); got != want.Tree.CountNodes() {
			t.Fatalf("member %d NumNodes = %d, want %d", m, got, want.Tree.CountNodes())
		}
		for sym := xdm.Sym(0); int(sym) < want.Tree.Syms.Len(); sym++ {
			if n, ok := ix.StreamLen(sym, false); !ok || n != len(want.ElementRanksSym(sym)) {
				t.Fatalf("member %d StreamLen(%d, false) = %d, %v", m, sym, n, ok)
			}
			if n, ok := ix.StreamLen(sym, true); !ok || n != len(want.AttributeRanksSym(sym)) {
				t.Fatalf("member %d StreamLen(%d, true) = %d, %v", m, sym, n, ok)
			}
		}
		if ix.Loaded() {
			t.Fatalf("member %d loaded by a directory probe", m)
		}
		indexesEqual(t, want, old.Indexes[m])
	}
}

// Byte flips against the deferred path: open, probe, Ensure, materialize —
// an error at any stage is fine, a panic never is. This sweeps the
// validation that moved from open time to load time.
func TestSnapshotDeferredCorruption(t *testing.T) {
	var buf bytes.Buffer
	ix, err := IngestString(`<a id="1"><b x="y"><c>hello</c></b><c>world</c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeSingle(&buf, ix); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for i := range good {
		for _, flip := range []byte{0xff, 0x01, 0x80} {
			data := bytes.Clone(good)
			data[i] ^= flip
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("deferred path panicked with byte %d ^= %#x: %v", i, flip, r)
					}
				}()
				s, err := OpenCorpus(data, nil)
				if err != nil {
					return
				}
				for _, ix2 := range s.Indexes {
					ix2.NumNodes()
					ix2.StreamLen(0, false)
					ix2.StreamLen(0, true)
					if err := ix2.Ensure(); err != nil {
						// Sticky: the second Ensure must return the same error,
						// and the poisoned tree must still navigate.
						if err2 := ix2.Ensure(); err2 != err {
							t.Fatalf("Ensure not sticky: %v then %v", err, err2)
						}
					}
					ix2.Tree.RootNode()
				}
			}()
		}
	}
	// Deferred open of every truncation must fail at open (the offset table
	// is validated against the file length before any member is trusted).
	for n := 0; n < len(good); n++ {
		if _, err := OpenCorpus(good[:n:n], nil); err == nil {
			t.Errorf("deferred open of truncation to %d bytes should fail", n)
		}
	}
}

// TestSnapshotPortableFallback forces the decode-copy path (as used on
// big-endian hosts and under -tags nommap cross-builds) and checks it
// round-trips identically to the aliasing path.
func TestSnapshotPortableFallback(t *testing.T) {
	defer func(prev bool) { forcePortable = prev }(forcePortable)

	ix, err := IngestString(`<a id="1"><b x="y"><c>hello</c></b><c>world</c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, portable := range []bool{false, true} {
		forcePortable = portable
		var buf bytes.Buffer
		if err := writeSingle(&buf, ix); err != nil {
			t.Fatalf("portable=%v write: %v", portable, err)
		}
		ix2, err := readSingle(buf.Bytes())
		if err != nil {
			t.Fatalf("portable=%v read: %v", portable, err)
		}
		indexesEqual(t, ix, ix2)
	}
	// Cross: written aliased, read portable (and the reverse) — the on-disk
	// format is identical, only the in-memory aliasing differs.
	forcePortable = false
	var buf bytes.Buffer
	if err := writeSingle(&buf, ix); err != nil {
		t.Fatal(err)
	}
	forcePortable = true
	ix2, err := readSingle(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	indexesEqual(t, ix, ix2)
}

// TestSnapshotDeferredFromMapping runs the deferred round trip against a
// real file mapping, including mapping close ordering.
func TestSnapshotDeferredFromMapping(t *testing.T) {
	path := writeTempSnapshot(t,
		[]string{`<a id="1"><b>one</b></a>`, `<c><d x="y">two</d></c>`},
		[]string{"one.xml", "two.xml"})
	m, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := openMapped(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, ix := range s.Indexes {
		if err := ix.Ensure(); err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		ix.Tree.RootNode()
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// A member never loaded before Close must fail with the typed error, not
	// fault on unmapped pages.
	m2, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := openMapped(m2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Indexes[0].Ensure(); !errors.Is(err, ErrSnapshotClosed) {
		t.Fatalf("Ensure after mapping Close = %v, want ErrSnapshotClosed", err)
	}
	requirePlaceholder(t, s2.Indexes[0].Tree)
}

// requirePlaceholder holds a tree whose deferred load failed to the empty
// placeholder document — a document node over one unnamed, empty element —
// through every reader, none of which may fault: the root, the serializer,
// string values and Step on every axis from both nodes.
func requirePlaceholder(t *testing.T, tr *xdm.Tree) {
	t.Helper()
	root := tr.RootNode()
	el := tr.DocElem()
	if root.Kind != xdm.DocumentNode || el == nil || el.Pre != 1 || tr.CountNodes() != 2 {
		t.Fatalf("poisoned tree: root %v, element %v, %d nodes", root, el, tr.CountNodes())
	}
	if got := SerializeString(root); got != "</>" || root.StringValue() != "" || el.StringValue() != "" {
		t.Fatalf("poisoned tree serializes as %q, string value %q", got, root.StringValue())
	}
	for axis := xdm.AxisChild; axis <= xdm.AxisPreceding; axis++ {
		for _, test := range []xdm.NodeTest{xdm.AnyNodeTest(), xdm.StarTest(), xdm.TextTest(), xdm.NameTest("a")} {
			for _, ctx := range []*xdm.Node{root, el} {
				for _, n := range xdm.Step(ctx, axis, test) {
					if n != root && n != el {
						t.Fatalf("%v %s::%s reached %v outside the placeholder", ctx, axis, test, n)
					}
				}
			}
		}
	}
	if got := xdm.Step(root, xdm.AxisDescendant, xdm.AnyNodeTest()); len(got) != 1 || got[0] != el {
		t.Fatalf("placeholder descendants = %v", got)
	}
}

// textTableCorruption is one way to corrupt the text table of a snapshot's
// first member; want is a fragment of the error it must draw.
type textTableCorruption struct {
	name, want string
	data       []byte
}

// textTableCorruptions writes `<a id="1"><b x="y"><c>hello</c></b><c>world</c></a>`
// (text values 1, y, hello, world: offsets 0 1 2 7 12) as a one-member
// snapshot and corrupts its text table four ways, each past every check but
// the one it names.
func textTableCorruptions() []textTableCorruption {
	good := fuzzSeedSnapshot([]string{`<a id="1"><b x="y"><c>hello</c></b><c>world</c></a>`}, []string{""})
	le := binary.LittleEndian
	member := int(le.Uint64(good[16:]))
	texts := member + int(le.Uint64(good[member+16+8*secTexts:]))
	nTexts := int(le.Uint32(good[member+8:]))
	offset := func(data []byte, i int) []byte { return data[texts+4*i:] }
	align8 := func(n int) int { return (n + 7) &^ 7 }
	corrupt := func(name, want string, edit func(data []byte)) textTableCorruption {
		data := bytes.Clone(good)
		edit(data)
		return textTableCorruption{name, want, data}
	}
	return []textTableCorruption{
		corrupt("first offset not 0", "do not start at 0", func(data []byte) {
			le.PutUint32(offset(data, 0), 1)
		}),
		corrupt("decreasing offset", "decreases", func(data []byte) {
			le.PutUint32(offset(data, 2), 0)
		}),
		corrupt("offset past the blob", "truncated", func(data []byte) {
			le.PutUint32(offset(data, nTexts), 1<<31)
		}),
		// Two values fewer in the directory and the offsets, and the blob
		// eight bytes longer: the section keeps its size and every offset
		// is in order, but the columns hold four text-bearing nodes.
		corrupt("text count", "2 text values for 4 text-bearing nodes", func(data []byte) {
			blobLen := le.Uint32(offset(data, nTexts))
			start := align8(texts + (nTexts+1)*4)
			blob := bytes.Clone(data[start : start+int(blobLen)])
			le.PutUint32(data[member+8:], uint32(nTexts-2))
			le.PutUint32(offset(data, nTexts-2), blobLen+8)
			copy(data[align8(texts+(nTexts-1)*4):], append(blob, "12345678"...))
		}),
	}
}

// A corrupted text table fails the member's load with the error of the
// check it breaks — never a panic, never a tree — whether the table is
// aliased or copied.
func TestSnapshotTextTableCorruption(t *testing.T) {
	defer func(prev bool) { forcePortable = prev }(forcePortable)
	for _, portable := range []bool{false, true} {
		forcePortable = portable
		for _, c := range textTableCorruptions() {
			t.Run(fmt.Sprintf("%s/portable=%v", c.name, portable), func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				s, err := OpenCorpus(c.data, nil)
				if err == nil {
					err = s.Indexes[0].Ensure()
					requirePlaceholder(t, s.Indexes[0].Tree)
				}
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("error %v, want one saying %q", err, c.want)
				}
			})
		}
	}
}

// storeMembers returns generated members as store_cycle mixes them, plus
// one whose text and attribute values need decoding.
func storeMembers(n int) [][]byte {
	docs := make([][]byte, 0, n+1)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			docs = append(docs, AppendXML(nil, gen.MemberRoot(gen.MemberConfig{Seed: int64(i + 1), Depth: 4, NumTags: 20, NumNodes: 300})))
		} else {
			docs = append(docs, AppendXML(nil, gen.XMarkRoot(gen.XMarkConfig{Seed: int64(i + 1), People: 8})))
		}
	}
	return append(docs, []byte(`<r k="a&amp;b"><t>x &lt; y</t><![CDATA[z]]><e/></r>`))
}

// A snapshot reopened and written again gives the same bytes, whether the
// reopened members alias the file's bytes or copy them, and whether the
// writer emits the int32 arrays as they sit in memory or encodes each one.
func TestSnapshotRewriteByteIdentical(t *testing.T) {
	defer func(prev bool) { forcePortable = prev }(forcePortable)
	s := ingestAll(t, storeMembers(20))
	write := func(s *CorpusSnapshot) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteCorpus(&buf, s); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	forcePortable = false
	a := write(s)
	forcePortable = true
	if p := write(s); !bytes.Equal(a, p) {
		t.Fatalf("the portable writer wrote %d bytes unlike the aliasing writer's %d", len(p), len(a))
	}
	for _, portable := range []bool{false, true} {
		forcePortable = portable
		reopened, err := OpenCorpus(bytes.Clone(a), nil)
		if err != nil {
			t.Fatal(err)
		}
		if b := write(reopened); !bytes.Equal(a, b) {
			t.Fatalf("portable=%v: written, reopened and written again, %d bytes become %d unlike them", portable, len(a), len(b))
		}
		for m, ix := range reopened.Indexes {
			indexesEqual(t, s.Indexes[m], ix)
		}
	}
}

// A loaded member holds its per-symbol stream tables in the layout the
// snapshot stores, and the corpus name cells are read the same way: with
// aliasing on, every one of those arrays is a view of the snapshot buffer;
// under the portable decode they are copies, equal to the tables BuildIndex
// builds over the loaded tree and to the name cells that were written.
func TestStreamTablesInstalledWhole(t *testing.T) {
	defer func(prev bool) { forcePortable = prev }(forcePortable)
	s := ingestAll(t, storeMembers(6))
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	inData := func(p unsafe.Pointer) bool {
		a := uintptr(p)
		base := uintptr(unsafe.Pointer(&data[0]))
		return a >= base && a < base+uintptr(len(data))
	}
	for _, portable := range []bool{false, true} {
		forcePortable = portable
		got, err := openEager(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.NameSyms, s.NameSyms) {
			t.Fatalf("portable=%v: name cells differ from the written ones", portable)
		}
		if aliased := inData(unsafe.Pointer(&got.NameSyms[0])); aliased != aliasInt32() {
			t.Fatalf("portable=%v: name cells in the snapshot buffer: %v", portable, aliased)
		}
		for m, ix := range got.Indexes {
			want := BuildIndex(ix.Tree)
			for _, tab := range []struct {
				name      string
				got, want symStreams
			}{{"element", ix.elems, want.elems}, {"attribute", ix.attrs, want.attrs}} {
				if !reflect.DeepEqual(tab.got.off, tab.want.off) || !slices.Equal(tab.got.data, tab.want.data) {
					t.Fatalf("portable=%v member %d: %s stream table differs from BuildIndex's", portable, m, tab.name)
				}
				if aliased := inData(unsafe.Pointer(&tab.got.off[0])); aliased != aliasInt32() {
					t.Fatalf("portable=%v member %d: %s offsets in the snapshot buffer: %v", portable, m, tab.name, aliased)
				}
				if len(tab.got.data) > 0 && inData(unsafe.Pointer(&tab.got.data[0])) != aliasInt32() {
					t.Fatalf("portable=%v member %d: %s data not where aliasing puts it", portable, m, tab.name)
				}
			}
		}
	}
}
