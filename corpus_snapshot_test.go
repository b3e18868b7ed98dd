package xqtp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xqtp/internal/xdm"
)

// equivItems is sameItems across trees: the loaded corpus holds structurally
// identical but distinct trees, so nodes compare by preorder rank and owning
// member (resolved through each corpus's own URI attribution) instead of by
// pointer.
func equivItems(a, b Sequence, uriA, uriB func(Item) (string, bool)) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		an, aIsNode := a[i].(*xdm.Node)
		bn, bIsNode := b[i].(*xdm.Node)
		if aIsNode != bIsNode {
			return fmt.Errorf("item %d: node-ness differs", i)
		}
		if !aIsNode {
			if a[i] != b[i] {
				return fmt.Errorf("item %d: %s vs %s", i, ItemString(a[i]), ItemString(b[i]))
			}
			continue
		}
		if an.Pre != bn.Pre || an.Kind != bn.Kind || an.Name != bn.Name || an.Text != bn.Text {
			return fmt.Errorf("item %d: %s vs %s", i, ItemString(a[i]), ItemString(b[i]))
		}
		ua, oka := uriA(a[i])
		ub, okb := uriB(b[i])
		if oka != okb || ua != ub {
			return fmt.Errorf("item %d: member %q vs %q", i, ua, ub)
		}
	}
	return nil
}

// A corpus loaded from a snapshot must be indistinguishable from the
// freshly-ingested corpus it was saved from: same members, same name table,
// and — the part that matters — identical query results for every pattern
// algorithm, at one worker and at eight. This is the load-path analogue of
// TestCorpusDifferential.
func TestCorpusSnapshotQueryDifferential(t *testing.T) {
	fresh, err := LoadCorpus(genCorpusSources(12, 7), 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fresh.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenCorpusSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != fresh.Len() {
		t.Fatalf("loaded %d members, want %d", loaded.Len(), fresh.Len())
	}
	if !reflect.DeepEqual(loaded.URIs(), fresh.URIs()) {
		t.Fatalf("URIs differ:\n  %v\n  %v", loaded.URIs(), fresh.URIs())
	}
	if loaded.NumNodes() != fresh.NumNodes() {
		t.Fatalf("node count %d, want %d", loaded.NumNodes(), fresh.NumNodes())
	}
	algs := []Algorithm{Staircase, Twig, Auto, Streaming}
	for _, pq := range corpusDiffQueries() {
		q, err := Prepare(pq.Query)
		if err != nil {
			t.Fatalf("%s: %v", pq.Name, err)
		}
		for _, alg := range algs {
			want, err := fresh.RunParallel(q, alg, 1)
			if err != nil {
				t.Fatalf("%s/%v/fresh: %v", pq.Name, alg, err)
			}
			for _, workers := range []int{1, 8} {
				got, err := loaded.RunParallel(q, alg, workers)
				if err != nil {
					t.Fatalf("%s/%v/workers=%d/loaded: %v", pq.Name, alg, workers, err)
				}
				if err := equivItems(want, got, fresh.URIOf, loaded.URIOf); err != nil {
					t.Errorf("%s/%v/workers=%d: loaded corpus differs from fresh: %v",
						pq.Name, alg, workers, err)
				}
			}
		}
	}
}

// Single-document snapshots: save/load through the Document API preserves
// query results and serialization.
func TestDocumentSnapshotRoundTrip(t *testing.T) {
	doc, err := LoadXMLString(`<a id="1"><b x="y"><c>hello</c></b><c>world</c><b><c/></b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := doc.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	doc2, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if doc2.XML() != doc.XML() {
		t.Fatalf("serialization differs:\n  %s\n  %s", doc.XML(), doc2.XML())
	}
	if doc2.NumNodes() != doc.NumNodes() {
		t.Fatalf("node count %d, want %d", doc2.NumNodes(), doc.NumNodes())
	}
	q, err := Prepare(`$input//b[c]`)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{NestedLoop, Staircase, Twig, Auto} {
		want, err := q.Run(doc, alg)
		if err != nil {
			t.Fatalf("%v/fresh: %v", alg, err)
		}
		got, err := q.Run(doc2, alg)
		if err != nil {
			t.Fatalf("%v/loaded: %v", alg, err)
		}
		same := func(Item) (string, bool) { return "", true }
		if err := equivItems(want, got, same, same); err != nil {
			t.Errorf("%v: loaded document differs from fresh: %v", alg, err)
		}
	}
}

// Extending a snapshot-loaded corpus works like extending a fresh one (the
// loaded trees participate in the global ID order).
func TestCorpusSnapshotExtend(t *testing.T) {
	fresh, err := LoadCorpus(genCorpusSources(4, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fresh.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenCorpusSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	grown, err := loaded.Extend([]CorpusSource{
		{URI: "mem://extra.xml", Data: []byte(`<doc><t01><t02/></t01></doc>`)},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Len() != 5 {
		t.Fatalf("grown corpus has %d members, want 5", grown.Len())
	}
	q, err := Prepare(`$input//t01[t02]`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := grown.RunParallel(q, Auto, 2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, it := range res {
		if uri, ok := grown.URIOf(it); ok && uri == "mem://extra.xml" {
			found = true
		}
	}
	if !found {
		t.Fatal("query did not reach the member added after snapshot load")
	}
}

// A corpus reopened from its snapshot and extended saves the same bytes as
// the corpus ingested whole: the stored name table grows by the added
// members' names in sorted rows, as a from-scratch build lays them out.
func TestSnapshotExtendSavesIngestBytes(t *testing.T) {
	all := genCorpusSources(6, 5)
	all = append(all, CorpusSource{URI: "mem://extra.xml", Data: []byte(`<doc><aaa k="v"/><zzz>x</zzz><t01/></doc>`)})
	save := func(c *Corpus) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := c.SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	prefix, err := LoadCorpus(all[:4], 2)
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenCorpusSnapshot(save(prefix))
	if err != nil {
		t.Fatal(err)
	}
	grown, err := reopened.Extend(all[4:], 2)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := LoadCorpus(all, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := save(grown), save(whole); !bytes.Equal(a, b) {
		t.Fatalf("extended snapshot saves %d bytes unlike the whole ingest's %d", len(a), len(b))
	}
}

// The file-mapped open is the same corpus again: identical query results,
// identical skip accounting (the deferred members answer the emptiness probe
// from their section directories), and a typed error after Close. This is
// TestCorpusSnapshotQueryDifferential over OpenCorpusFile.
func TestCorpusFileQueryDifferential(t *testing.T) {
	fresh, err := LoadCorpus(genCorpusSources(12, 7), 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fresh.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.xqts")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenCorpusFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != fresh.Len() {
		t.Fatalf("loaded %d members, want %d", loaded.Len(), fresh.Len())
	}
	// Directory-backed accounting before any member load.
	if loaded.NumNodes() != fresh.NumNodes() {
		t.Fatalf("node count %d, want %d", loaded.NumNodes(), fresh.NumNodes())
	}
	algs := []Algorithm{Staircase, Twig, Auto, Streaming}
	for _, pq := range corpusDiffQueries() {
		q, err := Prepare(pq.Query)
		if err != nil {
			t.Fatalf("%s: %v", pq.Name, err)
		}
		for _, alg := range algs {
			want, wantStats, err := fresh.RunParallelStats(q, alg, 1)
			if err != nil {
				t.Fatalf("%s/%v/fresh: %v", pq.Name, alg, err)
			}
			for _, workers := range []int{1, 8} {
				got, gotStats, err := loaded.RunParallelStats(q, alg, workers)
				if err != nil {
					t.Fatalf("%s/%v/workers=%d/mapped: %v", pq.Name, alg, workers, err)
				}
				if err := equivItems(want, got, fresh.URIOf, loaded.URIOf); err != nil {
					t.Errorf("%s/%v/workers=%d: mapped corpus differs from fresh: %v",
						pq.Name, alg, workers, err)
				}
				// The deferred skip test must prove exactly what the loaded
				// one proves — a deferred member silently skipped when its
				// stream is non-empty would drop results.
				if gotStats.Skipped != wantStats.Skipped {
					t.Errorf("%s/%v/workers=%d: skipped %d members, fresh skipped %d",
						pq.Name, alg, workers, gotStats.Skipped, wantStats.Skipped)
				}
			}
		}
	}

	if err := loaded.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := loaded.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	q, err := Prepare(`$input//doc`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Run(q, Auto); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
}

// The two ways to open a snapshot file — OpenCorpusFile (mapped, deferred
// members) and os.ReadFile + OpenCorpusSnapshot (everything read and loaded
// up front) — differ only in backing storage: both answer like the fresh
// corpus.
func TestCorpusFileMappedVsReadAll(t *testing.T) {
	fresh, err := LoadCorpus(genCorpusSources(6, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fresh.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.xqts")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenCorpusFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	readAll, err := OpenCorpusSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if readAll.Mapped() {
		t.Fatal("corpus opened from bytes reported a live mapping")
	}
	q, err := Prepare(`$input//doc`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.RunParallel(q, Auto, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, loaded := range map[string]*Corpus{"mapped": mapped, "read-all": readAll} {
		got, err := loaded.RunParallel(q, Auto, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := equivItems(want, got, fresh.URIOf, loaded.URIOf); err != nil {
			t.Fatalf("%s corpus differs from fresh: %v", name, err)
		}
	}
}

// snapshotFile writes a corpus of n generated members to a snapshot file.
func snapshotFile(t *testing.T, n int) string {
	t.Helper()
	fresh, err := LoadCorpus(genCorpusSources(n, 5), 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.xqts")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.SaveSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestQueryBuildsOnlyDeliveredNodes counts, end to end, which nodes exist
// after serving a query: ingest → SaveSnapshot → OpenCorpusFile → a pattern
// query over the corpus → AppendItem on every item. The identity tables
// must hold exactly the delivered items plus one document node per member
// the skip test admitted; the skipped members hold none, and the serializer
// builds nothing. A second run, at several workers, builds nothing more. It
// holds for the set-at-a-time kernels (Auto), for the nested loop, and for
// the nested loop's first-match cursor over a child-only spine (Auto).
func TestQueryBuildsOnlyDeliveredNodes(t *testing.T) {
	for _, tc := range []struct {
		name, query string
		alg         Algorithm
	}{
		{"kernel", `$input//person[emailaddress]/name`, Auto},
		{"nested-loop", `$input//person[emailaddress]/name`, NestedLoop},
		{"first-match", `($input/site/people/person/name)[1]`, Auto},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buildsOnlyDeliveredNodes(t, tc.query, tc.alg)
		})
	}
}

func buildsOnlyDeliveredNodes(t *testing.T, query string, alg Algorithm) {
	c, err := OpenCorpusFile(snapshotFile(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	built := func() int {
		n := 0
		for i := 0; i < c.Len(); i++ {
			n += c.c.Doc(i).Tree().NodesBuilt()
		}
		return n
	}
	q := MustPrepare(query)
	seq, info, err := c.RunWith(context.Background(), q, alg, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	delivered := map[*xdm.Node]bool{}
	for _, it := range seq {
		out = AppendItem(out, it)
		delivered[it.(*xdm.Node)] = true
	}
	admitted := info.Members - info.Skipped
	t.Logf("%d members, %d admitted, %d items, %d nodes built", info.Members, admitted, len(seq), built())
	if len(seq) == 0 || info.Skipped == 0 || !bytes.Contains(out, []byte("<name>")) {
		t.Fatalf("%d items from %d admitted of %d members: not a real result", len(seq), admitted, info.Members)
	}
	if got, want := built(), len(delivered)+admitted; got != want {
		t.Fatalf("%d nodes built, want %d delivered + %d document nodes", got, len(delivered), admitted)
	}
	again, _, err := c.RunWith(context.Background(), q, alg, RunOptions{Workers: 4})
	if err != nil || len(again) != len(seq) {
		t.Fatalf("second run: %d items, %v", len(again), err)
	}
	for i := range seq {
		if again[i] != seq[i] {
			t.Fatalf("item %d is a different node on the second run", i)
		}
	}
	if got, want := built(), len(delivered)+admitted; got != want {
		t.Fatalf("second run: %d nodes built, want still %d", got, want)
	}
}

// A member view shares its corpus's closed flag, so no ordering of Close and
// a run reaches unmapped memory: each of these faulted (SIGSEGV) when the
// view carried a flag of its own.
func TestUseAfterCloseIsErrClosed(t *testing.T) {
	q := MustPrepare(`$input//doc`)
	t.Run("warm member view", func(t *testing.T) {
		c, err := OpenCorpusFile(snapshotFile(t, 4))
		if err != nil {
			t.Fatal(err)
		}
		d := c.DocumentAt(0)
		if _, err := q.Run(d, Auto); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := q.Run(d, Staircase); !errors.Is(err, ErrClosed) {
			t.Fatalf("Run on a member view after Corpus.Close = %v, want ErrClosed", err)
		}
		if !d.Closed() {
			t.Fatal("member view does not report its corpus closed")
		}
	})
	t.Run("never-loaded member view", func(t *testing.T) {
		c, err := OpenCorpusFile(snapshotFile(t, 4))
		if err != nil {
			t.Fatal(err)
		}
		d := c.DocumentAt(2)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := q.Run(d, Staircase); !errors.Is(err, ErrClosed) {
			t.Fatalf("Run on an unloaded member view after Corpus.Close = %v, want ErrClosed", err)
		}
	})
	t.Run("single member by URI", func(t *testing.T) {
		c, err := OpenCorpusFile(snapshotFile(t, 4))
		if err != nil {
			t.Fatal(err)
		}
		uri := c.URIs()[1]
		d, ok := c.Document(uri)
		if !ok {
			t.Fatalf("no member %q", uri)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := q.RunWith(context.Background(), d, Twig, RunOptions{}); !errors.Is(err, ErrClosed) {
			t.Fatalf("single-member run by URI after Corpus.Close = %v, want ErrClosed", err)
		}
		if _, ok := c.Document(uri); ok {
			t.Fatal("a closed corpus still resolves members by URI")
		}
	})
	t.Run("member view methods after corpus close", func(t *testing.T) {
		c, err := OpenCorpusFile(snapshotFile(t, 4))
		if err != nil {
			t.Fatal(err)
		}
		d := c.DocumentAt(0)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		// None of these may read the member's tree on the way to their error.
		if err := d.Close(); !errors.Is(err, ErrClosed) {
			t.Fatalf("view.Close after Corpus.Close = %v, want ErrClosed", err)
		}
		if err := d.WriteXML(io.Discard); !errors.Is(err, ErrClosed) {
			t.Fatalf("view.WriteXML after Corpus.Close = %v, want ErrClosed", err)
		}
		if err := d.SaveSnapshot(io.Discard); !errors.Is(err, ErrClosed) {
			t.Fatalf("view.SaveSnapshot after Corpus.Close = %v, want ErrClosed", err)
		}
		if _, err := c.Extend(genCorpusSources(1, 9), 1); !errors.Is(err, ErrClosed) {
			t.Fatalf("Corpus.Extend after Close = %v, want ErrClosed", err)
		}
	})
	t.Run("explain after document close", func(t *testing.T) {
		doc, err := OpenSnapshotFile(snapshotFile(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.ExplainPhysical(Auto, doc); err != nil {
			t.Fatal(err)
		}
		if err := doc.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := q.ExplainPhysical(Auto, doc); !errors.Is(err, ErrClosed) {
			t.Fatalf("ExplainPhysical after Close = %v, want ErrClosed", err)
		}
	})
}

// The accessors that return no error read nothing of a closed corpus: sizes
// answer their zero value, and member URIs are copies taken at open, so a
// URI handed out before Close stays readable. Each call faulted (SIGSEGV) on
// a mapped snapshot when it read the released mapping.
func TestAccessorsAfterClose(t *testing.T) {
	q := MustPrepare(`$input//*`)
	for _, tc := range []struct {
		name string
		// loaded runs a query over every member before Close.
		loaded bool
		// call reads the closed corpus; uris is what Corpus.URIs returned
		// before Close.
		call func(c *Corpus, uris []string) any
		want any
	}{
		{"Corpus.NumNodes", false, func(c *Corpus, _ []string) any { return c.NumNodes() }, 0},
		{"Document.NumNodes", false, func(c *Corpus, _ []string) any { return c.DocumentAt(1).NumNodes() }, 0},
		{"Corpus.URIs", false, func(_ *Corpus, uris []string) any { return fmt.Sprint(uris[1]) }, "mem://golden-1.xml"},
		{"Corpus.SizeBytes", true, func(c *Corpus, _ []string) any { return c.SizeBytes() }, 0},
		{"Document.XML", true, func(c *Corpus, _ []string) any { return c.DocumentAt(1).XML() }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := OpenCorpusFile("testdata/corpus_v4_pr26_ingest.snap")
			if err != nil {
				t.Fatal(err)
			}
			if tc.loaded {
				if _, err := c.Run(q, Auto); err != nil {
					t.Fatal(err)
				}
			}
			uris := c.URIs()
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if got := tc.call(c, uris); got != tc.want {
				t.Errorf("after Close: %v, want %v", got, tc.want)
			}
		})
	}
}

// Close on a member view of a multi-member corpus must not release the
// mapping under its siblings: it reports an error and the corpus, the view
// and its siblings keep answering.
func TestMemberViewCloseLeavesCorpusOpen(t *testing.T) {
	c, err := OpenCorpusFile(snapshotFile(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := MustPrepare(`$input//doc`)
	d := c.DocumentAt(0)
	if err := d.Close(); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("Close on a member view = %v, want a refusal", err)
	}
	if d.Closed() || c.Closed() {
		t.Fatal("Close on a member view closed the corpus")
	}
	for i := 0; i < c.Len(); i++ {
		if _, err := q.Run(c.DocumentAt(i), Staircase); err != nil {
			t.Fatalf("member %d after a sibling view's Close: %v", i, err)
		}
	}
	if _, err := c.Run(q, Auto); err != nil {
		t.Fatalf("corpus run after a member view's Close: %v", err)
	}
}

// Single-document file mapping through the public Document API.
func TestDocumentOpenSnapshotFile(t *testing.T) {
	doc, err := LoadXMLString(`<a id="1"><b x="y"><c>hello</c></b><c>world</c><b><c/></b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	doc.SetURI("mem://one.xml")
	var buf bytes.Buffer
	if err := doc.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.xqts")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	doc2, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if doc2.URI() != doc.URI() {
		t.Fatalf("URI = %q, want %q", doc2.URI(), doc.URI())
	}
	if doc2.XML() != doc.XML() {
		t.Fatalf("serialization differs:\n  %s\n  %s", doc.XML(), doc2.XML())
	}
	q, err := Prepare(`$input//b[c]`)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{NestedLoop, Staircase, Twig, Auto} {
		want, err := q.Run(doc, alg)
		if err != nil {
			t.Fatalf("%v/fresh: %v", alg, err)
		}
		got, err := q.Run(doc2, alg)
		if err != nil {
			t.Fatalf("%v/mapped: %v", alg, err)
		}
		same := func(Item) (string, bool) { return "", true }
		if err := equivItems(want, got, same, same); err != nil {
			t.Errorf("%v: mapped document differs from fresh: %v", alg, err)
		}
	}
	if err := doc2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := doc2.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	if _, err := q.Run(doc2, Auto); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
	if _, _, err := q.RunWith(context.Background(), doc2, Auto, RunOptions{Vars: map[string]Sequence{}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("RunWith with Vars after Close = %v, want ErrClosed", err)
	}
	// A truncated single-document snapshot is rejected at open (the member
	// is validated eagerly on this path).
	trunc := filepath.Join(t.TempDir(), "trunc.xqts")
	if err := os.WriteFile(trunc, buf.Bytes()[:buf.Len()-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshotFile(trunc); err == nil {
		t.Fatal("open of a truncated document snapshot should fail")
	}
}

// A saved document keeps its URI through both single-document opens, so
// fn:doc on its own name resolves after a reload. (LoadSnapshot used to drop
// it: its reader returned the member index without the snapshot's URI table.)
func TestDocumentSnapshotKeepsURI(t *testing.T) {
	doc, err := LoadXMLString(`<a><b>x</b><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	doc.SetURI("a.xml")
	var buf bytes.Buffer
	if err := doc.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a.xqts")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	q, err := Prepare(`fn:doc("a.xml")//b`)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Document{"LoadSnapshot": loaded, "OpenSnapshotFile": mapped} {
		if d.URI() != "a.xml" {
			t.Errorf("%s: URI = %q, want a.xml", name, d.URI())
		}
		got, err := q.Run(d, Auto)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if len(got) != 2 {
			t.Errorf("%s: fn:doc(\"a.xml\")//b gave %d items, want 2", name, len(got))
		}
	}
}

// Corpus bytes are not a document: LoadSnapshot refuses them and says which
// function opens them.
func TestLoadSnapshotRejectsCorpus(t *testing.T) {
	c, err := LoadCorpus(genCorpusSources(3, 5), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = LoadSnapshot(&buf)
	if err == nil || !strings.Contains(err.Error(), "OpenCorpusSnapshot") {
		t.Fatalf("LoadSnapshot on 3-member bytes = %v, want an error naming OpenCorpusSnapshot", err)
	}
}

// The snapshot writer reads columns, streams and stored text values, never
// nodes: a corpus saved before any member was queried and the same corpus
// saved after every member was queried (and so built its nodes) write the
// same bytes, and both reopen to the same answers.
func TestSnapshotSameBeforeAndAfterQueries(t *testing.T) {
	c, err := LoadCorpus(genCorpusSources(6, 11), 2)
	if err != nil {
		t.Fatal(err)
	}
	var untouched, touched bytes.Buffer
	if err := c.SaveSnapshot(&untouched); err != nil {
		t.Fatal(err)
	}
	q, err := Prepare(`$input//*`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Run(q, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SaveSnapshot(&touched); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(untouched.Bytes(), touched.Bytes()) {
		t.Fatalf("snapshot bytes differ once the members were queried (%d vs %d bytes)", untouched.Len(), touched.Len())
	}
	for name, data := range map[string][]byte{"untouched": untouched.Bytes(), "touched": touched.Bytes()} {
		c2, err := OpenCorpusSnapshot(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := c2.Run(q, Auto)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := equivItems(want, got, c.URIOf, c2.URIOf); err != nil {
			t.Errorf("%s: reopened corpus differs: %v", name, err)
		}
	}
}

// testdata/corpus_v3_pr14.snap was written by the commit before the columns
// became the only thing a loader builds (three members a.xml, b.xml, c.xml),
// in format v3: it must open — from memory and mapped — and its re-saved v4
// bytes must re-save to themselves.
func TestOpensParentWrittenSnapshot(t *testing.T) {
	const path = "testdata/corpus_v3_pr14.snap"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	inMem, err := OpenCorpusSnapshot(bytes.Clone(data))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenCorpusFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	q, err := Prepare(`fn:doc("b.xml")//person[emailaddress]/name`)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Corpus{"memory": inMem, "mapped": mapped} {
		if got := c.URIs(); !reflect.DeepEqual(got, []string{"a.xml", "b.xml", "c.xml"}) {
			t.Fatalf("%s: URIs = %v", name, got)
		}
		got, err := c.Run(q, Auto)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != 1 || got[0].(*xdm.Node).StringValue() != "Ann" {
			t.Errorf("%s: got %v", name, got)
		}
		d, _ := c.Document("b.xml")
		if !strings.Contains(d.XML(), "<name>Bob &amp; co</name>") {
			t.Errorf("%s: b.xml serializes to %s", name, d.XML())
		}
		var v4, again bytes.Buffer
		if err := c.SaveSnapshot(&v4); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reopened, err := OpenCorpusSnapshot(bytes.Clone(v4.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := reopened.SaveSnapshot(&again); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(again.Bytes(), v4.Bytes()) {
			t.Errorf("%s: re-saved v4 snapshot does not re-save to itself", name)
		}
	}
}

// corporaOf opens snapshot bytes the two ways a corpus is opened: from
// memory and by mapping a file.
func corporaOf(t *testing.T, data []byte) map[string]*Corpus {
	t.Helper()
	path := filepath.Join(t.TempDir(), "doc.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	inMem, err := OpenCorpusSnapshot(bytes.Clone(data))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenCorpusFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	return map[string]*Corpus{"OpenCorpusSnapshot": inMem, "OpenCorpusFile": mapped}
}

// A document snapshot is a one-member corpus snapshot: opened as a corpus it
// answers what the live document answers, and the fan-out skips nothing.
// (Document.SaveSnapshot used to write no name table, and the skip test read
// the missing table as "this member has none of the names".)
func TestDocumentSnapshotOpensAsCorpus(t *testing.T) {
	doc := NewXMarkDocument(1, 50)
	q := MustPrepare(`$input//person[emailaddress]/name`)
	want, err := q.Run(doc, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("the live document answers nothing")
	}
	var buf bytes.Buffer
	if err := doc.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	noURI := func(Item) (string, bool) { return "", false }
	for name, c := range corporaOf(t, buf.Bytes()) {
		got, info, err := c.RunWith(context.Background(), q, Auto, RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if info.Members != 1 || info.Skipped != 0 {
			t.Errorf("%s: RunInfo %+v, want 1 member, none skipped", name, info)
		}
		if err := equivItems(want, got, noURI, noURI); err != nil {
			t.Errorf("%s: corpus differs from the live document: %v", name, err)
		}
	}
}

// testdata/doc_v3_pr16.snap was written by the parent commit's
// `xmlgen -kind xmark -people 3 -format snapshot`: a document snapshot with
// no name table. On a file the empty table means "unknown", so it must still
// answer when opened as a corpus.
func TestParentWrittenDocumentSnapshotOpensAsCorpus(t *testing.T) {
	data, err := os.ReadFile("testdata/doc_v3_pr16.snap")
	if err != nil {
		t.Fatal(err)
	}
	q := MustPrepare(`$input//person[emailaddress]/name`)
	for name, c := range corporaOf(t, data) {
		got, info, err := c.RunWith(context.Background(), q, Auto, RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != 2 || info.Skipped != 0 {
			t.Errorf("%s: %d rows, RunInfo %+v; want 2 rows, none skipped", name, len(got), info)
		}
	}
}
