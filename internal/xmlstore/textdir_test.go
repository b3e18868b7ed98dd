package xmlstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"xqtp/internal/xdm"
)

// checkTexts holds Tree.Text to a walk of the text table: the i-th
// text-bearing rank in preorder has value i.
func checkTexts(t *testing.T, what string, tr *xdm.Tree) {
	t.Helper()
	off, blob := tr.TextTable()
	i := 0
	for r, k := range tr.Cols.Kind {
		if xdm.Kind(k) != xdm.TextNode && xdm.Kind(k) != xdm.AttributeNode {
			continue
		}
		if got, want := tr.Text(int32(r)), blob[off[i]:off[i+1]]; got != want {
			t.Fatalf("%s: rank %d has text %q, the table's value %d is %q", what, r, got, i, want)
		}
		i++
	}
	if i != len(off)-1 {
		t.Fatalf("%s: %d text-bearing ranks for %d values", what, i, len(off)-1)
	}
}

// shapedTree builds a tree of exactly n ranks (n >= 2) under one root
// element: runs of attributes, runs of adjacent text nodes and nested
// elements, run lengths up to 70 so runs cross the text directory's 64-rank
// blocks. shape "attrs" is the root with n-2 attributes, "texts" the root
// with n-2 text nodes, "mixed" a seeded mix. Some values are empty.
func shapedTree(b *xdm.TreeBuilder, n int, shape string, seed int64) *xdm.Tree {
	rng := rand.New(rand.NewSource(seed))
	ranks := 2
	value := func() string {
		if ranks%7 == 0 {
			return ""
		}
		return fmt.Sprintf("v%d", ranks)
	}
	run := func(max int) int { return min(1+rng.Intn(max), n-ranks) }
	b.OpenElement([]byte("root"))
	switch shape {
	case "attrs":
		for ; ranks < n; ranks++ {
			b.Attr([]byte(fmt.Sprintf("a%d", ranks)), value())
		}
	case "texts":
		for ; ranks < n; ranks++ {
			b.Text(value())
		}
	default:
		fresh := true // the innermost element has no child yet: attributes may follow
		for ranks < n {
			switch c := rng.Intn(4); {
			case c == 0 && fresh:
				for k := run(70); k > 0; k-- {
					b.Attr([]byte(fmt.Sprintf("a%d", k)), value())
					ranks++
				}
			case c == 1:
				b.OpenElement([]byte(fmt.Sprintf("e%d", rng.Intn(5))))
				ranks++
				fresh = true
				continue
			case c == 2 && b.Depth() > 1:
				b.CloseElement()
			default:
				for k := run(70); k > 0; k-- {
					b.Text(value())
					ranks++
				}
			}
			fresh = false
		}
		for b.Depth() > 1 {
			b.CloseElement()
		}
	}
	b.CloseElement()
	return b.Finish()
}

// Tree.Text agrees with the text table at every rank of trees of 1 to 300
// ranks, built by the builder, loaded from a snapshot and placed by a failed
// load.
func TestTextDirectoryAgreesWithTextTable(t *testing.T) {
	b := xdm.NewTreeBuilder(0)
	one := b.Finish() // the document node alone
	if n := one.CountNodes(); n != 1 {
		t.Fatalf("a finished empty builder holds %d ranks", n)
	}
	checkTexts(t, "1 rank", one)
	for _, n := range []int{2, 63, 64, 65, 127, 128, 129, 130, 300} {
		for _, shape := range []string{"attrs", "texts", "mixed"} {
			for seed := int64(0); seed < 3; seed++ {
				what := fmt.Sprintf("%d ranks, %s, seed %d", n, shape, seed)
				tr := shapedTree(b, n, shape, seed)
				if tr.CountNodes() != n {
					t.Fatalf("%s: built %d ranks", what, tr.CountNodes())
				}
				checkTexts(t, what+", built", tr)
				var buf bytes.Buffer
				if err := writeSingle(&buf, BuildIndex(tr)); err != nil {
					t.Fatal(err)
				}
				ix, err := readSingle(buf.Bytes())
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				checkTexts(t, what+", loaded", ix.Tree)
			}
		}
	}
	poisoned := xdm.NewShellTree(func() error { return errors.New("load failed") })
	requirePlaceholder(t, poisoned)
	checkTexts(t, "poisoned", poisoned)
}

// A member load allocates the member's name list, its symbol table (a slot
// index of at most four slots per name) and its text directory (16 bytes per
// 64 ranks), and nothing per rank or per name beyond that: the columns, the
// text table and the stream tables alias the snapshot. Another per-rank
// int32 column, or a map of the names, fails the bound.
func TestEnsureAllocatesNoPerRankColumn(t *testing.T) {
	if !aliasInt32() {
		t.Skip("the portable decode copies the columns")
	}
	const members, people = 12, 40
	b := xdm.NewTreeBuilder(0)
	s := &CorpusSnapshot{}
	for m := 0; m < members; m++ {
		// Every member: some 240 distinct names over some 4 000 ranks.
		b.OpenElement([]byte("site"))
		for p := 0; p < people; p++ {
			b.OpenElement([]byte(fmt.Sprintf("person%d", p)))
			b.Attr([]byte("id"), fmt.Sprintf("p%d", p))
			for f := 0; f < 50; f++ {
				b.OpenElement([]byte(fmt.Sprintf("field%d_%d", p, f%5)))
				b.Text("value")
				b.CloseElement()
			}
			b.CloseElement()
		}
		b.CloseElement()
		s.URIs = append(s.URIs, fmt.Sprintf("m%d", m))
		s.Indexes = append(s.Indexes, BuildIndex(b.Finish()))
	}
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, s); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenCorpus(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	least := uint64(1 << 62)
	for _, ix := range snap.Indexes {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if err := ix.Ensure(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	tr := snap.Indexes[0].Tree
	names, ranks := tr.Syms.Len(), tr.CountNodes()
	slots := 1 << bits.Len(uint(2*names-1))
	// The name list's string headers, the slot index, the text directory,
	// and 1 KiB for the fixed-size parts (the column and table headers).
	bound := uint64(16*names + 4*slots + 16*((ranks+63)/64) + 1024)
	t.Logf("%d names, %d ranks: %d B per member load (bound %d B)", names, ranks, least, bound)
	if least > bound {
		t.Fatalf("a member load allocates %d B, over the %d B bound: a per-rank column (%d B) or a name map is back", least, bound, 4*ranks)
	}
}
