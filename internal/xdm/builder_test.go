package xdm

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestNewSymbolsPlain checks the plain bit on the snapshot loader's path:
// a table of plain names is plain, and one odd name among them, anywhere in
// the list, makes it not.
func TestNewSymbolsPlain(t *testing.T) {
	plainNames := []string{"site", "person", "id", "a-b_c.d:e", " !#$%'()*+,-./09;=?@AZ[]^_`az{|}~"}
	if st, err := NewSymbols(plainNames); err != nil || !st.Plain() {
		t.Fatalf("NewSymbols(%q): plain %v, err %v; want plain", plainNames, st.Plain(), err)
	}
	for _, odd := range []string{"\xff", "caf\u00e9", "p\u2028", `q"`, "a&b", `b\`, "<", ">", "tab\t", "\x7f"} {
		for at := 0; at <= len(plainNames); at++ {
			names := append(append(append([]string{}, plainNames[:at]...), odd), plainNames[at:]...)
			st, err := NewSymbols(names)
			if err != nil {
				t.Fatal(err)
			}
			if st.Plain() {
				t.Fatalf("NewSymbols(%q) is plain", names)
			}
		}
	}
	if (*Symbols)(nil).Plain() {
		t.Fatal("a nil table is plain")
	}
}

// buildWide builds <r><e a="v">x</e>…</r> with n e elements: 3n+2 nodes.
func buildWide(n int) *Tree {
	b := NewTreeBuilder(3*n + 2)
	b.OpenElement([]byte("r"))
	for i := 0; i < n; i++ {
		b.OpenElement([]byte("e"))
		b.Attr([]byte("a"), "v")
		b.Text("x")
		b.CloseElement()
	}
	b.CloseElement()
	return b.Finish()
}

// TestBuilderAllocatesNoNodes pins the point of the builder: a finished tree
// is columns, symbols and text values. Building an N-node tree must allocate
// less than N Node structs' worth of bytes, the tree must hold no node until
// a rank is asked for, and then exactly the nodes asked for. (The serving
// path's count — ingest → snapshot → query → serialize — is
// TestQueryBuildsOnlyDeliveredNodes in the root package.)
func TestBuilderAllocatesNoNodes(t *testing.T) {
	const elems = 5000
	var tr *Tree
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr = buildWide(elems)
	runtime.ReadMemStats(&after)
	n := tr.CountNodes()
	if n != 3*elems+2 {
		t.Fatalf("built %d nodes, want %d", n, 3*elems+2)
	}
	budget := uint64(n) * uint64(unsafe.Sizeof(Node{}))
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Fatalf("building %d nodes allocated %d bytes, not under the %d a Node slab alone would take", n, got, budget)
	}
	if tr.NodesBuilt() != 0 {
		t.Fatalf("finished tree already holds %d nodes", tr.NodesBuilt())
	}
	if tr.RootNode(); tr.NodesBuilt() != 1 || tr.ids.Load() != nil {
		t.Fatalf("the document node built %d nodes (identity table %v)", tr.NodesBuilt(), tr.ids.Load() != nil)
	}
	es := Step(tr.DocElem(), AxisChild, NameTest("e"))
	if len(es) != elems || tr.NodesBuilt() != 2+elems {
		t.Fatalf("stepping to %d children built %d nodes, want %d", len(es), tr.NodesBuilt(), 2+elems)
	}
	if got := len(tr.Nodes()); got != n || tr.NodesBuilt() != n {
		t.Fatalf("Nodes() returned %d and built %d nodes, want %d", got, tr.NodesBuilt(), n)
	}
}

// A Node is 64 bytes on 64-bit hosts, an allocator size class of its own:
// it is a view of one rank of the columns, keeps (pre, size) of the region
// encoding and nothing else of it, and carries no links.
func TestNodeSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Node{}) != 64 {
		t.Errorf("Node is %d bytes, want 64", unsafe.Sizeof(Node{}))
	}
}

// TestFirstTouchRace forces one fresh tree from 8 goroutines at once, each
// through several accessors (starting with a different one); every call must
// see the same node for rank 1, and for a rank no goroutine has asked for
// before, the same node from every goroutine (run under -race via RACE_PKGS
// and make race's -count=20 loop).
func TestFirstTouchRace(t *testing.T) {
	tr := buildWide(200)
	touch := []func() *Node{
		func() *Node { return tr.Node(1) },
		func() *Node { return Step(tr.RootNode(), AxisChild, StarTest())[0] },
		tr.DocElem,
	}
	const goroutines = 8
	seen := make([][3]*Node, goroutines)
	fresh := make([]*Node, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			start.Wait()
			for k := range touch {
				seen[g][k] = touch[(g+k)%len(touch)]()
			}
			fresh[g] = tr.Node(300)
		}(g)
	}
	start.Done()
	done.Wait()
	want := tr.Node(1)
	for g, ns := range seen {
		for k, n := range ns {
			if n != want {
				t.Fatalf("goroutine %d call %d saw %v for rank 1, want %v", g, k, n, want)
			}
		}
		if fresh[g] != tr.Node(300) || fresh[g].Pre != 300 {
			t.Fatalf("goroutine %d saw %v for rank 300, want %v", g, fresh[g], tr.Node(300))
		}
	}
	if tr.NodesBuilt() != 3 {
		t.Fatalf("racing for ranks 0, 1 and 300 left %d nodes built", tr.NodesBuilt())
	}
}
