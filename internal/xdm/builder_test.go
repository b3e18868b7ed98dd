package xdm

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// buildBoth constructs the same small document through Finalize (pointer
// construction + re-walk) and through the TreeBuilder (columns only; nodes
// built rank by rank on request), for equivalence checks.
func buildBoth() (*Tree, *Tree) {
	// <r a="1" b="2"><x>hi</x><y c="3"><x/></y>tail</r>
	r := NewElement("r")
	r.SetAttr("a", "1")
	r.SetAttr("b", "2")
	x1 := NewElement("x")
	x1.AppendChild(NewText("hi"))
	r.AppendChild(x1)
	y := NewElement("y")
	y.SetAttr("c", "3")
	y.AppendChild(NewElement("x"))
	r.AppendChild(y)
	r.AppendChild(NewText("tail"))
	ref := Finalize(r)

	b := NewTreeBuilder(0)
	b.OpenElement([]byte("r"))
	b.Attr([]byte("a"), "1")
	b.Attr([]byte("b"), "2")
	b.OpenElement([]byte("x"))
	b.Text("hi")
	b.CloseElement()
	b.OpenElement([]byte("y"))
	b.Attr([]byte("c"), "3")
	b.OpenElement([]byte("x"))
	b.CloseElement()
	b.CloseElement()
	b.Text("tail")
	b.CloseElement()
	return ref, b.Finish()
}

// checkTreesEqual fails the test unless the two trees are structurally
// identical: same SoA columns, same symbol tables, same text values, and for
// every rank a built node with the same kind, name, symbol, text and region
// encoding. want is a Finalize tree; its Parent/Children/Attrs links must be
// what got's columns say (parent column, FirstChild/NextSibling, the
// attribute run after the owner), and got's column Step must return got's
// own nodes for those ranks. The xmlstore differential suite has its own
// copy working through the public API.
func checkTreesEqual(t *testing.T, want, got *Tree) {
	t.Helper()
	if got.root != nil || got.ids.Load() != nil {
		t.Fatalf("builder tree holds %d nodes before anything asked for one", got.NodesBuilt())
	}
	if want.CountNodes() != got.CountNodes() {
		t.Fatalf("node count %d != %d", got.CountNodes(), want.CountNodes())
	}
	if want.Syms.Len() != got.Syms.Len() {
		t.Fatalf("symbol count %d != %d", got.Syms.Len(), want.Syms.Len())
	}
	if want.Syms.Plain() != got.Syms.Plain() {
		t.Fatalf("symbol table plain %v != %v", got.Syms.Plain(), want.Syms.Plain())
	}
	for s := 0; s < want.Syms.Len(); s++ {
		if want.Syms.Name(Sym(s)) != got.Syms.Name(Sym(s)) {
			t.Fatalf("symbol %d: %q != %q", s, got.Syms.Name(Sym(s)), want.Syms.Name(Sym(s)))
		}
	}
	wc, gc := want.Cols, got.Cols
	for pre := range wc.Kind {
		if wc.Size[pre] != gc.Size[pre] || wc.Parent[pre] != gc.Parent[pre] ||
			wc.Kind[pre] != gc.Kind[pre] || wc.Sym[pre] != gc.Sym[pre] {
			t.Fatalf("pre %d: column mismatch (size %d/%d parent %d/%d kind %d/%d sym %d/%d)",
				pre, gc.Size[pre], wc.Size[pre], gc.Parent[pre], wc.Parent[pre],
				gc.Kind[pre], wc.Kind[pre], gc.Sym[pre], wc.Sym[pre])
		}
	}
	wt, gt := want.TextValues(), got.TextValues()
	if len(wt) != len(gt) {
		t.Fatalf("%d text values != %d", len(gt), len(wt))
	}
	for i := range wt {
		if wt[i] != gt[i] {
			t.Fatalf("text value %d: %q != %q", i, gt[i], wt[i])
		}
	}
	for pre := range wc.Kind {
		r := int32(pre)
		w, g := want.Node(r), got.Node(r)
		if w.Kind != g.Kind || w.Name != g.Name || w.Text != g.Text || w.Sym != g.Sym {
			t.Fatalf("pre %d: node %v != %v", pre, g, w)
		}
		if w.Pre != g.Pre || w.Size != g.Size {
			t.Fatalf("pre %d: encoding (pre=%d size=%d) != (pre=%d size=%d)", pre, g.Pre, g.Size, w.Pre, w.Size)
		}
		if g.Doc != got || g != got.Node(r) || g.Parent != nil || g.Children != nil || g.Attrs != nil {
			t.Fatalf("pre %d: built node not this tree's one unlinked node", pre)
		}
		wp := -1
		if w.Parent != nil {
			wp = w.Parent.Pre
		}
		if int32(wp) != gc.Parent[pre] {
			t.Fatalf("pre %d: parent column %d, linked parent %d", pre, gc.Parent[pre], wp)
		}
		var kids, attrs []int32
		for ch := gc.FirstChild(r); ch <= gc.End(r); ch = gc.NextSibling(ch) {
			kids = append(kids, ch)
		}
		for a := r + 1; a <= gc.End(r) && Kind(gc.Kind[a]) == AttributeNode; a++ {
			attrs = append(attrs, a)
		}
		checkLinks(t, pre, "child", w.Children, kids, Step(g, AxisChild, AnyNodeTest()), got)
		checkLinks(t, pre, "attr", w.Attrs, attrs, Step(g, AxisAttribute, AnyNodeTest()), got)
	}
	if got.RootNode() != got.Node(0) || want.RootNode() != want.Nodes()[0] {
		t.Fatalf("RootNode is not rank 0")
	}
}

// checkLinks compares one of a Finalize node's link lists with the ranks the
// columns give and with what Step built for them.
func checkLinks(t *testing.T, pre int, what string, linked []*Node, ranks []int32, stepped []*Node, got *Tree) {
	t.Helper()
	if len(linked) != len(ranks) || len(stepped) != len(ranks) {
		t.Fatalf("pre %d: %d %ss linked, %d on the columns, %d stepped", pre, len(linked), what, len(ranks), len(stepped))
	}
	for i, r := range ranks {
		if linked[i].Pre != int(r) || stepped[i] != got.Node(r) {
			t.Fatalf("pre %d %s %d: linked %d, columns %d, stepped %v", pre, what, i, linked[i].Pre, r, stepped[i])
		}
	}
}

func TestBuilderMatchesFinalize(t *testing.T) {
	want, got := buildBoth()
	checkTreesEqual(t, want, got)
}

func TestBuilderEmptyRoot(t *testing.T) {
	b := NewTreeBuilder(0)
	b.OpenElement([]byte("only"))
	if b.Depth() != 1 {
		t.Fatalf("Depth = %d, want 1", b.Depth())
	}
	b.CloseElement()
	tr := b.Finish()
	want := Finalize(NewElement("only"))
	checkTreesEqual(t, want, tr)
}

// TestBuilderRandomTrees drives both construction paths with an identical
// random event sequence and checks structural equality, growing the columns
// well past the zero hint. One builder builds every tree, with a tree
// abandoned mid-way (Reset) before each, and every tree is checked only
// after the last is built: no tree may share the builder's scratch. From
// seed 3 on, element names may be one with no plain spelling, and the
// abandoned tree holds one in every seed: each tree's table is plain exactly
// when its own names are.
func TestBuilderRandomTrees(t *testing.T) {
	b := NewTreeBuilder(0)
	var wants, gots []*Tree
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		elemName := func() string { return fmt.Sprintf("t%d", rng.Intn(7)) }
		if seed >= 3 {
			elemName = func() string { return [...]string{"t0", "t1", "t\u00e9", "t\u2028"}[rng.Intn(4)] }
		}
		b.OpenElement([]byte("abandoned\xff"))
		b.Attr([]byte("a0"), "v")
		b.OpenElement([]byte("t1"))
		b.Reset()
		root := NewElement("root")
		b.OpenElement([]byte("root"))
		stack := []*Node{root}
		for i := 0; i < 2000; i++ {
			switch op := rng.Intn(10); {
			case op < 4: // open child
				name := elemName()
				el := NewElement(name)
				stack[len(stack)-1].AppendChild(el)
				stack = append(stack, el)
				b.OpenElement([]byte(name))
			case op < 6 && len(stack) > 1: // close
				stack = stack[:len(stack)-1]
				b.CloseElement()
			case op == 6: // attribute (only valid right after open: emulate by
				// attaching to the current top before it has children)
				if top := stack[len(stack)-1]; len(top.Children) == 0 {
					name := fmt.Sprintf("a%d", rng.Intn(4))
					top.SetAttr(name, "v")
					b.Attr([]byte(name), "v")
				}
			default: // text
				top := stack[len(stack)-1]
				top.AppendChild(NewText("x"))
				b.Text("x")
			}
		}
		for len(stack) > 1 {
			stack = stack[:len(stack)-1]
			b.CloseElement()
		}
		b.CloseElement()
		wants = append(wants, Finalize(root))
		gots = append(gots, b.Finish())
	}
	for i := range wants {
		checkTreesEqual(t, wants[i], gots[i])
		if plain := i < 3; gots[i].Syms.Plain() != plain {
			t.Fatalf("seed %d: symbol table plain %v, want %v", i, gots[i].Syms.Plain(), plain)
		}
	}
}

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

// A Node is 128 bytes on 64-bit hosts, an allocator size class of its own:
// it keeps (pre, size) of the region encoding and nothing else of it.
func TestNodeSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Node{}) != 128 {
		t.Errorf("Node is %d bytes, want 128", unsafe.Sizeof(Node{}))
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
