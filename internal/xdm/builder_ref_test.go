package xdm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"xqtp/internal/xdm"
	"xqtp/internal/xdm/xdmref"
)

// buildBoth constructs the same small document through Finalize (pointer
// construction + re-walk) and through the TreeBuilder (columns only; nodes
// built rank by rank on request), for equivalence checks.
func buildBoth() (*xdmref.Doc, *xdm.Tree) {
	// <r a="1" b="2"><x>hi</x><y c="3"><x/></y>tail</r>
	r := xdmref.NewElement("r")
	r.SetAttr("a", "1")
	r.SetAttr("b", "2")
	x1 := xdmref.NewElement("x")
	x1.AppendChild(xdmref.NewText("hi"))
	r.AppendChild(x1)
	y := xdmref.NewElement("y")
	y.SetAttr("c", "3")
	y.AppendChild(xdmref.NewElement("x"))
	r.AppendChild(y)
	r.AppendChild(xdmref.NewText("tail"))
	ref := xdmref.Finalize(r)

	b := xdm.NewTreeBuilder(0)
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
// encoding as the linked node. want is a Finalize tree; its Parent/Children
// /Attrs links must be what got's columns say (parent column,
// FirstChild/NextSibling, the attribute run after the owner), and got's
// column Step must return got's own nodes for those ranks. The xmlstore
// differential suite has its own copy working through the public API.
func checkTreesEqual(t *testing.T, ref *xdmref.Doc, got *xdm.Tree) {
	t.Helper()
	want := ref.Tree
	if !got.Untouched() {
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
		if want.Syms.Name(xdm.Sym(s)) != got.Syms.Name(xdm.Sym(s)) {
			t.Fatalf("symbol %d: %q != %q", s, got.Syms.Name(xdm.Sym(s)), want.Syms.Name(xdm.Sym(s)))
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
		w, g := ref.Nodes[r], got.Node(r)
		if w.Kind != g.Kind || w.Name != g.Name || w.Text != g.Text || w.Sym != g.Sym {
			t.Fatalf("pre %d: node %v != %v", pre, g, w)
		}
		if w.Pre != g.Pre || w.Size != g.Size {
			t.Fatalf("pre %d: encoding (pre=%d size=%d) != (pre=%d size=%d)", pre, g.Pre, g.Size, w.Pre, w.Size)
		}
		if g.Doc != got || g != got.Node(r) {
			t.Fatalf("pre %d: built node not this tree's one node", pre)
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
		for a := r + 1; a <= gc.End(r) && xdm.Kind(gc.Kind[a]) == xdm.AttributeNode; a++ {
			attrs = append(attrs, a)
		}
		checkLinks(t, pre, "child", w.Children, kids, xdm.Step(g, xdm.AxisChild, xdm.AnyNodeTest()), got)
		checkLinks(t, pre, "attr", w.Attrs, attrs, xdm.Step(g, xdm.AxisAttribute, xdm.AnyNodeTest()), got)
	}
	if got.RootNode() != got.Node(0) || want.RootNode() != want.Nodes()[0] {
		t.Fatalf("RootNode is not rank 0")
	}
}

// checkLinks compares one of a Finalize node's link lists with the ranks the
// columns give and with what Step built for them.
func checkLinks(t *testing.T, pre int, what string, linked []*xdmref.Node, ranks []int32, stepped []*xdm.Node, got *xdm.Tree) {
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
	b := xdm.NewTreeBuilder(0)
	b.OpenElement([]byte("only"))
	if b.Depth() != 1 {
		t.Fatalf("Depth = %d, want 1", b.Depth())
	}
	b.CloseElement()
	tr := b.Finish()
	want := xdmref.Finalize(xdmref.NewElement("only"))
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
	b := xdm.NewTreeBuilder(0)
	var wants []*xdmref.Doc
	var gots []*xdm.Tree
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
		root := xdmref.NewElement("root")
		b.OpenElement([]byte("root"))
		stack := []*xdmref.Node{root}
		for i := 0; i < 2000; i++ {
			switch op := rng.Intn(10); {
			case op < 4: // open child
				name := elemName()
				el := xdmref.NewElement(name)
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
				top.AppendChild(xdmref.NewText("x"))
				b.Text("x")
			}
		}
		for len(stack) > 1 {
			stack = stack[:len(stack)-1]
			b.CloseElement()
		}
		b.CloseElement()
		wants = append(wants, xdmref.Finalize(root))
		gots = append(gots, b.Finish())
	}
	for i := range wants {
		checkTreesEqual(t, wants[i], gots[i])
		if plain := i < 3; gots[i].Syms.Plain() != plain {
			t.Fatalf("seed %d: symbol table plain %v, want %v", i, gots[i].Syms.Plain(), plain)
		}
	}
}
