package xdm_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xqtp/internal/xdm"
	"xqtp/internal/xdm/xdmref"
)

// sampleTree builds:
//
//	<a id="1">
//	  <b><c>hello</c></b>
//	  <b><d/></b>
//	  <c>world</c>
//	</a>
func sampleDoc() *xdmref.Doc {
	a := xdmref.NewElement("a")
	a.SetAttr("id", "1")
	b1 := xdmref.NewElement("b")
	c1 := xdmref.NewElement("c")
	c1.AppendChild(xdmref.NewText("hello"))
	b1.AppendChild(c1)
	b2 := xdmref.NewElement("b")
	b2.AppendChild(xdmref.NewElement("d"))
	c2 := xdmref.NewElement("c")
	c2.AppendChild(xdmref.NewText("world"))
	a.AppendChild(b1)
	a.AppendChild(b2)
	a.AppendChild(c2)
	return xdmref.Finalize(a)
}

// sampleTree is sampleDoc's column tree.
func sampleTree() *xdm.Tree { return sampleDoc().Tree }

// firstAttr returns the first attribute of element n.
func firstAttr(n *xdm.Node) *xdm.Node {
	return xdm.Step(n, xdm.AxisAttribute, xdm.StarTest())[0]
}

func TestFinalizeRegions(t *testing.T) {
	ref := sampleDoc()
	tr := ref.Tree
	doc := tr.RootNode()
	if doc.Kind != xdm.DocumentNode || doc.Pre != 0 || tr.Cols.Parent[0] != -1 {
		t.Fatalf("document node encoding wrong: %+v", doc)
	}
	a := tr.DocElem()
	if a == nil || a.Name != "a" {
		t.Fatalf("DocElem = %v", a)
	}
	if a.Pre != 1 || tr.Cols.Parent[1] != 0 {
		t.Errorf("a encoding: pre=%d parent=%d", a.Pre, tr.Cols.Parent[1])
	}
	// Region of the document spans every node.
	if doc.Size != len(tr.Nodes())-1 {
		t.Errorf("doc.Size = %d, want %d", doc.Size, len(tr.Nodes())-1)
	}
	// Attribute numbered right after its element.
	if la := ref.Nodes[a.Pre]; len(la.Attrs) != 1 || la.Attrs[0].Pre != a.Pre+1 {
		t.Errorf("attribute pre = %d, want %d", la.Attrs[0].Pre, a.Pre+1)
	}
	// Nodes are indexed by Pre.
	for i, n := range tr.Nodes() {
		if n.Pre != i {
			t.Fatalf("Nodes[%d].Pre = %d", i, n.Pre)
		}
	}
}

func TestContainsMatchesAncestry(t *testing.T) {
	ref := sampleDoc()
	tr := ref.Tree
	for _, n := range tr.Nodes() {
		for _, d := range tr.Nodes() {
			want := false
			for p := ref.Nodes[d.Pre].Parent; p != nil; p = p.Parent {
				if p == ref.Nodes[n.Pre] {
					want = true
					break
				}
			}
			if got := n.Contains(d); got != want {
				t.Errorf("Contains(%v, %v) = %v, want %v", n, d, got, want)
			}
		}
	}
}

func TestStringValue(t *testing.T) {
	tr := sampleTree()
	if got := tr.DocElem().StringValue(); got != "helloworld" {
		t.Errorf("string value of <a> = %q", got)
	}
	cs := xdm.Step(tr.DocElem(), xdm.AxisChild, xdm.NameTest("c"))
	if len(cs) != 1 || cs[0].StringValue() != "world" {
		t.Errorf("child::c = %v", cs)
	}
	if firstAttr(tr.DocElem()).StringValue() != "1" {
		t.Error("attribute string value wrong")
	}
}

func TestStepAxes(t *testing.T) {
	tr := sampleTree()
	a := tr.DocElem()
	tests := []struct {
		axis xdm.Axis
		test xdm.NodeTest
		want int
	}{
		{xdm.AxisChild, xdm.NameTest("b"), 2},
		{xdm.AxisChild, xdm.NameTest("c"), 1},
		{xdm.AxisChild, xdm.StarTest(), 3},
		{xdm.AxisDescendant, xdm.NameTest("c"), 2},
		{xdm.AxisDescendant, xdm.StarTest(), 5},
		{xdm.AxisDescendant, xdm.TextTest(), 2},
		{xdm.AxisDescendantOrSelf, xdm.NameTest("a"), 1},
		{xdm.AxisAttribute, xdm.NameTest("id"), 1},
		{xdm.AxisAttribute, xdm.StarTest(), 1},
		{xdm.AxisSelf, xdm.NameTest("a"), 1},
		{xdm.AxisSelf, xdm.NameTest("b"), 0},
	}
	for _, tc := range tests {
		got := xdm.Step(a, tc.axis, tc.test)
		if len(got) != tc.want {
			t.Errorf("%s::%s from <a>: got %d nodes, want %d", tc.axis, tc.test, len(got), tc.want)
		}
		if !xdm.IsDocOrdered(xdm.SequenceOf(got)) {
			t.Errorf("%s::%s result not in document order", tc.axis, tc.test)
		}
	}
}

func TestReverseAxes(t *testing.T) {
	tr := sampleTree()
	ds := xdm.Step(tr.DocElem(), xdm.AxisDescendant, xdm.NameTest("d"))
	if len(ds) != 1 {
		t.Fatalf("descendant::d = %v", ds)
	}
	d := ds[0]
	if got := xdm.Step(d, xdm.AxisParent, xdm.StarTest()); len(got) != 1 || got[0].Name != "b" {
		t.Errorf("parent::* of d = %v", got)
	}
	anc := xdm.Step(d, xdm.AxisAncestor, xdm.StarTest())
	if len(anc) != 2 || anc[0].Name != "a" || anc[1].Name != "b" {
		t.Errorf("ancestor::* of d = %v", anc)
	}
	ancOS := xdm.Step(d, xdm.AxisAncestorOrSelf, xdm.AnyNodeTest())
	if len(ancOS) != 4 { // document, a, b, d
		t.Errorf("ancestor-or-self::node() of d = %v", ancOS)
	}
	if !xdm.IsDocOrdered(xdm.SequenceOf(anc)) {
		t.Error("ancestor axis result not in document order")
	}
}

func TestDDO(t *testing.T) {
	tr := sampleTree()
	a := tr.DocElem()
	bs := xdm.Step(a, xdm.AxisChild, xdm.NameTest("b"))
	// Shuffled with duplicates.
	seq := xdm.Sequence{bs[1], bs[0], bs[1], a}
	got, err := xdm.DDO(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("DDO kept %d items, want 3", len(got))
	}
	if !xdm.IsDocOrdered(got) {
		t.Errorf("DDO result not ordered: %v", got)
	}
	if got[0].(*xdm.Node) != a {
		t.Errorf("DDO[0] = %v, want <a>", got[0])
	}
	if _, err := xdm.DDO(xdm.Sequence{xdm.String("x")}); err == nil {
		t.Error("DDO of atomic sequence should fail")
	}
}

func TestEffectiveBool(t *testing.T) {
	tr := sampleTree()
	cases := []struct {
		in   xdm.Sequence
		want bool
	}{
		{xdm.Sequence{}, false},
		{xdm.Sequence{tr.DocElem()}, true},
		{xdm.Sequence{tr.DocElem(), tr.RootNode()}, true},
		{xdm.Sequence{xdm.Bool(true)}, true},
		{xdm.Sequence{xdm.Bool(false)}, false},
		{xdm.Sequence{xdm.String("")}, false},
		{xdm.Sequence{xdm.String("x")}, true},
		{xdm.Sequence{xdm.Float(0)}, false},
		{xdm.Sequence{xdm.Float(2.5)}, true},
		{xdm.Sequence{xdm.Integer(0)}, false},
		{xdm.Sequence{xdm.Integer(7)}, true},
	}
	for _, tc := range cases {
		got, err := xdm.EffectiveBool(tc.in)
		if err != nil {
			t.Fatalf("EffectiveBool(%v): %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("EffectiveBool(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if _, err := xdm.EffectiveBool(xdm.Sequence{xdm.String("a"), xdm.String("b")}); err == nil {
		t.Error("EBV of multi-atomic sequence should fail")
	}
}

func TestGeneralCompare(t *testing.T) {
	tr := sampleTree()
	cs := xdm.Step(tr.DocElem(), xdm.AxisDescendant, xdm.NameTest("c"))
	// Existential: any c equal to "world"?
	ok, err := xdm.GeneralCompare(xdm.OpEq, xdm.SequenceOf(cs), xdm.Sequence{xdm.String("world")})
	if err != nil || !ok {
		t.Errorf("c = 'world': ok=%v err=%v", ok, err)
	}
	ok, _ = xdm.GeneralCompare(xdm.OpEq, xdm.SequenceOf(cs), xdm.Sequence{xdm.String("nope")})
	if ok {
		t.Error("c = 'nope' should be false")
	}
	// Untyped vs numeric: the attribute value "1" casts to a number.
	id := firstAttr(tr.DocElem())
	ok, err = xdm.GeneralCompare(xdm.OpEq, xdm.Sequence{id}, xdm.Sequence{xdm.Integer(1)})
	if err != nil || !ok {
		t.Errorf("@id = 1: ok=%v err=%v", ok, err)
	}
	ok, err = xdm.GeneralCompare(xdm.OpLt, xdm.Sequence{xdm.Integer(3)}, xdm.Sequence{xdm.Float(3.5)})
	if err != nil || !ok {
		t.Errorf("3 < 3.5: ok=%v err=%v", ok, err)
	}
	// Empty operands: always false.
	ok, _ = xdm.GeneralCompare(xdm.OpEq, xdm.Sequence{}, xdm.Sequence{xdm.Integer(1)})
	if ok {
		t.Error("() = 1 should be false")
	}
	// Booleans compare with booleans only.
	if _, err := xdm.GeneralCompare(xdm.OpEq, xdm.Sequence{xdm.Bool(true)}, xdm.Sequence{xdm.Integer(1)}); err == nil {
		t.Error("boolean vs number should be a type error")
	}
}

func TestParseAxis(t *testing.T) {
	for name, want := range map[string]xdm.Axis{
		"child": xdm.AxisChild, "descendant": xdm.AxisDescendant, "desc": xdm.AxisDescendant,
		"descendant-or-self": xdm.AxisDescendantOrSelf, "dos": xdm.AxisDescendantOrSelf,
		"attribute": xdm.AxisAttribute, "attr": xdm.AxisAttribute, "self": xdm.AxisSelf,
		"parent": xdm.AxisParent, "ancestor": xdm.AxisAncestor, "ancestor-or-self": xdm.AxisAncestorOrSelf,
	} {
		got, err := xdm.ParseAxis(name)
		if err != nil || got != want {
			t.Errorf("ParseAxis(%q) = %v, %v", name, got, err)
		}
	}
	for name, want := range map[string]xdm.Axis{
		"following-sibling": xdm.AxisFollowingSibling, "preceding-sibling": xdm.AxisPrecedingSibling,
		"following": xdm.AxisFollowing, "preceding": xdm.AxisPreceding,
	} {
		if got, err := xdm.ParseAxis(name); err != nil || got != want {
			t.Errorf("ParseAxis(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := xdm.ParseAxis("namespace"); err == nil {
		t.Error("unsupported axis should error")
	}
}

// randomTree builds a random tree with n element nodes for property tests.
func randomTree(rng *rand.Rand, n int) *xdmref.Doc {
	names := []string{"a", "b", "c", "d"}
	root := xdmref.NewElement("root")
	nodes := []*xdmref.Node{root}
	for i := 1; i < n; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		el := xdmref.NewElement(names[rng.Intn(len(names))])
		if rng.Intn(4) == 0 {
			el.SetAttr("id", "x")
		}
		if rng.Intn(3) == 0 {
			el.AppendChild(xdmref.NewText("t"))
		}
		parent.AppendChild(el)
		nodes = append(nodes, el)
	}
	return xdmref.Finalize(root)
}

// Property: region encoding is consistent — Pre+Size covers exactly the
// subtree, and ancestry through the Parent links, Contains and
// Step(descendant) are one relation.
func TestRegionEncodingProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := randomTree(rng, 2+rng.Intn(60))
		tr := ref.Tree
		for _, n := range tr.Nodes() {
			// size = number of nodes with Pre in (n.Pre, n.Pre+n.Size].
			cnt := 0
			for _, m := range tr.Nodes() {
				if n.Contains(m) {
					cnt++
				}
			}
			if cnt != n.Size {
				return false
			}
			desc := map[*xdm.Node]bool{}
			for _, m := range xdm.Step(n, xdm.AxisDescendant, xdm.AnyNodeTest()) {
				desc[m] = true
			}
			for _, m := range tr.Nodes() {
				anc := false
				for p := ref.Nodes[m.Pre].Parent; p != nil && !anc; p = p.Parent {
					anc = p == ref.Nodes[n.Pre]
				}
				if anc != n.Contains(m) {
					return false
				}
				// The descendant axis leaves attributes out.
				if desc[m] != (anc && m.Kind != xdm.AttributeNode) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: DDO is idempotent and produces ordered duplicate-free output.
func TestDDOProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 2+rng.Intn(40)).Tree
		var seq xdm.Sequence
		for i := 0; i < rng.Intn(50); i++ {
			seq = append(seq, tr.Nodes()[rng.Intn(len(tr.Nodes()))])
		}
		once, err := xdm.DDO(seq)
		if err != nil {
			return false
		}
		if !xdm.IsDocOrdered(once) {
			return false
		}
		twice, err := xdm.DDO(once)
		if err != nil || len(twice) != len(once) {
			return false
		}
		for i := range twice {
			if twice[i] != once[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: every navigational Step returns document-ordered duplicate-free
// results consistent with a brute-force scan of the tree.
func TestStepProperty(t *testing.T) {
	axes := []xdm.Axis{xdm.AxisChild, xdm.AxisDescendant, xdm.AxisDescendantOrSelf, xdm.AxisAttribute, xdm.AxisSelf,
		xdm.AxisParent, xdm.AxisAncestor, xdm.AxisFollowingSibling, xdm.AxisPrecedingSibling, xdm.AxisFollowing, xdm.AxisPreceding}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := randomTree(rng, 2+rng.Intn(50))
		tr := ref.Tree
		start := tr.Nodes()[rng.Intn(len(tr.Nodes()))]
		axis := axes[rng.Intn(len(axes))]
		test := xdm.NameTest([]string{"a", "b", "c", "d"}[rng.Intn(4)])
		got := xdm.Step(start, axis, test)
		if !xdm.IsDocOrdered(xdm.SequenceOf(got)) {
			return false
		}
		// Brute force, over the linked nodes.
		ctx := ref.Nodes[start.Pre]
		want := map[*xdm.Node]bool{}
		for _, m := range ref.Nodes {
			var onAxis bool
			switch axis {
			case xdm.AxisChild:
				onAxis = m.Parent == ctx && m.Kind != xdm.AttributeNode
			case xdm.AxisDescendant:
				onAxis = ctx.Contains(m) && m.Kind != xdm.AttributeNode
			case xdm.AxisDescendantOrSelf:
				onAxis = (m == ctx || ctx.Contains(m)) && m.Kind != xdm.AttributeNode
			case xdm.AxisAttribute:
				onAxis = m.Parent == ctx && m.Kind == xdm.AttributeNode
			case xdm.AxisSelf:
				onAxis = m == ctx
			case xdm.AxisParent:
				onAxis = ctx.Parent == m
			case xdm.AxisAncestor:
				onAxis = m.Contains(ctx) && m.Kind != xdm.AttributeNode
			case xdm.AxisFollowingSibling:
				onAxis = m.Parent == ctx.Parent && m != ctx && m.Kind != xdm.AttributeNode &&
					ctx.Kind != xdm.AttributeNode && ctx.Parent != nil && m.Pre > ctx.Pre
			case xdm.AxisPrecedingSibling:
				onAxis = m.Parent == ctx.Parent && m != ctx && m.Kind != xdm.AttributeNode &&
					ctx.Kind != xdm.AttributeNode && ctx.Parent != nil && m.Pre < ctx.Pre
			case xdm.AxisFollowing:
				onAxis = m.Kind != xdm.AttributeNode && m.Pre > ctx.End()
			case xdm.AxisPreceding:
				onAxis = m.Kind != xdm.AttributeNode && m.Pre < ctx.Pre && !m.Contains(ctx) && m.Pre > 0
			}
			if onAxis && xdmref.Matches(test, axis, m) {
				want[tr.Node(int32(m.Pre))] = true
			}
		}
		if len(got) != len(want) {
			return false
		}
		for _, g := range got {
			if !want[g] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
