package xdm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// sampleTree builds:
//
//	<a id="1">
//	  <b><c>hello</c></b>
//	  <b><d/></b>
//	  <c>world</c>
//	</a>
func sampleTree() *Tree {
	a := NewElement("a")
	a.SetAttr("id", "1")
	b1 := NewElement("b")
	c1 := NewElement("c")
	c1.AppendChild(NewText("hello"))
	b1.AppendChild(c1)
	b2 := NewElement("b")
	b2.AppendChild(NewElement("d"))
	c2 := NewElement("c")
	c2.AppendChild(NewText("world"))
	a.AppendChild(b1)
	a.AppendChild(b2)
	a.AppendChild(c2)
	return Finalize(a)
}

func TestFinalizeRegions(t *testing.T) {
	tr := sampleTree()
	doc := tr.RootNode()
	if doc.Kind != DocumentNode || doc.Pre != 0 || tr.Cols.Parent[0] != -1 {
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
	if len(a.Attrs) != 1 || a.Attrs[0].Pre != a.Pre+1 {
		t.Errorf("attribute pre = %d, want %d", a.Attrs[0].Pre, a.Pre+1)
	}
	// Nodes are indexed by Pre.
	for i, n := range tr.Nodes() {
		if n.Pre != i {
			t.Fatalf("Nodes[%d].Pre = %d", i, n.Pre)
		}
	}
}

func TestContainsMatchesAncestry(t *testing.T) {
	tr := sampleTree()
	for _, n := range tr.Nodes() {
		for _, d := range tr.Nodes() {
			want := false
			for p := d.Parent; p != nil; p = p.Parent {
				if p == n {
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
	cs := Step(tr.DocElem(), AxisChild, NameTest("c"))
	if len(cs) != 1 || cs[0].StringValue() != "world" {
		t.Errorf("child::c = %v", cs)
	}
	if tr.DocElem().Attrs[0].StringValue() != "1" {
		t.Error("attribute string value wrong")
	}
}

func TestStepAxes(t *testing.T) {
	tr := sampleTree()
	a := tr.DocElem()
	tests := []struct {
		axis Axis
		test NodeTest
		want int
	}{
		{AxisChild, NameTest("b"), 2},
		{AxisChild, NameTest("c"), 1},
		{AxisChild, StarTest(), 3},
		{AxisDescendant, NameTest("c"), 2},
		{AxisDescendant, StarTest(), 5},
		{AxisDescendant, TextTest(), 2},
		{AxisDescendantOrSelf, NameTest("a"), 1},
		{AxisAttribute, NameTest("id"), 1},
		{AxisAttribute, StarTest(), 1},
		{AxisSelf, NameTest("a"), 1},
		{AxisSelf, NameTest("b"), 0},
	}
	for _, tc := range tests {
		got := Step(a, tc.axis, tc.test)
		if len(got) != tc.want {
			t.Errorf("%s::%s from <a>: got %d nodes, want %d", tc.axis, tc.test, len(got), tc.want)
		}
		if !IsDocOrdered(SequenceOf(got)) {
			t.Errorf("%s::%s result not in document order", tc.axis, tc.test)
		}
	}
}

func TestReverseAxes(t *testing.T) {
	tr := sampleTree()
	ds := Step(tr.DocElem(), AxisDescendant, NameTest("d"))
	if len(ds) != 1 {
		t.Fatalf("descendant::d = %v", ds)
	}
	d := ds[0]
	if got := Step(d, AxisParent, StarTest()); len(got) != 1 || got[0].Name != "b" {
		t.Errorf("parent::* of d = %v", got)
	}
	anc := Step(d, AxisAncestor, StarTest())
	if len(anc) != 2 || anc[0].Name != "a" || anc[1].Name != "b" {
		t.Errorf("ancestor::* of d = %v", anc)
	}
	ancOS := Step(d, AxisAncestorOrSelf, AnyNodeTest())
	if len(ancOS) != 4 { // document, a, b, d
		t.Errorf("ancestor-or-self::node() of d = %v", ancOS)
	}
	if !IsDocOrdered(SequenceOf(anc)) {
		t.Error("ancestor axis result not in document order")
	}
}

func TestDDO(t *testing.T) {
	tr := sampleTree()
	a := tr.DocElem()
	bs := Step(a, AxisChild, NameTest("b"))
	// Shuffled with duplicates.
	seq := Sequence{bs[1], bs[0], bs[1], a}
	got, err := DDO(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("DDO kept %d items, want 3", len(got))
	}
	if !IsDocOrdered(got) {
		t.Errorf("DDO result not ordered: %v", got)
	}
	if got[0].(*Node) != a {
		t.Errorf("DDO[0] = %v, want <a>", got[0])
	}
	if _, err := DDO(Sequence{String("x")}); err == nil {
		t.Error("DDO of atomic sequence should fail")
	}
}

func TestEffectiveBool(t *testing.T) {
	tr := sampleTree()
	cases := []struct {
		in   Sequence
		want bool
	}{
		{Sequence{}, false},
		{Sequence{tr.DocElem()}, true},
		{Sequence{tr.DocElem(), tr.RootNode()}, true},
		{Sequence{Bool(true)}, true},
		{Sequence{Bool(false)}, false},
		{Sequence{String("")}, false},
		{Sequence{String("x")}, true},
		{Sequence{Float(0)}, false},
		{Sequence{Float(2.5)}, true},
		{Sequence{Integer(0)}, false},
		{Sequence{Integer(7)}, true},
	}
	for _, tc := range cases {
		got, err := EffectiveBool(tc.in)
		if err != nil {
			t.Fatalf("EffectiveBool(%v): %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("EffectiveBool(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if _, err := EffectiveBool(Sequence{String("a"), String("b")}); err == nil {
		t.Error("EBV of multi-atomic sequence should fail")
	}
}

func TestGeneralCompare(t *testing.T) {
	tr := sampleTree()
	cs := Step(tr.DocElem(), AxisDescendant, NameTest("c"))
	// Existential: any c equal to "world"?
	ok, err := GeneralCompare(OpEq, SequenceOf(cs), Sequence{String("world")})
	if err != nil || !ok {
		t.Errorf("c = 'world': ok=%v err=%v", ok, err)
	}
	ok, _ = GeneralCompare(OpEq, SequenceOf(cs), Sequence{String("nope")})
	if ok {
		t.Error("c = 'nope' should be false")
	}
	// Untyped vs numeric: the attribute value "1" casts to a number.
	id := tr.DocElem().Attrs[0]
	ok, err = GeneralCompare(OpEq, Sequence{id}, Sequence{Integer(1)})
	if err != nil || !ok {
		t.Errorf("@id = 1: ok=%v err=%v", ok, err)
	}
	ok, err = GeneralCompare(OpLt, Sequence{Integer(3)}, Sequence{Float(3.5)})
	if err != nil || !ok {
		t.Errorf("3 < 3.5: ok=%v err=%v", ok, err)
	}
	// Empty operands: always false.
	ok, _ = GeneralCompare(OpEq, Sequence{}, Sequence{Integer(1)})
	if ok {
		t.Error("() = 1 should be false")
	}
	// Booleans compare with booleans only.
	if _, err := GeneralCompare(OpEq, Sequence{Bool(true)}, Sequence{Integer(1)}); err == nil {
		t.Error("boolean vs number should be a type error")
	}
}

func TestParseAxis(t *testing.T) {
	for name, want := range map[string]Axis{
		"child": AxisChild, "descendant": AxisDescendant, "desc": AxisDescendant,
		"descendant-or-self": AxisDescendantOrSelf, "dos": AxisDescendantOrSelf,
		"attribute": AxisAttribute, "attr": AxisAttribute, "self": AxisSelf,
		"parent": AxisParent, "ancestor": AxisAncestor, "ancestor-or-self": AxisAncestorOrSelf,
	} {
		got, err := ParseAxis(name)
		if err != nil || got != want {
			t.Errorf("ParseAxis(%q) = %v, %v", name, got, err)
		}
	}
	for name, want := range map[string]Axis{
		"following-sibling": AxisFollowingSibling, "preceding-sibling": AxisPrecedingSibling,
		"following": AxisFollowing, "preceding": AxisPreceding,
	} {
		if got, err := ParseAxis(name); err != nil || got != want {
			t.Errorf("ParseAxis(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseAxis("namespace"); err == nil {
		t.Error("unsupported axis should error")
	}
}

// randomTree builds a random tree with n element nodes for property tests.
func randomTree(rng *rand.Rand, n int) *Tree {
	names := []string{"a", "b", "c", "d"}
	root := NewElement("root")
	nodes := []*Node{root}
	for i := 1; i < n; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		el := NewElement(names[rng.Intn(len(names))])
		if rng.Intn(4) == 0 {
			el.SetAttr("id", "x")
		}
		if rng.Intn(3) == 0 {
			el.AppendChild(NewText("t"))
		}
		parent.AppendChild(el)
		nodes = append(nodes, el)
	}
	return Finalize(root)
}

// Property: region encoding is consistent — Pre+Size covers exactly the
// subtree, and ancestry through the Parent links, Contains and
// Step(descendant) are one relation.
func TestRegionEncodingProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 2+rng.Intn(60))
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
			desc := map[*Node]bool{}
			for _, m := range Step(n, AxisDescendant, AnyNodeTest()) {
				desc[m] = true
			}
			for _, m := range tr.Nodes() {
				anc := false
				for p := m.Parent; p != nil && !anc; p = p.Parent {
					anc = p == n
				}
				if anc != n.Contains(m) {
					return false
				}
				// The descendant axis leaves attributes out.
				if desc[m] != (anc && m.Kind != AttributeNode) {
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
		tr := randomTree(rng, 2+rng.Intn(40))
		var seq Sequence
		for i := 0; i < rng.Intn(50); i++ {
			seq = append(seq, tr.Nodes()[rng.Intn(len(tr.Nodes()))])
		}
		once, err := DDO(seq)
		if err != nil {
			return false
		}
		if !IsDocOrdered(once) {
			return false
		}
		twice, err := DDO(once)
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
	axes := []Axis{AxisChild, AxisDescendant, AxisDescendantOrSelf, AxisAttribute, AxisSelf,
		AxisParent, AxisAncestor, AxisFollowingSibling, AxisPrecedingSibling, AxisFollowing, AxisPreceding}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 2+rng.Intn(50))
		ctx := tr.Nodes()[rng.Intn(len(tr.Nodes()))]
		axis := axes[rng.Intn(len(axes))]
		test := NameTest([]string{"a", "b", "c", "d"}[rng.Intn(4)])
		got := Step(ctx, axis, test)
		if !IsDocOrdered(SequenceOf(got)) {
			return false
		}
		// Brute force.
		want := map[*Node]bool{}
		for _, m := range tr.Nodes() {
			var onAxis bool
			switch axis {
			case AxisChild:
				onAxis = m.Parent == ctx && m.Kind != AttributeNode
			case AxisDescendant:
				onAxis = ctx.Contains(m) && m.Kind != AttributeNode
			case AxisDescendantOrSelf:
				onAxis = (m == ctx || ctx.Contains(m)) && m.Kind != AttributeNode
			case AxisAttribute:
				onAxis = m.Parent == ctx && m.Kind == AttributeNode
			case AxisSelf:
				onAxis = m == ctx
			case AxisParent:
				onAxis = ctx.Parent == m
			case AxisAncestor:
				onAxis = m.Contains(ctx) && m.Kind != AttributeNode
			case AxisFollowingSibling:
				onAxis = m.Parent == ctx.Parent && m != ctx && m.Kind != AttributeNode &&
					ctx.Kind != AttributeNode && ctx.Parent != nil && m.Pre > ctx.Pre
			case AxisPrecedingSibling:
				onAxis = m.Parent == ctx.Parent && m != ctx && m.Kind != AttributeNode &&
					ctx.Kind != AttributeNode && ctx.Parent != nil && m.Pre < ctx.Pre
			case AxisFollowing:
				onAxis = m.Kind != AttributeNode && m.Pre > ctx.End()
			case AxisPreceding:
				onAxis = m.Kind != AttributeNode && m.Pre < ctx.Pre && !m.Contains(ctx) && m.Pre > 0
			}
			if onAxis && test.Matches(axis, m) {
				want[m] = true
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
