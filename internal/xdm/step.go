package xdm

import (
	"fmt"
	"slices"
)

// Axis is an XPath axis. Tree patterns use the forward subset (child,
// descendant, descendant-or-self, attribute, self); the navigational
// evaluator additionally supports the reverse axes so that queries outside
// the tree-pattern fragment still run.
type Axis uint8

// Supported axes.
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisDescendantOrSelf
	AxisAttribute
	AxisSelf
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisFollowingSibling
	AxisPrecedingSibling
	AxisFollowing
	AxisPreceding
)

// String renders the axis in XPath syntax.
func (a Axis) String() string {
	switch a {
	case AxisChild:
		return "child"
	case AxisDescendant:
		return "descendant"
	case AxisDescendantOrSelf:
		return "descendant-or-self"
	case AxisAttribute:
		return "attribute"
	case AxisSelf:
		return "self"
	case AxisParent:
		return "parent"
	case AxisAncestor:
		return "ancestor"
	case AxisAncestorOrSelf:
		return "ancestor-or-self"
	case AxisFollowingSibling:
		return "following-sibling"
	case AxisPrecedingSibling:
		return "preceding-sibling"
	case AxisFollowing:
		return "following"
	case AxisPreceding:
		return "preceding"
	}
	return "axis?"
}

// Forward reports whether the axis only selects nodes at or below the
// context node (the tree-pattern fragment).
func (a Axis) Forward() bool {
	switch a {
	case AxisChild, AxisDescendant, AxisDescendantOrSelf, AxisAttribute, AxisSelf:
		return true
	}
	return false
}

// ParseAxis resolves an axis name (including the common abbreviations used
// in the paper, e.g. "desc") to an Axis.
func ParseAxis(name string) (Axis, error) {
	switch name {
	case "child":
		return AxisChild, nil
	case "descendant", "desc":
		return AxisDescendant, nil
	case "descendant-or-self", "dos":
		return AxisDescendantOrSelf, nil
	case "attribute", "attr":
		return AxisAttribute, nil
	case "self":
		return AxisSelf, nil
	case "parent":
		return AxisParent, nil
	case "ancestor":
		return AxisAncestor, nil
	case "ancestor-or-self":
		return AxisAncestorOrSelf, nil
	case "following-sibling":
		return AxisFollowingSibling, nil
	case "preceding-sibling":
		return AxisPrecedingSibling, nil
	case "following":
		return AxisFollowing, nil
	case "preceding":
		return AxisPreceding, nil
	}
	return 0, fmt.Errorf("xdm: unknown axis %q", name)
}

// TestKind distinguishes node tests.
type TestKind uint8

// Node test kinds.
const (
	TestName TestKind = iota // name test: person (principal node kind of the axis)
	TestStar                 // *
	TestNode                 // node()
	TestText                 // text()
)

// NodeTest is an XPath node test.
type NodeTest struct {
	Kind TestKind
	Name string // for TestName
}

// NameTest returns a node test matching elements (or attributes, on the
// attribute axis) with the given name.
func NameTest(name string) NodeTest { return NodeTest{Kind: TestName, Name: name} }

// StarTest matches any node of the axis' principal kind.
func StarTest() NodeTest { return NodeTest{Kind: TestStar} }

// AnyNodeTest matches any node.
func AnyNodeTest() NodeTest { return NodeTest{Kind: TestNode} }

// TextTest matches text nodes.
func TextTest() NodeTest { return NodeTest{Kind: TestText} }

// String renders the node test in XPath syntax.
func (t NodeTest) String() string {
	switch t.Kind {
	case TestName:
		return t.Name
	case TestStar:
		return "*"
	case TestNode:
		return "node()"
	case TestText:
		return "text()"
	}
	return "test?"
}

// RankTest is a node test compiled against one tree: the name resolved to
// its interned symbol, the principal node kind fixed by the axis. It tests a
// rank on the columns — at most two integer compares — so a candidate is
// accepted or rejected before any node is built for it. The join kernels
// compile one per pattern step; Step and the nested loop's cursor one per
// call.
type RankTest struct {
	kind      TestKind
	principal Kind // element, or attribute on the attribute axis
	sym       Sym  // resolved name; NoSym when absent from the tree
}

// On compiles the test for an axis step in tree t.
func (test NodeTest) On(axis Axis, t *Tree) RankTest {
	m := RankTest{kind: test.Kind, principal: ElementNode, sym: NoSym}
	if axis == AxisAttribute {
		m.principal = AttributeNode
	}
	if test.Kind == TestName {
		m.sym, _ = t.Syms.Lookup(test.Name)
	}
	return m
}

// Empty reports whether the test provably matches nothing in its tree: a
// name test for a name the tree does not hold.
func (m RankTest) Empty() bool { return m.kind == TestName && m.sym == NoSym }

// AnyNode reports whether the test is node(), the one test that also
// matches the document node.
func (m RankTest) AnyNode() bool { return m.kind == TestNode }

// Matches reports whether the node at rank r satisfies the test.
func (m RankTest) Matches(c *Cols, r int32) bool {
	switch m.kind {
	case TestName:
		return c.Sym[r] == int32(m.sym) && c.Kind[r] == uint8(m.principal)
	case TestStar:
		return c.Kind[r] == uint8(m.principal)
	case TestNode:
		return true
	case TestText:
		return c.Kind[r] == uint8(TextNode)
	}
	return false
}

// Step performs a navigational axis step from a single context node and
// returns the matching nodes in document order, duplicate-free. This is the
// primitive that nested-loop evaluation (TreeJoin / NLJoin) is built from.
// The axes are rank arithmetic over the context's tree columns, and a node
// is built for each match only; a detached node (no tree) has no axes.
func Step(ctx *Node, axis Axis, test NodeTest) []*Node {
	return appendStep([]*Node(nil), ctx, axis, test, func(n *Node) *Node { return n })
}

// AppendStep is Step appending its matches to dst.
func AppendStep(dst Sequence, ctx *Node, axis Axis, test NodeTest) Sequence {
	return appendStep(dst, ctx, axis, test, func(n *Node) Item { return n })
}

// appendStep appends the matches of the step to out, each as elem(node).
func appendStep[E any](out []E, ctx *Node, axis Axis, test NodeTest, elem func(*Node) E) []E {
	t := ctx.Doc
	if t == nil {
		return out
	}
	m := test.On(axis, t)
	if m.Empty() {
		return out
	}
	c := t.Cols
	r := int32(ctx.Pre)
	start := len(out)
	add := func(p int32) {
		if m.Matches(c, p) {
			out = append(out, elem(t.Node(p)))
		}
	}
	switch axis {
	case AxisChild:
		for ch := c.FirstChild(r); ch <= c.End(r); ch = c.NextSibling(ch) {
			add(ch)
		}
	case AxisDescendant, AxisDescendantOrSelf:
		if axis == AxisDescendantOrSelf {
			add(r)
		}
		for d := r + 1; d <= c.End(r); d++ {
			if Kind(c.Kind[d]) != AttributeNode {
				add(d)
			}
		}
	case AxisAttribute:
		for a := r + 1; a <= c.End(r) && Kind(c.Kind[a]) == AttributeNode; a++ {
			add(a)
		}
	case AxisSelf:
		add(r)
	case AxisParent:
		if p := c.Parent[r]; p >= 0 {
			add(p)
		}
	case AxisAncestor, AxisAncestorOrSelf:
		p := c.Parent[r]
		if axis == AxisAncestorOrSelf {
			p = r
		}
		for ; p >= 0; p = c.Parent[p] {
			add(p)
		}
		slices.Reverse(out[start:])
	case AxisFollowingSibling, AxisPrecedingSibling:
		p := c.Parent[r]
		if p < 0 || Kind(c.Kind[r]) == AttributeNode {
			return out
		}
		if axis == AxisFollowingSibling {
			for s := c.NextSibling(r); s <= c.End(p); s = c.NextSibling(s) {
				add(s)
			}
		} else {
			for s := c.FirstChild(p); s < r; s = c.NextSibling(s) {
				add(s)
			}
		}
	case AxisFollowing:
		// All nodes after the end of ctx's region, in document order
		// (attributes are not on the following axis).
		for f := c.End(r) + 1; int(f) < len(c.Kind); f++ {
			if Kind(c.Kind[f]) != AttributeNode {
				add(f)
			}
		}
	case AxisPreceding:
		// All nodes strictly before ctx that are not its ancestors.
		for p := int32(1); p < r; p++ {
			if Kind(c.Kind[p]) != AttributeNode && !c.Contains(p, r) {
				add(p)
			}
		}
	}
	return out
}
