package xdm

import "fmt"

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

// Matches reports whether node n satisfies the test on the given axis. The
// principal node kind is attribute for the attribute axis and element for
// every other axis.
func (t NodeTest) Matches(axis Axis, n *Node) bool {
	principal := ElementNode
	if axis == AxisAttribute {
		principal = AttributeNode
	}
	switch t.Kind {
	case TestName:
		return n.Kind == principal && n.Name == t.Name
	case TestStar:
		return n.Kind == principal
	case TestNode:
		return true
	case TestText:
		return n.Kind == TextNode
	}
	return false
}

// Step performs a navigational axis step from a single context node and
// returns the matching nodes in document order, duplicate-free. This is the
// primitive that nested-loop evaluation (TreeJoin / NLJoin) is built from.
func Step(ctx *Node, axis Axis, test NodeTest) []*Node {
	var out []*Node
	switch axis {
	case AxisChild:
		for _, c := range ctx.Children {
			if test.Matches(axis, c) {
				out = append(out, c)
			}
		}
	case AxisDescendant:
		appendDescendants(ctx, axis, test, &out)
	case AxisDescendantOrSelf:
		if test.Matches(axis, ctx) {
			out = append(out, ctx)
		}
		appendDescendants(ctx, axis, test, &out)
	case AxisAttribute:
		for _, a := range ctx.Attrs {
			if test.Matches(axis, a) {
				out = append(out, a)
			}
		}
	case AxisSelf:
		if test.Matches(axis, ctx) {
			out = append(out, ctx)
		}
	case AxisParent:
		if ctx.Parent != nil && test.Matches(axis, ctx.Parent) {
			out = append(out, ctx.Parent)
		}
	case AxisAncestor:
		for p := ctx.Parent; p != nil; p = p.Parent {
			if test.Matches(axis, p) {
				out = append(out, p)
			}
		}
		reverseNodes(out)
	case AxisAncestorOrSelf:
		for p := ctx; p != nil; p = p.Parent {
			if test.Matches(axis, p) {
				out = append(out, p)
			}
		}
		reverseNodes(out)
	case AxisFollowingSibling, AxisPrecedingSibling:
		if ctx.Parent == nil || ctx.Kind == AttributeNode {
			return nil
		}
		for _, sib := range ctx.Parent.Children {
			if sib == ctx {
				continue
			}
			after := sib.Pre > ctx.Pre
			if (axis == AxisFollowingSibling) == after && test.Matches(axis, sib) {
				out = append(out, sib)
			}
		}
	case AxisFollowing:
		// All nodes after the end of ctx's subtree, in document order
		// (attributes are not on the following axis).
		for pre := ctx.End() + 1; pre < len(ctx.Doc.nodes); pre++ {
			n := ctx.Doc.nodes[pre]
			if n.Kind == AttributeNode {
				continue
			}
			if test.Matches(axis, n) {
				out = append(out, n)
			}
		}
	case AxisPreceding:
		// All nodes strictly before ctx that are not its ancestors.
		for pre := 1; pre < ctx.Pre; pre++ {
			n := ctx.Doc.nodes[pre]
			if n.Kind == AttributeNode || n.Contains(ctx) {
				continue
			}
			if test.Matches(axis, n) {
				out = append(out, n)
			}
		}
	}
	return out
}

// appendDescendants walks the subtree below ctx in document order,
// appending matching element/text nodes (attributes are not on the
// descendant axis).
func appendDescendants(ctx *Node, axis Axis, test NodeTest, out *[]*Node) {
	for _, c := range ctx.Children {
		if test.Matches(axis, c) {
			*out = append(*out, c)
		}
		appendDescendants(c, axis, test, out)
	}
}

func reverseNodes(ns []*Node) {
	for i, j := 0, len(ns)-1; i < j; i, j = i+1, j-1 {
		ns[i], ns[j] = ns[j], ns[i]
	}
}
