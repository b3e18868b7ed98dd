package xdm

// The pointer data model's axis step, kept as the reference the column Step
// is held to (TestStepMatchesPointerReference): it walks the Parent/Children
// /Attrs links only a Finalize-built tree carries.

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

// refStep performs a navigational axis step from a single context node of a
// Finalize-built tree and returns the matching nodes in document order,
// duplicate-free.
func refStep(ctx *Node, axis Axis, test NodeTest) []*Node {
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
		nodes := ctx.Doc.Nodes()
		for pre := ctx.End() + 1; pre < len(nodes); pre++ {
			n := nodes[pre]
			if n.Kind == AttributeNode {
				continue
			}
			if test.Matches(axis, n) {
				out = append(out, n)
			}
		}
	case AxisPreceding:
		// All nodes strictly before ctx that are not its ancestors.
		nodes := ctx.Doc.Nodes()
		for pre := 1; pre < ctx.Pre; pre++ {
			n := nodes[pre]
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
