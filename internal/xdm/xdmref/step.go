package xdmref

import "xqtp/internal/xdm"

// Matches reports whether node n satisfies test on the given axis. The
// principal node kind is attribute for the attribute axis and element for
// every other axis.
func Matches(test xdm.NodeTest, axis xdm.Axis, n *Node) bool {
	principal := xdm.ElementNode
	if axis == xdm.AxisAttribute {
		principal = xdm.AttributeNode
	}
	switch test.Kind {
	case xdm.TestName:
		return n.Kind == principal && n.Name == test.Name
	case xdm.TestStar:
		return n.Kind == principal
	case xdm.TestNode:
		return true
	case xdm.TestText:
		return n.Kind == xdm.TextNode
	}
	return false
}

// Step performs a navigational axis step from a single context node of a
// finalized tree by its links and returns the matching nodes in document
// order, duplicate-free: the reference xdm.Step is held to.
func Step(ctx *Node, axis xdm.Axis, test xdm.NodeTest) []*Node {
	var out []*Node
	switch axis {
	case xdm.AxisChild:
		for _, c := range ctx.Children {
			if Matches(test, axis, c) {
				out = append(out, c)
			}
		}
	case xdm.AxisDescendant:
		appendDescendants(ctx, axis, test, &out)
	case xdm.AxisDescendantOrSelf:
		if Matches(test, axis, ctx) {
			out = append(out, ctx)
		}
		appendDescendants(ctx, axis, test, &out)
	case xdm.AxisAttribute:
		for _, a := range ctx.Attrs {
			if Matches(test, axis, a) {
				out = append(out, a)
			}
		}
	case xdm.AxisSelf:
		if Matches(test, axis, ctx) {
			out = append(out, ctx)
		}
	case xdm.AxisParent:
		if ctx.Parent != nil && Matches(test, axis, ctx.Parent) {
			out = append(out, ctx.Parent)
		}
	case xdm.AxisAncestor:
		for p := ctx.Parent; p != nil; p = p.Parent {
			if Matches(test, axis, p) {
				out = append(out, p)
			}
		}
		reverseNodes(out)
	case xdm.AxisAncestorOrSelf:
		for p := ctx; p != nil; p = p.Parent {
			if Matches(test, axis, p) {
				out = append(out, p)
			}
		}
		reverseNodes(out)
	case xdm.AxisFollowingSibling, xdm.AxisPrecedingSibling:
		if ctx.Parent == nil || ctx.Kind == xdm.AttributeNode {
			return nil
		}
		for _, sib := range ctx.Parent.Children {
			if sib == ctx {
				continue
			}
			after := sib.Pre > ctx.Pre
			if (axis == xdm.AxisFollowingSibling) == after && Matches(test, axis, sib) {
				out = append(out, sib)
			}
		}
	case xdm.AxisFollowing:
		// All nodes after the end of ctx's subtree, in document order
		// (attributes are not on the following axis).
		nodes := ctx.Doc.Nodes
		for pre := ctx.End() + 1; pre < len(nodes); pre++ {
			n := nodes[pre]
			if n.Kind == xdm.AttributeNode {
				continue
			}
			if Matches(test, axis, n) {
				out = append(out, n)
			}
		}
	case xdm.AxisPreceding:
		// All nodes strictly before ctx that are not its ancestors.
		nodes := ctx.Doc.Nodes
		for pre := 1; pre < ctx.Pre; pre++ {
			n := nodes[pre]
			if n.Kind == xdm.AttributeNode || n.Contains(ctx) {
				continue
			}
			if Matches(test, axis, n) {
				out = append(out, n)
			}
		}
	}
	return out
}

// appendDescendants walks the subtree below ctx in document order,
// appending matching element/text nodes (attributes are not on the
// descendant axis).
func appendDescendants(ctx *Node, axis xdm.Axis, test xdm.NodeTest, out *[]*Node) {
	for _, c := range ctx.Children {
		if Matches(test, axis, c) {
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
