// Package xdmref is the linked tree model the column store replaced, kept as
// the independent reference the tests hold the shipped code to. Only test
// files import it; no shipped binary links it (make vet checks).
//
// A Node here carries Parent/Children/Attrs links. Finalize numbers a
// hand-built skeleton in preorder and derives the columns from it, ParseStd
// builds one from encoding/xml's token stream, Step walks the links, and
// AppendLinked serializes by them. Each is an implementation of its own,
// independent of xdm.TreeBuilder, the ingest scanner, xdm.Step and the
// column serializer, which the tests compare against it rank for rank.
package xdmref

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"xqtp/internal/xdm"
)

// Node is a node of a linked tree. Finalize assigns Pre, Size, Sym and Doc.
type Node struct {
	Kind     xdm.Kind
	Name     string // element/attribute name
	Text     string // text content (text and attribute nodes)
	Parent   *Node
	Children []*Node // element and text children, in document order
	Attrs    []*Node // attribute nodes

	Pre, Size int
	Sym       xdm.Sym
	Doc       *Doc
}

// Doc is a finalized document in both representations: its linked nodes by
// preorder rank and the column tree derived from them.
type Doc struct {
	Nodes []*Node   // Nodes[r] has rank r; Nodes[0] is the document node
	Tree  *xdm.Tree // the columns, symbols and text table Finalize derived
}

// NewElement returns a detached element node.
func NewElement(name string) *Node { return &Node{Kind: xdm.ElementNode, Name: name} }

// NewText returns a detached text node.
func NewText(text string) *Node { return &Node{Kind: xdm.TextNode, Text: text} }

// AppendChild appends c (an element or text node) to n and sets its parent.
func (n *Node) AppendChild(c *Node) *Node {
	c.Parent = n
	n.Children = append(n.Children, c)
	return n
}

// SetAttr appends an attribute node to n.
func (n *Node) SetAttr(name, value string) *Node {
	n.Attrs = append(n.Attrs, &Node{Kind: xdm.AttributeNode, Name: name, Text: value, Parent: n})
	return n
}

// Contains reports whether d is a proper descendant of n.
func (n *Node) Contains(d *Node) bool {
	return n.Doc == d.Doc && n.Pre < d.Pre && d.Pre <= n.Pre+n.Size
}

// End returns the last preorder rank inside n's region.
func (n *Node) End() int { return n.Pre + n.Size }

// String renders a short human-readable description of the node.
func (n *Node) String() string {
	switch n.Kind {
	case xdm.DocumentNode:
		return "document{}"
	case xdm.ElementNode:
		return fmt.Sprintf("<%s>[pre=%d]", n.Name, n.Pre)
	case xdm.AttributeNode:
		return fmt.Sprintf("@%s=%q", n.Name, n.Text)
	case xdm.TextNode:
		return fmt.Sprintf("text(%q)", n.Text)
	}
	return "node?"
}

// Finalize wraps root (an element) in a document node, assigns the region
// encoding and symbols to every node by a walk of the links, and derives the
// columns, symbol table and text table from the numbered nodes. The column
// tree is installed through xdm.NewShellTree and FillColumns, which
// validates it. The skeleton must not be mutated afterwards.
func Finalize(root *Node) *Doc {
	doc := &Node{Kind: xdm.DocumentNode, Sym: xdm.NoSym}
	doc.AppendChild(root)
	d := &Doc{}
	byName := map[string]xdm.Sym{}
	var names []string
	intern := func(name string) xdm.Sym {
		s, ok := byName[name]
		if !ok {
			s = xdm.Sym(len(names))
			byName[name] = s
			names = append(names, name)
		}
		return s
	}
	var blob []byte
	textOff := []uint32{0}
	addText := func(s string) {
		blob = append(blob, s...)
		textOff = append(textOff, uint32(len(blob)))
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		n.Pre, n.Doc = len(d.Nodes), d
		switch n.Kind {
		case xdm.ElementNode, xdm.AttributeNode:
			n.Sym = intern(n.Name)
		default:
			n.Sym = xdm.NoSym
		}
		if n.Kind == xdm.TextNode {
			addText(n.Text)
		}
		d.Nodes = append(d.Nodes, n)
		for _, a := range n.Attrs {
			a.Pre, a.Doc, a.Sym, a.Size = len(d.Nodes), d, intern(a.Name), 0
			d.Nodes = append(d.Nodes, a)
			addText(a.Text)
		}
		for _, c := range n.Children {
			walk(c)
		}
		n.Size = len(d.Nodes) - n.Pre - 1
	}
	walk(doc)

	c := &xdm.Cols{
		Size:   make([]int32, len(d.Nodes)),
		Parent: make([]int32, len(d.Nodes)),
		Kind:   make([]uint8, len(d.Nodes)),
		Sym:    make([]int32, len(d.Nodes)),
	}
	for i, n := range d.Nodes {
		c.Size[i] = int32(n.Size)
		c.Parent[i] = -1
		if n.Parent != nil {
			c.Parent[i] = int32(n.Parent.Pre)
		}
		c.Kind[i] = uint8(n.Kind)
		c.Sym[i] = int32(n.Sym)
	}
	var t *xdm.Tree
	var err error
	t = xdm.NewShellTree(func() error {
		err = t.FillColumns(c, names, textOff, string(blob))
		return err
	})
	if t.RootNode(); err != nil {
		panic(err)
	}
	d.Tree = t
	return d
}

// ParseStd reads an XML document from r through encoding/xml and builds the
// linked tree, then Finalize — the slow, well-understood reference for
// xmlstore's scanner, which must produce a bit-identical tree (nodes,
// symbols, columns) for every input this function accepts. Its errors carry
// the xmlstore: prefix of the parser it stands for.
func ParseStd(r io.Reader) (*Doc, error) {
	dec := xml.NewDecoder(r)
	var stack []*Node
	var root *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmlstore: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := NewElement(t.Name.Local)
			for _, a := range t.Attr {
				// Namespace declarations carry no attribute node: xmlns="..."
				// and xmlns:p="..." are dropped. An attribute whose *prefix*
				// resolves to the xmlns space covers both spellings; a plain
				// local name that merely ends in "xmlns" (e.g. p:xmlns) is a
				// real attribute and must be kept.
				if a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns") {
					continue
				}
				el.SetAttr(a.Name.Local, a.Value)
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmlstore: multiple root elements")
				}
				root = el
			} else {
				stack[len(stack)-1].AppendChild(el)
			}
			stack = append(stack, el)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmlstore: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue
			}
			text := string(t)
			if strings.TrimSpace(text) == "" {
				continue
			}
			stack[len(stack)-1].AppendChild(NewText(text))
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmlstore: no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmlstore: unexpected end of input inside <%s>", stack[len(stack)-1].Name)
	}
	return Finalize(root), nil
}

// AppendLinked appends the XML serialization of the subtree rooted at n,
// walking its Children/Attrs links, with escape (xmlstore's escaper) applied
// to text and attribute values.
func AppendLinked(dst []byte, n *Node, escape func(dst []byte, s string, attr bool) []byte) []byte {
	switch n.Kind {
	case xdm.DocumentNode:
		for _, c := range n.Children {
			dst = AppendLinked(dst, c, escape)
		}
		return dst
	case xdm.TextNode:
		return escape(dst, n.Text, false)
	case xdm.AttributeNode:
		dst = append(append(dst, n.Name...), '=', '"')
		return append(escape(dst, n.Text, true), '"')
	}
	dst = append(append(dst, '<'), n.Name...)
	for _, a := range n.Attrs {
		dst = AppendLinked(append(dst, ' '), a, escape)
	}
	if len(n.Children) == 0 {
		return append(dst, '/', '>')
	}
	dst = append(dst, '>')
	for _, c := range n.Children {
		dst = AppendLinked(dst, c, escape)
	}
	dst = append(append(dst, '<', '/'), n.Name...)
	return append(dst, '>')
}
