package xdm

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the node kinds of the supported XDM fragment.
type Kind uint8

// Node kinds.
const (
	DocumentNode Kind = iota
	ElementNode
	AttributeNode
	TextNode
)

// String names the node kind.
func (k Kind) String() string {
	switch k {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case AttributeNode:
		return "attribute"
	case TextNode:
		return "text"
	}
	return "unknown"
}

// Node is a node in an XML tree. Nodes have identity (pointer identity) and
// carry a region encoding assigned by Finalize:
//
//	Pre    preorder rank in the document (document node = 0); attributes are
//	       numbered directly after their owner element, before its children
//	Size   number of nodes in the subtree below (attributes included), so a
//	       node n contains node d iff n.Pre < d.Pre && d.Pre <= n.Pre+n.Size
//	Post   postorder rank
//	Level  depth (document node = 0)
type Node struct {
	Kind     Kind
	Name     string // element/attribute name
	Text     string // text content (text and attribute nodes)
	Parent   *Node
	Children []*Node // element and text children, in document order
	Attrs    []*Node // attribute nodes

	Pre, Post, Size, Level int
	Sym                    Sym // interned Name (assigned by Finalize; NoSym if unnamed)
	Doc                    *Tree
}

// Tree is a document: its region encoding as columns (Cols), its interned
// names (Syms) and the string values of its text-bearing nodes. That is all a
// loader builds and all the join kernels read. The pointer data model — one
// Node per rank with Parent/Children/Attrs links — is derived from the
// columns by materialize, once, the first time a forcing accessor (RootNode,
// Nodes, Materialize, DocElem) is asked for a *Node; a tree nobody navigates
// never allocates one. Finalize is the exception: it adopts the caller's
// hand-built nodes and derives the columns from them.
type Tree struct {
	ID   int      // document identifier for cross-document ordering
	Syms *Symbols // interned element/attribute names (immutable once built)
	Cols *Cols    // structure-of-arrays region encoding, indexed by Pre

	texts []string     // values of the text and attribute nodes, in preorder
	load  func() error // shell trees: fills Cols/Syms/texts on first use
	once  sync.Once    // gates load + materialize
	root  *Node        // the document node
	nodes []*Node      // all nodes, indexed by Pre
}

// force builds the pointer data model on first call. Safe for concurrent
// use: Once.Do publishes root/nodes to every caller of a forcing accessor.
//
// On a shell tree the loader runs first. force cannot return an error, so a
// failed load installs a minimal placeholder document: navigation through a
// poisoned tree yields an empty document rather than a nil-pointer crash,
// and the loader's own sticky error (xmlstore's Index.Ensure) surfaces at
// the error-returning boundaries (prepare, resolve).
func (t *Tree) force() {
	t.once.Do(func() {
		if t.load != nil && t.load() != nil {
			t.poison()
			return
		}
		t.materialize()
	})
}

// poison installs a minimal two-node document (document node over one empty
// element) after a failed deferred load, so pointer navigation stays safe.
// Cols stays nil; queries reach the load error before any kernel touches
// the columns.
func (t *Tree) poison() {
	doc := &Node{Kind: DocumentNode, Sym: NoSym, Size: 1, Post: 1, Doc: t}
	el := &Node{Kind: ElementNode, Sym: NoSym, Pre: 1, Level: 1, Parent: doc, Doc: t}
	doc.Children = []*Node{el}
	t.root = doc
	t.nodes = []*Node{doc, el}
	if t.Syms == nil {
		t.Syms = newSymbols()
	}
}

// NewShellTree returns an empty tree whose columns, symbols and text values
// arrive later through load. The snapshot loader builds one shell per member
// at open time: the shell gives the corpus layer a stable identity (tree
// pointer and ID, the keys of the catalog and preparation caches) while the
// member's bytes stay untouched on disk. load runs at most once, under the
// same once gate as materialization; it must fill the tree (FillColumns)
// before returning nil.
func NewShellTree(load func() error) *Tree {
	return &Tree{ID: int(nextTreeID.Add(1)), load: load}
}

// RootNode returns the document node, building the tree's nodes on first use.
func (t *Tree) RootNode() *Node {
	t.force()
	return t.root
}

// Nodes returns every node indexed by preorder rank, building them on first
// use. The slice is shared and must not be modified.
func (t *Tree) Nodes() []*Node {
	t.force()
	return t.nodes
}

// TextValues returns the values of the text-bearing nodes (text and
// attribute nodes) in preorder — what the snapshot writer stores beside the
// columns. It never builds a node.
func (t *Tree) TextValues() []string { return t.texts }

// Cols is the structure-of-arrays mirror of the tree's region encoding: one
// flat column per encoding field, all indexed by preorder rank. The columns
// are the native currency of the set-at-a-time join kernels — a containment
// test is two int32 compares against Size, with no Node pointer ever
// dereferenced — and they pack ~21 bytes per node against the cache instead
// of scattering the encoding across heap objects. Built by Finalize;
// immutable afterwards.
type Cols struct {
	Post   []int32
	Size   []int32
	Level  []int32
	Parent []int32 // preorder rank of the parent; -1 for the document node
	Kind   []uint8
	Sym    []int32 // interned name; int32(NoSym) for document and text nodes
}

// End returns the last preorder rank inside node n's region.
func (c *Cols) End(n int32) int32 { return n + c.Size[n] }

// Contains reports whether d is a proper descendant of a (both pre ranks of
// one tree; attributes of a contained element count as contained).
func (c *Cols) Contains(a, d int32) bool { return a < d && d <= a+c.Size[a] }

// FirstChild returns the preorder rank of n's first non-attribute child, or
// end+1 ranks past the region when n has none. Iterate children columnar
// style with NextSibling:
//
//	for ch := c.FirstChild(n); ch <= c.End(n); ch = c.NextSibling(ch) { ... }
func (c *Cols) FirstChild(n int32) int32 {
	ch := n + 1
	end := c.End(n)
	for ch <= end && Kind(c.Kind[ch]) == AttributeNode {
		ch++
	}
	return ch
}

// NextSibling returns the preorder rank directly after n's region — n's next
// sibling whenever one exists under the same parent.
func (c *Cols) NextSibling(n int32) int32 { return n + c.Size[n] + 1 }

// NewElement returns a detached element node.
func NewElement(name string) *Node { return &Node{Kind: ElementNode, Name: name} }

// NewText returns a detached text node.
func NewText(text string) *Node { return &Node{Kind: TextNode, Text: text} }

// NewAttr returns a detached attribute node.
func NewAttr(name, value string) *Node {
	return &Node{Kind: AttributeNode, Name: name, Text: value}
}

// AppendChild appends c (an element or text node) to n and sets its parent.
func (n *Node) AppendChild(c *Node) *Node {
	c.Parent = n
	n.Children = append(n.Children, c)
	return n
}

// SetAttr appends an attribute node to n.
func (n *Node) SetAttr(name, value string) *Node {
	a := NewAttr(name, value)
	a.Parent = n
	n.Attrs = append(n.Attrs, a)
	return n
}

var nextTreeID atomic.Int64

// Finalize wraps root (an element) in a document node, assigns region
// encodings to every node and returns the resulting Tree, which adopts the
// caller's nodes as its pointer model. It is the independent reference the
// TreeBuilder + materialize path is tested against. The tree must not be
// mutated afterwards.
func Finalize(root *Node) *Tree {
	doc := &Node{Kind: DocumentNode, Sym: NoSym}
	doc.AppendChild(root)
	t := &Tree{root: doc, ID: int(nextTreeID.Add(1)), Syms: newSymbols()}
	pre, post := 0, 0
	var walk func(n *Node, level int)
	walk = func(n *Node, level int) {
		n.Pre = pre
		n.Level = level
		n.Doc = t
		switch n.Kind {
		case ElementNode, AttributeNode:
			n.Sym = t.Syms.intern(n.Name)
		default:
			n.Sym = NoSym
		}
		if n.Kind == TextNode {
			t.texts = append(t.texts, n.Text)
		}
		pre++
		t.nodes = append(t.nodes, n)
		for _, a := range n.Attrs {
			a.Pre = pre
			a.Level = level + 1
			a.Doc = t
			a.Sym = t.Syms.intern(a.Name)
			a.Size = 0
			a.Post = post
			post++
			pre++
			t.nodes = append(t.nodes, a)
			t.texts = append(t.texts, a.Text)
		}
		for _, c := range n.Children {
			walk(c, level+1)
		}
		n.Post = post
		post++
		n.Size = pre - n.Pre - 1
	}
	walk(doc, 0)
	t.buildCols()
	t.once.Do(func() {}) // the nodes are the caller's: nothing left to force
	return t
}

// buildCols fills the structure-of-arrays mirror from the finalized nodes.
func (t *Tree) buildCols() {
	n := len(t.nodes)
	c := &Cols{
		Post:   make([]int32, n),
		Size:   make([]int32, n),
		Level:  make([]int32, n),
		Parent: make([]int32, n),
		Kind:   make([]uint8, n),
		Sym:    make([]int32, n),
	}
	for i, nd := range t.nodes {
		c.Post[i] = int32(nd.Post)
		c.Size[i] = int32(nd.Size)
		c.Level[i] = int32(nd.Level)
		if nd.Parent != nil {
			c.Parent[i] = int32(nd.Parent.Pre)
		} else {
			c.Parent[i] = -1
		}
		c.Kind[i] = uint8(nd.Kind)
		c.Sym[i] = int32(nd.Sym)
	}
	t.Cols = c
}

// Materialize resolves a slice of preorder ranks to the nodes themselves —
// the one place integer results cross back into the pointer data model
// (building it on first use).
func (t *Tree) Materialize(ranks []int32) []*Node {
	if len(ranks) == 0 {
		return nil
	}
	nodes := t.Nodes()
	out := make([]*Node, len(ranks))
	for i, r := range ranks {
		out[i] = nodes[r]
	}
	return out
}

// Contains reports whether d is a proper descendant of n (attributes of a
// contained element count as contained).
func (n *Node) Contains(d *Node) bool {
	return n.Doc == d.Doc && n.Pre < d.Pre && d.Pre <= n.Pre+n.Size
}

// End returns the last preorder rank inside n's region.
func (n *Node) End() int { return n.Pre + n.Size }

// StringValue returns the XPath string value of the node: the concatenation
// of all descendant text for documents and elements, the stored text for
// text and attribute nodes.
func (n *Node) StringValue() string {
	switch n.Kind {
	case TextNode, AttributeNode:
		return n.Text
	}
	var b strings.Builder
	var walk func(*Node)
	walk = func(c *Node) {
		if c.Kind == TextNode {
			b.WriteString(c.Text)
			return
		}
		for _, ch := range c.Children {
			walk(ch)
		}
	}
	walk(n)
	return b.String()
}

// String renders a short human-readable description of the node.
func (n *Node) String() string {
	switch n.Kind {
	case DocumentNode:
		return "document{}"
	case ElementNode:
		return fmt.Sprintf("<%s>[pre=%d]", n.Name, n.Pre)
	case AttributeNode:
		return fmt.Sprintf("@%s=%q", n.Name, n.Text)
	case TextNode:
		return fmt.Sprintf("text(%q)", n.Text)
	}
	return "node?"
}

// CountNodes returns the number of nodes in the tree (including the document
// node and attribute nodes), from the columns: it never builds a node. A
// shell tree that has not loaded (or failed to) counts zero.
func (t *Tree) CountNodes() int {
	if t.Cols == nil {
		return 0
	}
	return len(t.Cols.Kind)
}

// DocElem returns the single element child of the document node, or nil.
func (t *Tree) DocElem() *Node {
	for _, c := range t.RootNode().Children {
		if c.Kind == ElementNode {
			return c
		}
	}
	return nil
}
