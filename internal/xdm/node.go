package xdm

import (
	"fmt"
	"math/bits"
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

// Node is a view of one rank of a tree's columns: kind, name, symbol and
// text read off them, plus the rank's region encoding:
//
//	Pre    preorder rank in the document (document node = 0); attributes are
//	       numbered directly after their owner element, before its children
//	Size   number of nodes in the subtree below (attributes included), so a
//	       node n contains node d iff n.Pre < d.Pre && d.Pre <= n.Pre+n.Size
//
// Nodes have identity (pointer identity): Tree.Node builds the node of a
// rank once and returns that same pointer on every later request. A node
// has no links of its own; it is navigated through its tree's columns
// (Step, StringValue, the serializer).
type Node struct {
	Kind Kind
	Sym  Sym    // interned Name (NoSym if unnamed)
	Name string // element/attribute name
	Text string // text content (text and attribute nodes)

	Pre, Size int
	Doc       *Tree
}

// Tree is a document: its region encoding as columns (Cols), its interned
// names (Syms) and the string values of its text-bearing nodes. That is all a
// loader builds and all the join kernels read. A *Node is built from the
// columns only when a caller asks for its rank (Node), one at a time, and
// kept in the tree's identity table so every later request for that rank
// returns the same pointer; a tree nobody navigates builds its document node
// and nothing else. Navigation reads the columns (Step, StringValue,
// DocElem, the serializer).
type Tree struct {
	ID   int      // document identifier for cross-document ordering
	Syms *Symbols // interned element/attribute names (immutable once built)
	Cols *Cols    // structure-of-arrays region encoding, indexed by Pre

	// The values of the text and attribute nodes, in preorder, as the
	// snapshot stores them: value i is textBlob[textOff[i]:textOff[i+1]].
	textOff  []uint32
	textBlob string
	textDir  []textBlock          // which ranks bear a text value (derived, never stored)
	load     func() error         // shell trees: fills Cols/Syms/the text table on first use
	once     sync.Once            // gates load
	root     atomic.Pointer[Node] // the document node, built on first request
	// ids is the identity table, one slot per rank, allocated on the first
	// request for a rank other than 0; a slot is published by CAS so racing
	// first requests agree on one node.
	ids atomic.Pointer[[]atomic.Pointer[Node]]
}

// force runs a shell tree's loader, once. Safe for concurrent use: Once.Do
// publishes the columns to every caller. The loader guards its own reads of
// a mapped snapshot, so nothing in the once can fault and leave it settled
// on a half-built tree.
//
// force cannot return an error, so a failed load installs a minimal
// placeholder document: navigation through a poisoned tree yields an empty
// document rather than a nil-pointer crash, and the loader's own sticky
// error (xmlstore's Index.Ensure) surfaces at the error-returning boundaries
// (prepare, resolve).
func (t *Tree) force() {
	t.once.Do(func() {
		if t.load != nil && t.load() != nil {
			t.poison()
		}
	})
}

// rootNode returns the document node, building it on the first request. It
// is built outside force's once: a fault reading a truncated mapping leaves
// the root unbuilt, and the next request faults again.
func (t *Tree) rootNode() *Node {
	if n := t.root.Load(); n != nil {
		return n
	}
	t.root.CompareAndSwap(nil, t.build(0))
	return t.root.Load()
}

// poison installs the columns of a minimal two-node document (document node
// over one empty element named "") after a failed deferred load, so every
// column reader stays in range. The member's index streams stay empty;
// queries reach the load error before any kernel runs.
func (t *Tree) poison() {
	cols := &Cols{Size: []int32{1, 0}, Parent: []int32{-1, 0}, Kind: []uint8{uint8(DocumentNode), uint8(ElementNode)}, Sym: []int32{int32(NoSym), 0}}
	_ = t.install([]string{""}, cols, []uint32{0}, "") // one name: no duplicate
}

// install sets t's columns, names and text table and derives the tree's two
// directories over them: the symbol table's slot index from names and the
// text directory from the Kind column. TreeBuilder.Finish, FillColumns and
// poison build every tree through it. Its one error is a duplicate name.
func (t *Tree) install(names []string, cols *Cols, textOff []uint32, textBlob string) error {
	syms, err := NewSymbols(names)
	if err != nil {
		return err
	}
	t.Syms, t.Cols, t.textOff, t.textBlob = syms, cols, textOff, textBlob
	t.textDir = textDirOf(cols.Kind)
	return nil
}

// textBlock is the text directory's entry for the 64 ranks 64k … 64k+63:
// base counts the text-bearing (text and attribute) ranks before 64k, and
// bit i of bits is set when rank 64k+i bears a text value: 16 bytes per 64
// ranks.
type textBlock struct {
	base int32
	bits uint64
}

// textDirOf derives the text directory of a Kind column.
func textDirOf(kinds []uint8) []textBlock {
	dir := make([]textBlock, (len(kinds)+63)/64)
	n := int32(0)
	for b := range dir {
		var set uint64
		for i, k := range kinds[b*64 : min(b*64+64, len(kinds))] {
			if Kind(k) == TextNode || Kind(k) == AttributeNode {
				set |= 1 << i
			}
		}
		dir[b] = textBlock{base: n, bits: set}
		n += int32(bits.OnesCount64(set))
	}
	return dir
}

// NewShellTree returns an empty tree whose columns, symbols and text table
// arrive later through load. The snapshot loader builds one shell per member
// at open time: the shell gives the corpus layer a stable identity (tree
// pointer and ID, the keys of the catalog and preparation caches) while the
// member's bytes stay untouched on disk. load runs at most once, under the
// same once gate as the document node; it must fill the tree (FillColumns)
// before returning nil.
func NewShellTree(load func() error) *Tree {
	return &Tree{ID: int(nextTreeID.Add(1)), load: load}
}

// RootNode returns the document node.
func (t *Tree) RootNode() *Node { return t.Node(0) }

// Node returns the node at preorder rank r, building it from the columns on
// the first request and returning that same pointer on every later one.
// Safe for concurrent use.
func (t *Tree) Node(r int32) *Node {
	ids := t.ids.Load()
	if ids == nil {
		// Nothing but the root asked for yet; the tree may not be loaded.
		if t.force(); r == 0 {
			return t.rootNode()
		}
		fresh := make([]atomic.Pointer[Node], len(t.Cols.Kind))
		fresh[0].Store(t.rootNode())
		if !t.ids.CompareAndSwap(nil, &fresh) {
			fresh = *t.ids.Load()
		}
		ids = &fresh
	}
	slot := &(*ids)[r]
	if n := slot.Load(); n != nil {
		return n
	}
	if n := t.build(r); slot.CompareAndSwap(nil, n) {
		return n
	}
	return slot.Load()
}

// build makes the node of rank r from the columns, unlinked.
func (t *Tree) build(r int32) *Node {
	c := t.Cols
	n := &Node{Kind: Kind(c.Kind[r]), Pre: int(r), Size: int(c.Size[r]), Sym: Sym(c.Sym[r]), Doc: t}
	if n.Kind == ElementNode || n.Kind == AttributeNode {
		n.Name = t.Syms.Name(n.Sym)
	}
	if n.Kind == TextNode || n.Kind == AttributeNode {
		n.Text = t.Text(r)
	}
	return n
}

// NodesBuilt returns how many of the tree's nodes exist as *Node, the
// document node included — a scan of the identity table for tests and
// diagnostics; it builds nothing.
func (t *Tree) NodesBuilt() int {
	n := 0
	if p := t.ids.Load(); p != nil {
		for i := range *p {
			if (*p)[i].Load() != nil {
				n++
			}
		}
	} else if t.root.Load() != nil {
		n = 1
	}
	return n
}

// Nodes returns every node indexed by preorder rank, building each one —
// a convenience for tests, which defeats the point of the lazy tree.
func (t *Tree) Nodes() []*Node {
	t.force()
	out := make([]*Node, len(t.Cols.Kind))
	for r := range out {
		out[r] = t.Node(int32(r))
	}
	return out
}

// Text returns the value of the text-bearing (text or attribute) node at
// rank r: a slice of the text blob, no copy.
func (t *Tree) Text(r int32) string { return t.textValue(t.TextIndex(r)) }

// TextIndex returns how many ranks before r bear a text value: the index in
// the text table (TextTable) of r's value when r bears one. A reader that
// walks ranks in preorder takes it once and counts on from it.
func (t *Tree) TextIndex(r int32) int {
	b := &t.textDir[r>>6]
	return int(b.base) + bits.OnesCount64(b.bits&(1<<(r&63)-1))
}

// textValue returns value i of the text table.
func (t *Tree) textValue(i int) string { return t.textBlob[t.textOff[i]:t.textOff[i+1]] }

// TextTable returns the values of the text-bearing nodes (text and attribute
// nodes) in preorder as the snapshot stores them: cumulative offsets that
// start at 0, one more than there are values, and the blob they index. Both
// are shared and must not be modified. It never builds a node.
func (t *Tree) TextTable() (off []uint32, blob string) { return t.textOff, t.textBlob }

// Cols is the tree's region encoding as structure-of-arrays: one flat column
// per field, all indexed by preorder rank. The columns are the native
// currency of the set-at-a-time join kernels — a containment test is two
// int32 compares against Size, with no Node pointer ever dereferenced — and
// they pack 13 bytes per node against the cache instead of scattering the
// encoding across heap objects. (pre, size) is the whole region encoding:
// postorder rank and depth would encode the same containment test again.
// Built by TreeBuilder.Finish or FillColumns; immutable afterwards.
type Cols struct {
	Size   []int32
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

var nextTreeID atomic.Int64

// Contains reports whether d is a proper descendant of n (attributes of a
// contained element count as contained).
func (n *Node) Contains(d *Node) bool {
	return n.Doc == d.Doc && n.Pre < d.Pre && d.Pre <= n.Pre+n.Size
}

// End returns the last preorder rank inside n's region.
func (n *Node) End() int { return n.Pre + n.Size }

// StringValue returns the XPath string value of the node: the
// concatenation of all descendant text for documents and elements (read off
// the columns of the node's region, attributes skipped), the stored text for
// text and attribute nodes.
func (n *Node) StringValue() string {
	switch n.Kind {
	case TextNode, AttributeNode:
		return n.Text
	}
	t := n.Doc
	c := t.Cols
	if n.Size == 0 {
		return ""
	}
	var b strings.Builder
	i := t.TextIndex(int32(n.Pre) + 1)
	for r, end := int32(n.Pre)+1, c.End(int32(n.Pre)); r <= end; r++ {
		switch Kind(c.Kind[r]) {
		case TextNode:
			b.WriteString(t.textValue(i))
			i++
		case AttributeNode:
			i++
		}
	}
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
// shell tree that has not loaded counts zero; one whose load failed, its
// placeholder's two.
func (t *Tree) CountNodes() int {
	if t.Cols == nil {
		return 0
	}
	return len(t.Cols.Kind)
}

// DocElem returns the single element child of the document node, or nil.
func (t *Tree) DocElem() *Node {
	t.force()
	c := t.Cols
	for ch := c.FirstChild(0); ch <= c.End(0); ch = c.NextSibling(ch) {
		if Kind(c.Kind[ch]) == ElementNode {
			return t.Node(ch)
		}
	}
	return nil
}
