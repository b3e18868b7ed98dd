package xdm

// TreeBuilder assembles a Tree in one pass, in document order: every column
// of the region encoding is emitted the moment it is known (pre, level,
// kind, sym, parent at element open; post and size at element close), names
// are interned as they are first seen, and the values of text and attribute
// nodes are collected in preorder. That is the whole tree — a node is built
// from it only when someone asks for its rank (Tree.Node), so building an
// n-node tree costs the amortized column appends and nothing per node.
//
// The caller drives it like a SAX handler and must respect document order:
// OpenElement, then that element's Attr calls, then its children (nested
// OpenElement/CloseElement pairs and Text calls), then CloseElement. The
// builder itself performs no well-formedness checking beyond what Depth
// exposes — the xmlstore scanner is responsible for rejecting malformed
// input before it reaches the builder.
type TreeBuilder struct {
	t    *Tree
	post int32
	open []int32 // preorder ranks of the open elements, document node first
}

// minNodeHint floors the column capacity so tiny documents do not start
// with a cascade of regrowths.
const minNodeHint = 64

// NewTreeBuilder returns a builder for a new tree. nodeHint is the expected
// total node count (attributes and texts included) and sizes the columns;
// pass 0 when unknown. The returned builder holds the open document node as
// its base frame.
func NewTreeBuilder(nodeHint int) *TreeBuilder {
	nodeHint = max(nodeHint, minNodeHint)
	b := &TreeBuilder{
		t: &Tree{
			ID:   int(nextTreeID.Add(1)),
			Syms: newSymbols(),
			Cols: &Cols{
				Post:   make([]int32, 0, nodeHint),
				Size:   make([]int32, 0, nodeHint),
				Level:  make([]int32, 0, nodeHint),
				Parent: make([]int32, 0, nodeHint),
				Kind:   make([]uint8, 0, nodeHint),
				Sym:    make([]int32, 0, nodeHint),
			},
			textOrd: make([]int32, 0, nodeHint),
		},
		open: make([]int32, 0, 32),
	}
	b.open = append(b.open, b.add(DocumentNode, NoSym))
	return b
}

// add emits the open-time column values of the next node in preorder, a
// child of the innermost open node, and returns its rank. Post and Size are
// patched when the node closes.
func (b *TreeBuilder) add(kind Kind, sym Sym) int32 {
	c := b.t.Cols
	pre := int32(len(c.Kind))
	parent := int32(-1)
	if len(b.open) > 0 {
		parent = b.open[len(b.open)-1]
	}
	c.Post = append(c.Post, -1)
	c.Size = append(c.Size, 0)
	c.Level = append(c.Level, int32(len(b.open))) // document node is level 0
	c.Parent = append(c.Parent, parent)
	c.Kind = append(c.Kind, uint8(kind))
	c.Sym = append(c.Sym, int32(sym))
	b.t.textOrd = append(b.t.textOrd, int32(len(b.t.texts)))
	return pre
}

// leaf emits a text-bearing node: no subtree, so its postorder rank is known
// at once.
func (b *TreeBuilder) leaf(kind Kind, sym Sym, value string) {
	pre := b.add(kind, sym)
	b.t.Cols.Post[pre] = b.post
	b.post++
	b.t.texts = append(b.t.texts, value)
}

// OpenElement starts an element named name (still in the scanner's buffer;
// interned here) as the next child of the current open element.
func (b *TreeBuilder) OpenElement(name []byte) {
	b.open = append(b.open, b.add(ElementNode, b.t.Syms.internBytes(name)))
}

// Attr adds an attribute to the current open element. Attributes must be
// added before any of the element's children, matching their position in
// the preorder numbering (directly after the owner, before its children).
func (b *TreeBuilder) Attr(name []byte, value string) {
	b.leaf(AttributeNode, b.t.Syms.internBytes(name), value)
}

// Text adds a text node under the current open element.
func (b *TreeBuilder) Text(text string) { b.leaf(TextNode, NoSym, text) }

// CloseElement ends the current open element: its postorder rank and region
// size are now known.
func (b *TreeBuilder) CloseElement() {
	c := b.t.Cols
	pre := b.open[len(b.open)-1]
	c.Post[pre] = b.post
	b.post++
	c.Size[pre] = int32(len(c.Kind)) - 1 - pre
	b.open = b.open[:len(b.open)-1]
}

// Depth returns the number of open elements (the document node excluded).
func (b *TreeBuilder) Depth() int { return len(b.open) - 1 }

// CurrentName returns the name of the innermost open element, "" at the
// document level (the scanner's end-tag matching and error messages).
func (b *TreeBuilder) CurrentName() string {
	return b.t.Syms.Name(Sym(b.t.Cols.Sym[b.open[len(b.open)-1]]))
}

// Finish closes the document node and returns the completed tree. All
// elements must have been closed (Depth() == 0); the tree must not be
// mutated afterwards. The builder must not be reused.
func (b *TreeBuilder) Finish() *Tree {
	b.CloseElement()
	return b.t
}
