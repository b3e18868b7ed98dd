package xdm

// TreeBuilder assembles a Tree in one pass, in document order: every column
// of the region encoding is emitted the moment it is known (kind, sym and
// parent at element open, size at element close), names are interned as
// they are first seen, and the values of text and attribute nodes are
// collected in preorder. That is the whole tree — a node is built
// from it only when someone asks for its rank (Tree.Node), so building an
// n-node tree costs the amortized column appends and nothing per node.
//
// The columns, text values and intern table grow in scratch the builder
// owns; Finish copies them out at their exact size, so a builder kept across
// documents stops growing at its largest one and no two trees share memory.
//
// The caller drives it like a SAX handler and must respect document order:
// OpenElement, then that element's Attr calls, then its children (nested
// OpenElement/CloseElement pairs and Text calls), then CloseElement. The
// builder itself performs no well-formedness checking beyond what Depth
// exposes — the xmlstore scanner is responsible for rejecting malformed
// input before it reaches the builder.
type TreeBuilder struct {
	cols    Cols
	textOrd []int32
	texts   []string
	syms    Symbols // scratch intern table
	open    []int32 // preorder ranks of the open elements, document node first
}

// minNodeHint floors the column capacity so tiny documents do not start
// with a cascade of regrowths.
const minNodeHint = 64

// NewTreeBuilder returns a builder for a new tree. nodeHint is the expected
// total node count (attributes and texts included) and sizes the cold
// scratch; pass 0 when unknown. The returned builder holds the open document
// node as its base frame.
func NewTreeBuilder(nodeHint int) *TreeBuilder {
	nodeHint = max(nodeHint, minNodeHint)
	b := &TreeBuilder{
		cols: Cols{
			Size:   make([]int32, 0, nodeHint),
			Parent: make([]int32, 0, nodeHint),
			Kind:   make([]uint8, 0, nodeHint),
			Sym:    make([]int32, 0, nodeHint),
		},
		textOrd: make([]int32, 0, nodeHint),
		syms:    *newSymbols(),
		open:    make([]int32, 0, 32),
	}
	b.Reset()
	return b
}

// Reset discards the tree in progress, keeping the scratch's capacity, and
// opens a fresh document node. The scratch keeps no text value afterwards,
// so it holds no reference into the previous document's input.
func (b *TreeBuilder) Reset() {
	c := &b.cols
	c.Size, c.Parent, c.Kind, c.Sym = c.Size[:0], c.Parent[:0], c.Kind[:0], c.Sym[:0]
	b.textOrd = b.textOrd[:0]
	clear(b.texts)
	clear(b.syms.byName)
	clear(b.syms.names)
	b.texts, b.syms.names = b.texts[:0], b.syms.names[:0]
	b.open = b.open[:0]
	b.open = append(b.open, b.add(DocumentNode, NoSym))
}

// add emits the open-time column values of the next node in preorder, a
// child of the innermost open node, and returns its rank. Size is patched
// when the node closes.
func (b *TreeBuilder) add(kind Kind, sym Sym) int32 {
	c := &b.cols
	pre := int32(len(c.Kind))
	parent := int32(-1)
	if len(b.open) > 0 {
		parent = b.open[len(b.open)-1]
	}
	c.Size = append(c.Size, 0)
	c.Parent = append(c.Parent, parent)
	c.Kind = append(c.Kind, uint8(kind))
	c.Sym = append(c.Sym, int32(sym))
	b.textOrd = append(b.textOrd, int32(len(b.texts)))
	return pre
}

// leaf emits a text-bearing node: no subtree, so it is complete at once.
func (b *TreeBuilder) leaf(kind Kind, sym Sym, value string) {
	b.add(kind, sym)
	b.texts = append(b.texts, value)
}

// OpenElement starts an element named name (still in the scanner's buffer;
// interned here) as the next child of the current open element.
func (b *TreeBuilder) OpenElement(name []byte) {
	b.open = append(b.open, b.add(ElementNode, b.syms.internBytes(name)))
}

// Attr adds an attribute to the current open element. Attributes must be
// added before any of the element's children, matching their position in
// the preorder numbering (directly after the owner, before its children).
func (b *TreeBuilder) Attr(name []byte, value string) {
	b.leaf(AttributeNode, b.syms.internBytes(name), value)
}

// Text adds a text node under the current open element.
func (b *TreeBuilder) Text(text string) { b.leaf(TextNode, NoSym, text) }

// CloseElement ends the current open element: its region size is now known.
func (b *TreeBuilder) CloseElement() {
	c := &b.cols
	pre := b.open[len(b.open)-1]
	c.Size[pre] = int32(len(c.Kind)) - 1 - pre
	b.open = b.open[:len(b.open)-1]
}

// Depth returns the number of open elements (the document node excluded).
func (b *TreeBuilder) Depth() int { return len(b.open) - 1 }

// CurrentName returns the name of the innermost open element, "" at the
// document level (the scanner's end-tag matching and error messages).
func (b *TreeBuilder) CurrentName() string {
	return b.syms.Name(Sym(b.cols.Sym[b.open[len(b.open)-1]]))
}

// Finish closes the document node and returns the completed tree: the four
// int32 columns (the text ordinal included) cut from one exactly-sized slab,
// the kinds, text values and symbol table each at their exact size. All
// elements must have been closed (Depth() == 0); the tree must not be
// mutated afterwards. The builder is Reset, ready for the next tree.
func (b *TreeBuilder) Finish() *Tree {
	b.CloseElement()
	c := &b.cols
	n := len(c.Kind)
	slab := make([]int32, 4*n)
	cut := func(k int, src []int32) []int32 {
		dst := slab[k*n : (k+1)*n : (k+1)*n]
		copy(dst, src)
		return dst
	}
	t := &Tree{
		ID:   int(nextTreeID.Add(1)),
		Syms: symbolsOf(exact(b.syms.names)),
		Cols: &Cols{
			Size: cut(0, c.Size), Parent: cut(1, c.Parent), Sym: cut(2, c.Sym), Kind: exact(c.Kind),
		},
		texts:   exact(b.texts),
		textOrd: cut(3, b.textOrd),
	}
	b.Reset()
	return t
}

// exact copies s into a new slice whose capacity is its length (append-based
// cloning rounds the capacity up to the allocator's size class).
func exact[T any](s []T) []T {
	out := make([]T, len(s))
	copy(out, s)
	return out
}
