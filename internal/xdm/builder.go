package xdm

import "unsafe"

// TreeBuilder assembles a Tree in one pass, in document order: every column
// of the region encoding is emitted the moment it is known (kind, sym and
// parent at element open, size at element close), names are interned as
// they are first seen, and the values of text and attribute nodes are
// appended in preorder to one blob. That is the whole tree — a node is built
// from it only when someone asks for its rank (Tree.Node), so building an
// n-node tree costs the amortized column appends and nothing per node.
//
// The columns, the text blob and its offsets grow in scratch the builder
// owns; Finish copies them out at their exact size, so a builder kept across
// documents stops growing at its largest one and no two trees share memory.
// Names are the exception: a builder keeps one dictionary for its lifetime,
// so a name is copied to a string the first time any of its documents uses
// it, and every later tree's symbol table shares that string (strings are
// immutable, so sharing them is sharing nothing mutable).
//
// The caller drives it like a SAX handler and must respect document order:
// OpenElement, then that element's Attr calls, then its children (nested
// OpenElement/CloseElement pairs and Text calls), then CloseElement. The
// builder itself performs no well-formedness checking beyond what Depth
// exposes — the xmlstore scanner is responsible for rejecting malformed
// input, and a document whose text values outgrow the u32 offsets
// (TextBytes), before it reaches the builder.
type TreeBuilder struct {
	cols    Cols
	textOff []uint32 // cumulative end of each text value in blob, after a leading 0
	blob    []byte   // the text values, concatenated in preorder
	open    []int32  // preorder ranks of the open elements, document node first

	// The name dictionary lives as long as the builder: names[id] is the
	// owned string of dictionary ID id, and dict is the slot index over
	// names (slotIndex, as a symbol table's), rebuilt at twice the size
	// whenever names outgrows half of it. The tree in progress numbers its
	// names densely in first-occurrence order: dictSym maps a dictionary ID
	// to the tree symbol, NoSym until the tree uses it, and symDict and
	// symNames map a tree symbol back to its dictionary ID and its name.
	// symDict is also the list of dictSym entries to reset when the tree is
	// done.
	dict     []int32
	names    []string
	dictSym  []Sym
	symDict  []int32
	symNames []string
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
		textOff: make([]uint32, 1, nodeHint),
		open:    make([]int32, 0, 32),
	}
	b.dict, _ = slotIndex(nil)
	b.Reset()
	return b
}

// Reset discards the tree in progress, keeping the scratch's capacity and
// the name dictionary, and opens a fresh document node. The scratch holds
// no reference into the previous document's input.
func (b *TreeBuilder) Reset() {
	c := &b.cols
	c.Size, c.Parent, c.Kind, c.Sym = c.Size[:0], c.Parent[:0], c.Kind[:0], c.Sym[:0]
	b.textOff, b.blob = b.textOff[:1], b.blob[:0]
	for _, id := range b.symDict {
		b.dictSym[id] = NoSym
	}
	b.symDict, b.symNames = b.symDict[:0], b.symNames[:0]
	b.open = b.open[:0]
	b.open = append(b.open, b.add(DocumentNode, NoSym))
}

// intern returns the tree symbol of name (still in the scanner's buffer).
// The dictionary probe reads name in place; the name is copied to a string
// only the first time the builder ever sees it.
func (b *TreeBuilder) intern(name []byte) Sym {
	at, v := probe(b.dict, b.names, unsafe.String(unsafe.SliceData(name), len(name)))
	id := v - 1
	if v == 0 {
		id = int32(len(b.names))
		b.names = append(b.names, string(name))
		b.dictSym = append(b.dictSym, NoSym)
		if 2*len(b.names) > len(b.dict) {
			b.dict, _ = slotIndex(b.names) // names are distinct
		} else {
			b.dict[at] = id + 1
		}
	}
	s := b.dictSym[id]
	if s == NoSym {
		s = Sym(len(b.symDict))
		b.dictSym[id] = s
		b.symDict = append(b.symDict, id)
		b.symNames = append(b.symNames, b.names[id])
	}
	return s
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
	return pre
}

// leaf emits a text-bearing node: no subtree, so it is complete at once. Its
// value is copied into the blob, so it need not outlive the call.
func (b *TreeBuilder) leaf(kind Kind, sym Sym, value string) {
	b.add(kind, sym)
	b.blob = append(b.blob, value...)
	b.textOff = append(b.textOff, uint32(len(b.blob)))
}

// TextBytes returns the bytes of text values the tree in progress holds.
// The offsets into them are u32: a caller must stop before this passes
// math.MaxUint32.
func (b *TreeBuilder) TextBytes() int { return len(b.blob) }

// OpenElement starts an element named name (still in the scanner's buffer;
// interned here) as the next child of the current open element.
func (b *TreeBuilder) OpenElement(name []byte) {
	b.open = append(b.open, b.add(ElementNode, b.intern(name)))
}

// Attr adds an attribute to the current open element. Attributes must be
// added before any of the element's children, matching their position in
// the preorder numbering (directly after the owner, before its children).
func (b *TreeBuilder) Attr(name []byte, value string) {
	b.leaf(AttributeNode, b.intern(name), value)
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
	s := b.cols.Sym[b.open[len(b.open)-1]]
	if s < 0 {
		return ""
	}
	return b.symNames[s]
}

// Finish closes the document node and returns the completed tree: the
// three int32 columns cut from one exactly-sized slab, the kinds, the text
// offsets, the text blob (one string) and the symbol names each at their
// exact size, the names the dictionary's, and the two directories install
// derives from them. All elements must have been closed (Depth() == 0); the
// tree must not be mutated afterwards. The builder is Reset, ready for the
// next tree.
func (b *TreeBuilder) Finish() *Tree {
	b.CloseElement()
	c := &b.cols
	n := len(c.Kind)
	slab := make([]int32, 3*n)
	cut := func(k int, src []int32) []int32 {
		dst := slab[k*n : (k+1)*n : (k+1)*n]
		copy(dst, src)
		return dst
	}
	t := &Tree{ID: int(nextTreeID.Add(1))}
	cols := &Cols{Size: cut(0, c.Size), Parent: cut(1, c.Parent), Sym: cut(2, c.Sym), Kind: exact(c.Kind)}
	_ = t.install(exact(b.symNames), cols, exact(b.textOff), string(b.blob)) // tree symbols are distinct
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
