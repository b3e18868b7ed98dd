package xdm

import "fmt"

// FillColumns validates a column set read from a snapshot and installs it
// on t, an unfilled shell tree (NewShellTree): the loader calls it when a
// member's first use forces its parse, so the tree keeps the pointer
// identity every cache is keyed on. No region encoding is recomputed;
// Size/Parent/Kind/Sym come straight from the columns, names are the
// symbol names by ID (a duplicate is an error), and textOff and textBlob
// are the text table of the text-bearing nodes (text and attribute nodes,
// in preorder), laid out as Tree.TextTable returns it. All four are
// retained; the symbol table's slot index and the text directory are
// derived from them (install).
//
// The columns are validated structurally here — regions that nest, each
// parent rank the innermost region around its child, kinds that can nest,
// symbol bounds — so a corrupted snapshot turns into an error at load time
// instead of an out-of-range panic inside a join kernel or a column reader.
// (TreeBuilder output is correct by construction and skips this.)
func (t *Tree) FillColumns(cols *Cols, names []string, textOff []uint32, textBlob string) error {
	n := len(cols.Kind)
	if len(cols.Size) != n || len(cols.Parent) != n || len(cols.Sym) != n {
		return fmt.Errorf("xdm: column lengths disagree")
	}
	if n < 2 {
		return fmt.Errorf("xdm: tree without a document root")
	}
	if Kind(cols.Kind[0]) != DocumentNode || cols.Parent[0] != -1 || Sym(cols.Sym[0]) != NoSym {
		return fmt.Errorf("xdm: rank 0 is not a document node")
	}
	if int(cols.Size[0]) != n-1 {
		return fmt.Errorf("xdm: document region does not span the tree")
	}
	nsyms := int32(len(names))

	// Validate every node against its parent, counting the document node's
	// children and the text-bearing nodes for the invariants checked below.
	// (This pass is about rejecting corrupted columns while errors can still
	// be returned; the column readers trust what passed it.)
	docChildren, nTexts := 0, 0
	// open holds the ranks whose regions contain the current node, innermost
	// last; the document node's region spans the tree, so it is never popped.
	open := make([]int32, 1, 32)
	for i := 1; i < n; i++ {
		for cols.End(open[len(open)-1]) < int32(i) {
			open = open[:len(open)-1]
		}
		p := cols.Parent[i]
		if p != open[len(open)-1] {
			return fmt.Errorf("xdm: node %d has parent rank %d, but the innermost region around it is %d's", i, p, open[len(open)-1])
		}
		if cols.Size[i] < 0 || int(cols.Size[i]) > n-1-i {
			return fmt.Errorf("xdm: node %d region size %d out of range", i, cols.Size[i])
		}
		if cols.End(int32(i)) > cols.End(p) {
			return fmt.Errorf("xdm: node %d region escapes its parent's", i)
		}
		open = append(open, int32(i))
		pk := Kind(cols.Kind[p])
		switch k := Kind(cols.Kind[i]); k {
		case ElementNode:
			if pk != ElementNode && pk != DocumentNode {
				return fmt.Errorf("xdm: element %d under %s parent", i, pk)
			}
			if s := cols.Sym[i]; s < 0 || s >= nsyms {
				return fmt.Errorf("xdm: node %d symbol %d out of range", i, s)
			}
		case AttributeNode:
			if pk != ElementNode {
				return fmt.Errorf("xdm: attribute %d under %s parent", i, pk)
			}
			if s := cols.Sym[i]; s < 0 || s >= nsyms {
				return fmt.Errorf("xdm: node %d symbol %d out of range", i, s)
			}
			if cols.Size[i] != 0 {
				return fmt.Errorf("xdm: attribute %d with non-empty region", i)
			}
			nTexts++
		case TextNode:
			if pk != ElementNode && pk != DocumentNode {
				return fmt.Errorf("xdm: text %d under %s parent", i, pk)
			}
			if Sym(cols.Sym[i]) != NoSym {
				return fmt.Errorf("xdm: text node %d carries a symbol", i)
			}
			if cols.Size[i] != 0 {
				return fmt.Errorf("xdm: text node %d with non-empty region", i)
			}
			nTexts++
		case DocumentNode:
			return fmt.Errorf("xdm: nested document node at rank %d", i)
		default:
			return fmt.Errorf("xdm: invalid node kind %d at rank %d", cols.Kind[i], i)
		}
		if p == 0 {
			docChildren++
		}
	}
	if nTexts != len(textOff)-1 {
		return fmt.Errorf("xdm: %d text values for %d text-bearing nodes", len(textOff)-1, nTexts)
	}
	if textOff[0] != 0 {
		return fmt.Errorf("xdm: text offsets do not start at 0")
	}
	for i := 1; i < len(textOff); i++ {
		if textOff[i] < textOff[i-1] {
			return fmt.Errorf("xdm: text offset %d decreases", i)
		}
	}
	if int64(textOff[nTexts]) != int64(len(textBlob)) {
		return fmt.Errorf("xdm: text offsets end at %d, but the blob holds %d bytes", textOff[nTexts], len(textBlob))
	}
	if docChildren != 1 {
		return fmt.Errorf("xdm: document node must hold exactly one root element")
	}
	if Kind(cols.Kind[1]) != ElementNode {
		return fmt.Errorf("xdm: root of the document is not an element")
	}
	return t.install(names, cols, textOff, textBlob)
}
