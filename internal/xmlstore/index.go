package xmlstore

import (
	"sort"

	"xqtp/internal/xdm"
)

// Index holds the access structures built over one document: per-tag element
// streams and per-name attribute streams, each a []int32 slice of preorder
// ranks sorted ascending. These streams are the inputs of the staircase and
// twig join algorithms — the moral equivalent of an element-tag B-tree in a
// disk-based store, flattened to integers so a region scan touches packed
// ranks instead of chasing GC-scanned node pointers (the columns of
// xdm.Tree.Cols carry the per-rank encoding).
//
// Streams are keyed by the tree's interned symbol IDs (xdm.Sym), so a
// resolved name test reaches its stream by a slice index instead of a string
// hash; names absent from the document resolve to the empty stream via the
// symbol-table lookup. The merged streams (node() over elements+text, the
// all-attributes stream) are precomputed once here. An Index is immutable
// after BuildIndex and safe for concurrent readers.
type Index struct {
	Tree *xdm.Tree

	elemBySym [][]int32 // element rank streams, indexed by xdm.Sym
	attrBySym [][]int32 // attribute rank streams, indexed by xdm.Sym
	allElems  []int32
	allText   []int32
	allNodes  []int32 // elements and texts merged by pre (node() stream)
	allAttrs  []int32 // every attribute, by pre (attribute::* stream)

	// lazy is the deferred-load state of a snapshot member (snapshot.go);
	// nil on eagerly built indexes. While unloaded, the streams above are
	// empty and the tree is a shell — Ensure fills them, and the directory
	// probes (StreamLen, NumNodes) answer without forcing it.
	lazy *lazyMember
}

// BuildIndex scans the tree's kind/sym columns twice — once to size every
// stream exactly, once to fill them — and constructs its index without
// touching a single node pointer. Every stream, per-symbol and merged, is
// cut from one exactly-sized slab with a full-slice expression, so filling
// one can never spill into its neighbour. It is the only index builder:
// Ingest, the generators and the tests' reference trees all come through
// here.
func BuildIndex(t *xdm.Tree) *Index {
	nsyms := t.Syms.Len()
	cols := t.Cols
	bySym := make([][]int32, 2*nsyms)
	ix := &Index{
		Tree:      t,
		elemBySym: bySym[:nsyms:nsyms],
		attrBySym: bySym[nsyms:],
	}
	count := make([]int, 2*nsyms) // stream lengths, laid out as bySym
	var nElems, nTexts, nAttrs int
	for pre := range cols.Kind {
		switch xdm.Kind(cols.Kind[pre]) {
		case xdm.ElementNode:
			count[cols.Sym[pre]]++
			nElems++
		case xdm.AttributeNode:
			count[nsyms+int(cols.Sym[pre])]++
			nAttrs++
		case xdm.TextNode:
			nTexts++
		}
	}
	// Per-symbol streams hold every element and attribute once; the merged
	// ones hold elements twice (allElems, allNodes) and texts twice.
	slab := make([]int32, 3*nElems+2*nAttrs+2*nTexts)
	off := 0
	take := func(n int) []int32 {
		s := slab[off : off : off+n]
		off += n
		return s
	}
	for i, n := range count {
		if n > 0 {
			bySym[i] = take(n)
		}
	}
	ix.allElems = take(nElems)
	ix.allText = take(nTexts)
	ix.allNodes = take(nElems + nTexts)
	ix.allAttrs = take(nAttrs)
	// The columns are in preorder, so appending in scan order leaves every
	// stream — including the merged ones — sorted by pre with no sort pass.
	for pre := range cols.Kind {
		r := int32(pre)
		switch xdm.Kind(cols.Kind[pre]) {
		case xdm.ElementNode:
			s := cols.Sym[pre]
			ix.elemBySym[s] = append(ix.elemBySym[s], r)
			ix.allElems = append(ix.allElems, r)
			ix.allNodes = append(ix.allNodes, r)
		case xdm.AttributeNode:
			s := cols.Sym[pre]
			ix.attrBySym[s] = append(ix.attrBySym[s], r)
			ix.allAttrs = append(ix.allAttrs, r)
		case xdm.TextNode:
			ix.allText = append(ix.allText, r)
			ix.allNodes = append(ix.allNodes, r)
		}
	}
	return ix
}

// ElementRanksSym returns the element rank stream for an interned name. Pass
// xdm.NoSym (or any out-of-range symbol) for the empty stream.
func (ix *Index) ElementRanksSym(s xdm.Sym) []int32 {
	if s < 0 || int(s) >= len(ix.elemBySym) {
		return nil
	}
	return ix.elemBySym[s]
}

// AttributeRanksSym returns the attribute rank stream for an interned name.
func (ix *Index) AttributeRanksSym(s xdm.Sym) []int32 {
	if s < 0 || int(s) >= len(ix.attrBySym) {
		return nil
	}
	return ix.attrBySym[s]
}

// ResolveName resolves a name test to this document's symbol ID (xdm.NoSym
// when the name does not occur, i.e. its streams are empty).
func (ix *Index) ResolveName(name string) xdm.Sym {
	s, ok := ix.Tree.Syms.Lookup(name)
	if !ok {
		return xdm.NoSym
	}
	return s
}

// ElementRanks returns the preorder-sorted rank stream matching the test on
// an element axis (child/descendant/...): a single tag stream for a name
// test, all elements for *, all elements and texts for node(), text nodes
// for text(). The returned slice is shared and must not be mutated.
func (ix *Index) ElementRanks(test xdm.NodeTest) []int32 {
	switch test.Kind {
	case xdm.TestName:
		return ix.ElementRanksSym(ix.ResolveName(test.Name))
	case xdm.TestStar:
		return ix.allElems
	case xdm.TestText:
		return ix.allText
	case xdm.TestNode:
		return ix.allNodes
	}
	return nil
}

// AttributeRanks returns the preorder-sorted rank stream of attribute nodes
// matching the test on the attribute axis.
func (ix *Index) AttributeRanks(test xdm.NodeTest) []int32 {
	switch test.Kind {
	case xdm.TestName:
		return ix.AttributeRanksSym(ix.ResolveName(test.Name))
	case xdm.TestStar, xdm.TestNode:
		return ix.allAttrs
	}
	return nil
}

// RanksFor returns the rank stream matching an axis step (element streams
// for element axes, attribute streams for the attribute axis).
func (ix *Index) RanksFor(axis xdm.Axis, test xdm.NodeTest) []int32 {
	if axis == xdm.AxisAttribute {
		return ix.AttributeRanks(test)
	}
	return ix.ElementRanks(test)
}

// RegionRanks narrows a preorder-sorted rank stream to the ranks strictly
// inside the region (pre, end] — the proper descendants of the node with
// that region — using binary search. The result aliases the stream.
func RegionRanks(stream []int32, pre, end int32) []int32 {
	lo := searchRanks(stream, pre+1)
	hi := searchRanks(stream, end+1)
	return stream[lo:hi]
}

// searchRanks returns the first index whose rank is >= x (len(a) when none
// is) — an inlined branch-lean binary search over the sorted rank stream.
func searchRanks(a []int32, x int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Tags returns the distinct element names in the index.
func (ix *Index) Tags() []string {
	var out []string
	for s, stream := range ix.elemBySym {
		if len(stream) > 0 {
			out = append(out, ix.Tree.Syms.Name(xdm.Sym(s)))
		}
	}
	sort.Strings(out)
	return out
}
