package xmlstore

import (
	"sort"

	"xqtp/internal/xdm"
)

// Index holds the access structures built over one document: per-tag element
// streams and per-name attribute streams, each a run of preorder ranks
// sorted ascending. These streams are the inputs of the staircase and twig
// join algorithms — the moral equivalent of an element-tag B-tree in a
// disk-based store, flattened to integers so a region scan touches packed
// ranks instead of chasing GC-scanned node pointers (the columns of
// xdm.Tree.Cols carry the per-rank encoding).
//
// Streams are keyed by the tree's interned symbol IDs (xdm.Sym), so a
// resolved name test reaches its stream by two slice indexes instead of a
// string hash; names absent from the document resolve to the empty stream
// via the symbol-table lookup. The per-symbol tables are held as the
// snapshot stores them (symStreams), so a loaded member installs them whole.
// The merged streams (node() over elements+text, the all-attributes stream)
// are precomputed once here. An Index is immutable after BuildIndex and safe
// for concurrent readers.
type Index struct {
	Tree *xdm.Tree

	elems    symStreams // element rank streams, by xdm.Sym
	attrs    symStreams // attribute rank streams, by xdm.Sym
	allElems []int32
	allText  []int32
	allNodes []int32 // elements and texts merged by pre (node() stream)
	allAttrs []int32 // every attribute, by pre (attribute::* stream)

	// lazy is the deferred-load state of a snapshot member (snapshot.go);
	// nil on eagerly built indexes. While unloaded, the streams above are
	// empty and the tree is a shell — Ensure fills them, and the directory
	// probes (StreamLen, NumNodes) answer without forcing it.
	lazy *lazyMember
}

// symStreams is a per-symbol rank stream table in the layout of its two
// snapshot sections (secElemOff/secElemData, secAttrOff/secAttrData):
// symbol s's stream is data[off[s]:off[s+1]], off holding nsyms+1 cumulative
// offsets from 0.
type symStreams struct {
	off  []uint32
	data []int32
}

// stream returns symbol s's stream, nil for a symbol out of the table's
// range (xdm.NoSym included). The full-slice expression keeps an append on
// the result from writing into the next symbol's stream.
func (t *symStreams) stream(s xdm.Sym) []int32 {
	if s < 0 || int(s) >= len(t.off)-1 {
		return nil
	}
	lo, hi := t.off[s], t.off[s+1]
	return t.data[lo:hi:hi]
}

// BuildIndex scans the tree's kind/sym columns twice — once to size every
// stream exactly, once to fill them — and constructs its index without
// touching a single node pointer. Every stream is cut from one exactly-sized
// slab, so filling one can never spill into its neighbour. It is the only
// index builder: Ingest, the generators and the tests' reference trees all
// come through here.
func BuildIndex(t *xdm.Tree) *Index {
	nsyms := t.Syms.Len()
	cols := t.Cols
	off := make([]uint32, 2*(nsyms+1))
	ix := &Index{
		Tree:  t,
		elems: symStreams{off: off[: nsyms+1 : nsyms+1]},
		attrs: symStreams{off: off[nsyms+1:]},
	}
	// Counting pass: symbol s's stream length goes to off[s+1], so the
	// running sums below turn each table into its cumulative offsets.
	var nTexts int
	for pre := range cols.Kind {
		switch xdm.Kind(cols.Kind[pre]) {
		case xdm.ElementNode:
			ix.elems.off[cols.Sym[pre]+1]++
		case xdm.AttributeNode:
			ix.attrs.off[cols.Sym[pre]+1]++
		case xdm.TextNode:
			nTexts++
		}
	}
	for s := 1; s <= nsyms; s++ {
		ix.elems.off[s] += ix.elems.off[s-1]
		ix.attrs.off[s] += ix.attrs.off[s-1]
	}
	nElems, nAttrs := int(ix.elems.off[nsyms]), int(ix.attrs.off[nsyms])
	// The per-symbol tables hold every element and attribute once; the merged
	// streams hold elements twice (allElems, allNodes) and texts twice.
	slab := make([]int32, 3*nElems+2*nAttrs+2*nTexts)
	at := 0
	take := func(n int) []int32 {
		s := slab[at : at+n : at+n]
		at += n
		return s
	}
	ix.elems.data = take(nElems)
	ix.attrs.data = take(nAttrs)
	ix.allElems = take(nElems)[:0]
	ix.allText = take(nTexts)[:0]
	ix.allNodes = take(nElems + nTexts)[:0]
	ix.allAttrs = take(nAttrs)[:0]
	// The columns are in preorder, so filling in scan order leaves every
	// stream — including the merged ones — sorted by pre with no sort pass.
	// off[s] serves as symbol s's fill cursor and ends at its stream's end.
	for pre := range cols.Kind {
		r := int32(pre)
		switch xdm.Kind(cols.Kind[pre]) {
		case xdm.ElementNode:
			s := cols.Sym[pre]
			ix.elems.data[ix.elems.off[s]] = r
			ix.elems.off[s]++
			ix.allElems = append(ix.allElems, r)
			ix.allNodes = append(ix.allNodes, r)
		case xdm.AttributeNode:
			s := cols.Sym[pre]
			ix.attrs.data[ix.attrs.off[s]] = r
			ix.attrs.off[s]++
			ix.allAttrs = append(ix.allAttrs, r)
		case xdm.TextNode:
			ix.allText = append(ix.allText, r)
			ix.allNodes = append(ix.allNodes, r)
		}
	}
	// Each cursor sits at the start of the next stream: shift them back one.
	for _, o := range [][]uint32{ix.elems.off, ix.attrs.off} {
		copy(o[1:nsyms+1], o[:nsyms])
		o[0] = 0
	}
	return ix
}

// ElementRanksSym returns the element rank stream for an interned name. Pass
// xdm.NoSym (or any out-of-range symbol) for the empty stream.
func (ix *Index) ElementRanksSym(s xdm.Sym) []int32 { return ix.elems.stream(s) }

// AttributeRanksSym returns the attribute rank stream for an interned name.
func (ix *Index) AttributeRanksSym(s xdm.Sym) []int32 { return ix.attrs.stream(s) }

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
	for s := 0; s < len(ix.elems.off)-1; s++ {
		if ix.elems.off[s+1] > ix.elems.off[s] {
			out = append(out, ix.Tree.Syms.Name(xdm.Sym(s)))
		}
	}
	sort.Strings(out)
	return out
}
