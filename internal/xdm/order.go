package xdm

import (
	"fmt"
	"sort"
)

// CompareOrder compares two nodes in document order: negative if a precedes
// b, zero if identical, positive if a follows b. Nodes from different
// documents are ordered by document ID (a stable, implementation-defined
// order, as permitted by the XDM).
func CompareOrder(a, b *Node) int {
	if a.Doc != b.Doc {
		return a.Doc.ID - b.Doc.ID
	}
	return a.Pre - b.Pre
}

// SortDoc sorts nodes in place into document order.
func SortDoc(ns []*Node) {
	sort.Slice(ns, func(i, j int) bool { return CompareOrder(ns[i], ns[j]) < 0 })
}

// DedupSorted removes adjacent duplicate nodes from a document-ordered
// slice, in place, and returns the shortened slice.
func DedupSorted(ns []*Node) []*Node {
	if len(ns) < 2 {
		return ns
	}
	w := 1
	for i := 1; i < len(ns); i++ {
		if ns[i] != ns[w-1] {
			ns[w] = ns[i]
			w++
		}
	}
	return ns[:w]
}

// DDO implements fs:distinct-doc-order: it sorts a node sequence into
// document order and removes duplicates. It is an error to apply it to a
// sequence containing atomic values.
func DDO(s Sequence) (Sequence, error) {
	ns := make([]*Node, 0, len(s))
	for _, it := range s {
		n, ok := it.(*Node)
		if !ok {
			return nil, fmt.Errorf("xdm: fs:distinct-doc-order applied to atomic value %T", it)
		}
		ns = append(ns, n)
	}
	SortDoc(ns)
	ns = DedupSorted(ns)
	out := make(Sequence, len(ns))
	for i, n := range ns {
		out[i] = n
	}
	return out, nil
}

// IsDocOrdered reports whether a sequence consists solely of nodes in strict
// document order with no duplicates.
func IsDocOrdered(s Sequence) bool {
	var prev *Node
	for _, it := range s {
		n, ok := it.(*Node)
		if !ok {
			return false
		}
		if prev != nil && CompareOrder(prev, n) >= 0 {
			return false
		}
		prev = n
	}
	return true
}

// SequenceOf converts a node slice into a Sequence.
func SequenceOf(ns []*Node) Sequence {
	s := make(Sequence, len(ns))
	for i, n := range ns {
		s[i] = n
	}
	return s
}
