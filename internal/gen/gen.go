// Package gen produces the synthetic documents used by the paper's
// evaluation:
//
//   - MemBeR-style documents (Table 1): random trees of a fixed depth with a
//     configurable number of uniformly distributed tags, scaled to a target
//     serialized size;
//   - XMark-like auction documents (Fig. 4, Fig. 6): the element hierarchy
//     of the XMark benchmark that the evaluated queries touch;
//   - the deep single-tag document of §5.3.
//
// All generators are deterministic given their seed, so experiments are
// reproducible. The real MemBeR/XMark data sets are not redistributable;
// DESIGN.md documents why these synthetic equivalents preserve the behaviour
// the experiments measure.
package gen

import (
	"fmt"
	"math/rand"

	"xqtp/internal/xdm"
)

// MemberConfig parameterizes the MemBeR-style generator.
type MemberConfig struct {
	Seed     int64
	Depth    int // tree depth below the root element (the paper uses 4)
	NumTags  int // number of distinct tags, uniformly distributed (paper: 100)
	NumNodes int // total number of element nodes to generate
}

// Member generates a MemBeR-style document: a random tree with exactly
// cfg.Depth levels below the root and cfg.NumNodes elements whose tags are
// drawn uniformly from t01..tNN.
func Member(cfg MemberConfig) *xdm.Tree {
	if cfg.Depth <= 0 {
		cfg.Depth = 4
	}
	if cfg.NumTags <= 0 {
		cfg.NumTags = 100
	}
	if cfg.NumNodes <= 0 {
		cfg.NumNodes = 1000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	names := make([][]byte, 1+cfg.NumTags) // "root", then t01..tNN
	names[0] = []byte("root")
	for i := 1; i < len(names); i++ {
		names[i] = fmt.Appendf(nil, "t%02d", i)
	}
	els := newElements(names, cfg.NumNodes+1)
	root := els.add(0, -1)
	// Track candidate parents per level (level of root = 0 here).
	levels := make([][]int32, cfg.Depth)
	levels[0] = []int32{root}
	made := 0
	for made < cfg.NumNodes {
		// Pick a level whose nodes may still have children, biased toward
		// deeper levels so the bulk of the nodes sits near the leaves (the
		// shape of a bulk-loaded shallow document).
		l := rng.Intn(cfg.Depth)
		if levels[l] == nil || len(levels[l]) == 0 {
			l = 0
		}
		parent := levels[l][rng.Intn(len(levels[l]))]
		el := els.add(1+rng.Intn(cfg.NumTags), parent)
		made++
		if l+1 < cfg.Depth {
			levels[l+1] = append(levels[l+1], el)
		}
	}
	return els.build()
}

// MemberRoot returns the root element of Member(cfg), for callers that
// serialize the document (xmlstore.AppendXML) instead of querying it, e.g.
// the ingest benchmark streaming generated XML straight into the scanner.
func MemberRoot(cfg MemberConfig) *xdm.Node { return Member(cfg).DocElem() }

// MemberForSize generates a MemBeR-style document whose serialized size is
// approximately targetBytes (the paper's 2.1–11 MB series). The element
// count is derived from the average serialized node width of the generator's
// output (measured: ≈ 9 bytes per element).
func MemberForSize(seed int64, targetBytes int) *xdm.Tree {
	const bytesPerNode = 9
	return Member(MemberConfig{
		Seed:     seed,
		Depth:    4,
		NumTags:  100,
		NumNodes: targetBytes / bytesPerNode,
	})
}

// Deep generates the §5.3 document: numNodes elements, maximum depth
// maxDepth, every element named tag. A full-depth spine is created first so
// that first-child chains reach the maximum depth, then the remaining nodes
// are attached at random levels.
func Deep(seed int64, numNodes, maxDepth int, tag string) *xdm.Tree {
	rng := rand.New(rand.NewSource(seed))
	els := newElements([][]byte{[]byte(tag)}, numNodes)
	root := els.add(0, -1)
	levels := make([][]int32, maxDepth)
	levels[0] = []int32{root}
	made := 1
	// Spine: one chain from the root down to maxDepth.
	cur := root
	for l := 1; l < maxDepth && made < numNodes; l++ {
		cur = els.add(0, cur)
		levels[l] = append(levels[l], cur)
		made++
	}
	for made < numNodes {
		l := rng.Intn(maxDepth - 1)
		parent := levels[l][rng.Intn(len(levels[l]))]
		levels[l+1] = append(levels[l+1], els.add(0, parent))
		made++
	}
	return els.build()
}

// DeepRoot returns the root element of Deep (see MemberRoot).
func DeepRoot(seed int64, numNodes, maxDepth int, tag string) *xdm.Node {
	return Deep(seed, numNodes, maxDepth, tag).DocElem()
}

// elements records a tree of elements in the order the generator creates
// them, which is not document order: a child may be attached to any element
// made earlier. Element i has name names[name[i]] and parent element
// parent[i] (-1 for the root); children keep the order of their attachment.
type elements struct {
	names        [][]byte
	name, parent []int32
}

func newElements(names [][]byte, hint int) *elements {
	return &elements{names: names, name: make([]int32, 0, hint), parent: make([]int32, 0, hint)}
}

// add records a new element named names[name] as the last child of parent
// and returns its index.
func (s *elements) add(name int, parent int32) int32 {
	s.name = append(s.name, int32(name))
	s.parent = append(s.parent, parent)
	return int32(len(s.name) - 1)
}

// build emits the elements through a TreeBuilder in preorder: element 0 is
// the root, and each element's children follow in attachment order.
func (s *elements) build() *xdm.Tree {
	n := len(s.parent)
	// The children of element p are kids[first[p]:first[p+1]], in creation
	// order (a counting sort by parent, which keeps ties in order).
	first := make([]int32, n+1)
	for _, p := range s.parent[1:] {
		first[p+1]++
	}
	for i := 1; i <= n; i++ {
		first[i] += first[i-1]
	}
	kids := make([]int32, n)
	next := append([]int32(nil), first[:n]...)
	for i, p := range s.parent[1:] {
		kids[next[p]] = int32(i + 1)
		next[p]++
	}
	b := xdm.NewTreeBuilder(n + 1)
	b.OpenElement(s.names[s.name[0]])
	// next[e] is now reused as element e's next unvisited child position.
	copy(next, first[:n])
	open := []int32{0}
	for len(open) > 0 {
		e := open[len(open)-1]
		if next[e] == first[e+1] {
			b.CloseElement()
			open = open[:len(open)-1]
			continue
		}
		c := kids[next[e]]
		next[e]++
		b.OpenElement(s.names[s.name[c]])
		open = append(open, c)
	}
	return b.Finish()
}
