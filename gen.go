package xqtp

import (
	"xqtp/internal/gen"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// generated wraps a generator's tree as a standalone document.
func generated(t *xdm.Tree) *Document {
	d, _ := newDocument(xmlstore.BuildIndex(t), nil)
	return d
}

// NewMemberDocument generates a MemBeR-style synthetic document (Table 1's
// workload): a random tree of depth 4 with 100 uniformly distributed tags,
// sized to approximately targetBytes of serialized XML.
func NewMemberDocument(seed int64, targetBytes int) *Document {
	return generated(gen.MemberForSize(seed, targetBytes))
}

// NewMemberDocumentNodes generates a MemBeR-style document with an explicit
// shape: depth levels, numTags distinct tags, numNodes elements.
func NewMemberDocumentNodes(seed int64, depth, numTags, numNodes int) *Document {
	return generated(gen.Member(gen.MemberConfig{
		Seed: seed, Depth: depth, NumTags: numTags, NumNodes: numNodes,
	}))
}

// NewXMarkDocument generates an XMark-like auction-site document (Fig. 4
// and Fig. 6 workloads) scaled by the number of person elements.
func NewXMarkDocument(seed int64, people int) *Document {
	return generated(gen.XMark(gen.XMarkConfig{Seed: seed, People: people}))
}

// NewDeepDocument generates the §5.3 document: numNodes elements all named
// tag, maximum depth maxDepth, with a full-depth first-child spine.
func NewDeepDocument(seed int64, numNodes, maxDepth int, tag string) *Document {
	return generated(gen.Deep(seed, numNodes, maxDepth, tag))
}
