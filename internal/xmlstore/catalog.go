package xmlstore

import (
	"sync"

	"xqtp/internal/xdm"
)

// Catalog is a concurrency-safe tree→index registry: it holds exactly the
// indexes its owner registered (a corpus registers every member's), and
// evaluation only ever reads it. A tree the catalog does not hold belongs to
// somebody else — a run that meets one indexes it for that run alone — so a
// long-lived catalog never accretes the transient documents whose nodes were
// once bound into a query against it.
//
// Catalogs hold strong references to their trees; they live with the
// documents they index. The zero value is ready to use.
type Catalog struct {
	m sync.Map // *xdm.Tree -> *Index
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{} }

// Lookup returns the registered index of t.
func (c *Catalog) Lookup(t *xdm.Tree) (*Index, bool) {
	v, ok := c.m.Load(t)
	if !ok {
		return nil, false
	}
	return v.(*Index), true
}

// Register installs a prebuilt index. If the tree is already cataloged the
// existing index wins (indexes over the same tree are interchangeable).
func (c *Catalog) Register(ix *Index) { c.m.LoadOrStore(ix.Tree, ix) }

// Len returns the number of cataloged documents.
func (c *Catalog) Len() int {
	n := 0
	c.m.Range(func(_, _ any) bool { n++; return true })
	return n
}
