// Package collection is the corpus layer: a sharded store of many XML
// documents behind one query surface. A Corpus ingests documents
// concurrently (bounded worker pool over the xmlstore scanner, each
// member's columns, symbol table and index built by its worker), assigns the
// members a contiguous block of tree IDs in corpus order so cross-document
// ordering is deterministic regardless of ingest scheduling, interns every
// member tag into a corpus-level name table (query symbol → per-document
// symbol id), and fans query evaluation out across the members on a worker
// pool, merging per-document results back in stable corpus order through a
// bounded channel.
//
// A Corpus is immutable after construction and safe for concurrent use;
// Extend builds a new snapshot sharing the existing members, so readers of
// the old corpus are never disturbed by growth.
package collection

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// ErrClosed reports use of a corpus after Close. It is the same value as
// xmlstore.ErrSnapshotClosed, so errors.Is matches whichever layer detected
// the closed store.
var ErrClosed = xmlstore.ErrSnapshotClosed

// Doc is one corpus member: a parsed document with its index, addressed by
// URI.
type Doc struct {
	URI   string
	Index *xmlstore.Index

	rootSeq atomic.Pointer[xdm.Sequence]

	// preps is the member's prepared-join table (preps.go): an immutable
	// slice replaced whole on insert, so the per-tuple lookup takes no lock.
	preps                               atomic.Pointer[[]prepEntry]
	prepHits, prepMisses, prepEvictions atomic.Uint64
	// syms is the member's list of resolved names (SymFor).
	syms atomic.Pointer[nameSym]
}

// Tree returns the member's document tree.
func (d *Doc) Tree() *xdm.Tree { return d.Index.Tree }

// Root returns the member's document node, building the member's pointer
// data model from its columns on first use.
func (d *Doc) Root() *xdm.Node { return d.Index.Tree.RootNode() }

// RootSeq returns the document node as a singleton sequence, stored once:
// the uniform binding a run hands to every free variable. A stored sequence
// is returned as it is; only a call that finds none builds the node, and it
// builds it before storing anything: building it may read a mapped page, and
// a fault there must leave nothing stored, not a nil sequence.
func (d *Doc) RootSeq() xdm.Sequence {
	if s := d.rootSeq.Load(); s != nil {
		return *s
	}
	s := xdm.Singleton(d.Root())
	if !d.rootSeq.CompareAndSwap(nil, &s) {
		return *d.rootSeq.Load()
	}
	return s
}

// Ensure forces a deferred snapshot member's parse + validation (no-op for
// ingested members and already-loaded ones). The error-returning twin of
// Root: fan-out evaluation calls it before touching the member so a corrupt
// member becomes a per-query error.
func (d *Doc) Ensure() error { return d.Index.Ensure() }

// Corpus is an immutable snapshot of a document collection. Member order is
// the corpus order: ascending tree IDs, which makes it coincide with
// cross-document document order (xdm.CompareOrder ranks documents by ID) —
// the invariant behind every determinism guarantee of the fan-out executor
// and of fn:collection().
type Corpus struct {
	docs   []*Doc
	byURI  map[string]int
	byTree map[*xdm.Tree]int
	// catalog registers every member index so any engine run against the
	// corpus resolves indexes without rebuilding them.
	catalog *xmlstore.Catalog
	// names is the corpus name table: installed from a snapshot, grown from the
	// parent's by Extend, or else built by the first Names call — so a
	// one-member corpus behind a standalone document never pays for it.
	names     *NameTable
	namesOnce sync.Once
	// epoch counts the Extend steps behind this snapshot: a freshly ingested
	// or snapshot-loaded corpus is epoch 0, and each Extend returns a corpus
	// one epoch later. The pair (corpus name, epoch) is what result caches
	// key on — swapping in an extended corpus changes the epoch, so every
	// cached answer computed against the old membership stops matching.
	epoch uint64
	// roots is the memoized fn:collection() result: every member's document
	// node in corpus order. Built on first ResolveCollection rather than at
	// assembly, because gathering the document nodes forces every member's
	// load — which would make opening a corpus snapshot pay for all the
	// member parses the open was designed to defer.
	roots     xdm.Sequence
	rootsErr  error
	rootsOnce sync.Once

	// mapping is the file mapping behind a corpus opened with
	// OpenSnapshotFile; nil for ingested and in-memory-snapshot corpora.
	// Close releases it.
	mapping *xmlstore.Mapping
	closed  atomic.Bool
}

// Close poisons the corpus and releases its file mapping (if any). After
// Close every run/resolve entry point returns ErrClosed; a second Close
// returns ErrClosed too. Closing while queries are in flight is a caller
// bug (the os.File contract): the entry-point checks catch sequential
// use-after-close, not races.
func (c *Corpus) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return ErrClosed
	}
	if c.mapping != nil {
		return c.mapping.Close()
	}
	return nil
}

// Closed reports whether Close has been called.
func (c *Corpus) Closed() bool { return c.closed.Load() }

// Mapping returns the file mapping behind the corpus (nil unless opened
// with OpenSnapshotFile).
func (c *Corpus) Mapping() *xmlstore.Mapping { return c.mapping }

// Mapped reports whether the corpus is backed by a live file mapping (true
// only for OpenSnapshotFile corpora on mmap-capable builds, before Close).
func (c *Corpus) Mapped() bool { return c.mapping != nil && c.mapping.Mapped() }

// closedErr is the entry-point check used by every run/resolve path.
func (c *Corpus) closedErr() error {
	if c.closed.Load() {
		return ErrClosed
	}
	return nil
}

// Single wraps one loaded document as a one-member corpus: the shape behind
// every standalone document, so a document and a corpus run, resolve
// fn:doc/fn:collection and close through the same code.
func Single(uri string, ix *xmlstore.Index) *Corpus {
	c, err := assemble([]*Doc{{URI: uri, Index: ix}}, nil)
	if err != nil {
		panic(err) // one indexed member: neither assemble error can occur
	}
	return c
}

// SetURI renames member i. It exists for the standalone document, which is
// loaded before it is named; like every mutation it must happen before the
// corpus is shared across goroutines.
func (c *Corpus) SetURI(i int, uri string) {
	delete(c.byURI, c.docs[i].URI)
	c.docs[i].URI = uri
	c.byURI[uri] = i
}

// assemble builds the corpus structures over a member slice already in
// ascending tree-ID order. names is an already-built name table (Extend
// grows the previous corpus's table incrementally; the snapshot loader
// installs a stored one) or nil, which defers the build to the first Names
// call.
func assemble(members []*Doc, names *NameTable) (*Corpus, error) {
	c := &Corpus{
		docs:    members,
		byURI:   make(map[string]int, len(members)),
		byTree:  make(map[*xdm.Tree]int, len(members)),
		catalog: xmlstore.NewCatalog(),
		names:   names,
	}
	for i, d := range members {
		if d.Index == nil {
			return nil, fmt.Errorf("collection: member %q has no index", d.URI)
		}
		if prev, ok := c.byURI[d.URI]; ok {
			return nil, fmt.Errorf("collection: duplicate URI %q (members %d and %d)", d.URI, prev, i)
		}
		c.byURI[d.URI] = i
		c.byTree[d.Tree()] = i
		c.catalog.Register(d.Index)
	}
	return c, nil
}

// Len returns the number of member documents.
func (c *Corpus) Len() int { return len(c.docs) }

// Doc returns member i in corpus order.
func (c *Corpus) Doc(i int) *Doc { return c.docs[i] }

// Docs returns the members in corpus order. The slice is shared: callers
// must not modify it.
func (c *Corpus) Docs() []*Doc { return c.docs }

// IndexOf resolves a member URI to its corpus position. A closed corpus
// resolves nothing.
func (c *Corpus) IndexOf(uri string) (int, bool) {
	if c.closed.Load() {
		return 0, false
	}
	i, ok := c.byURI[uri]
	return i, ok
}

// ByTree resolves the member holding the given tree (attributing a result
// node back to its document).
func (c *Corpus) ByTree(t *xdm.Tree) (*Doc, bool) {
	i, ok := c.byTree[t]
	if !ok {
		return nil, false
	}
	return c.docs[i], true
}

// NameFault names the snapshot member behind a fault a run's guard caught:
// a bare *xmlstore.FaultError whose address lies in a member's bytes comes
// back wrapped with that member's number and URI. Any other error, a fault
// a member load already attributed included, comes back as it is.
func (c *Corpus) NameFault(err error) error {
	fault, ok := err.(*xmlstore.FaultError)
	if !ok {
		return err
	}
	for _, d := range c.docs {
		if m, ok := d.Index.SnapshotMember(fault.Addr); ok {
			return fmt.Errorf("xmlstore: snapshot member %d (%s): %w", m, d.URI, err)
		}
	}
	return err
}

// Catalog returns the corpus catalog, with every member index registered.
func (c *Corpus) Catalog() *xmlstore.Catalog { return c.catalog }

// Names returns the corpus-level name table.
func (c *Corpus) Names() *NameTable {
	c.namesOnce.Do(func() {
		if c.names == nil {
			c.names = new(NameTable).extend(c.docs)
		}
	})
	return c.names
}

// Epoch returns the corpus's extension epoch: 0 for a freshly built or
// loaded corpus, the parent's epoch plus one for an Extend result.
func (c *Corpus) Epoch() uint64 { return c.epoch }

// Loaded returns member i ready for evaluation: ErrClosed once the corpus is
// closed, the member's sticky load error when its deferred parse fails.
func (c *Corpus) Loaded(i int) (*Doc, error) {
	if err := c.closedErr(); err != nil {
		return nil, err
	}
	d := c.docs[i]
	return d, d.Ensure()
}

// ResolveDoc implements xdm.DocResolver: fn:doc($uri).
func (c *Corpus) ResolveDoc(uri string) (*xdm.Node, error) {
	if err := c.closedErr(); err != nil {
		return nil, err
	}
	i, ok := c.byURI[uri]
	if !ok {
		return nil, fmt.Errorf("doc(%q): no such document in the collection", uri)
	}
	d, err := c.Loaded(i)
	if err != nil {
		return nil, err
	}
	return d.Root(), nil
}

// ResolveCollection implements xdm.DocResolver: fn:collection(). The empty
// name is the default collection — every member document node, in corpus
// order (already document order by the tree-ID invariant).
func (c *Corpus) ResolveCollection(name string) (xdm.Sequence, error) {
	if name != "" {
		return nil, fmt.Errorf("collection(%q): no such collection (only the default collection is defined)", name)
	}
	if err := c.closedErr(); err != nil {
		return nil, err
	}
	c.rootsOnce.Do(func() {
		// Building the document nodes reads member pages: a fault is the
		// collection's error, like a member's load failure.
		defer xmlstore.CatchFault(xmlstore.ArmFaults(), &c.rootsErr)
		roots := make(xdm.Sequence, len(c.docs))
		for i, d := range c.docs {
			if err := d.Ensure(); err != nil {
				c.rootsErr = err
				return
			}
			roots[i] = d.Root()
		}
		c.roots = roots
	})
	if c.rootsErr != nil {
		return nil, c.rootsErr
	}
	return c.roots, nil
}

// SizeBytes returns the total serialized size of the corpus members (0 once
// the corpus is closed: the members may live in the released mapping).
func (c *Corpus) SizeBytes() int {
	if c.closed.Load() {
		return 0
	}
	total := 0
	for _, d := range c.docs {
		total += len(xmlstore.AppendXML(nil, d.Root()))
	}
	return total
}

// NumNodes returns the total node count across members (0 once the corpus
// is closed). Deferred snapshot members answer from their section directory,
// so this never forces loads.
func (c *Corpus) NumNodes() int {
	if c.closed.Load() {
		return 0
	}
	total := 0
	for _, d := range c.docs {
		total += d.Index.NumNodes()
	}
	return total
}
