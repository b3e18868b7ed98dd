package xqtp

import (
	"context"
	"io"

	"xqtp/internal/collection"
	"xqtp/internal/xdm"
)

// ErrClosed reports use of a corpus or document after Close.
var ErrClosed = collection.ErrClosed

// CorpusSource is one document for corpus ingest: its URI and, optionally,
// its content. Nil Data means the URI is a file path to read during ingest.
type CorpusSource struct {
	URI  string
	Data []byte
}

// Corpus is an immutable collection of documents behind one query surface:
// ingest parses the members concurrently, and Run fans a compiled query out
// across them, merging per-document results in corpus order. A Corpus is
// safe for concurrent Run calls; Extend returns a grown snapshot without
// disturbing the original.
type Corpus struct {
	c *collection.Corpus
}

// LoadCorpusFiles ingests the given files, parsing workers of them at once
// (<= 0: one per available CPU, capped at the file count). The corpus order
// is the argument order, whatever the pool's scheduling.
func LoadCorpusFiles(paths []string, workers int) (*Corpus, error) {
	c, err := collection.Ingest(collection.FileSources(paths), workers)
	if err != nil {
		return nil, err
	}
	return &Corpus{c: c}, nil
}

// LoadCorpus ingests in-memory or file-backed sources, workers as in
// LoadCorpusFiles. As with LoadXMLBytes, the corpus keeps no reference to
// the data slices: the caller may reuse them once LoadCorpus returns.
func LoadCorpus(sources []CorpusSource, workers int) (*Corpus, error) {
	c, err := collection.Ingest(internalSources(sources), workers)
	if err != nil {
		return nil, err
	}
	return &Corpus{c: c}, nil
}

// Extend ingests additional sources, workers as in LoadCorpusFiles, and
// returns a new corpus with the existing members followed by the new ones.
// The receiver is unchanged, so queries running against it concurrently are
// unaffected.
func (c *Corpus) Extend(sources []CorpusSource, workers int) (*Corpus, error) {
	grown, err := c.c.Extend(internalSources(sources), workers)
	if err != nil {
		return nil, err
	}
	return &Corpus{c: grown}, nil
}

// SaveSnapshot writes the corpus in the columnar binary snapshot format:
// every member's region columns, symbol table and tag-stream index, plus
// the corpus name table, serialized as they sit in memory. Reloading with
// OpenCorpusSnapshot skips parsing, index building and name interning
// entirely.
func (c *Corpus) SaveSnapshot(w io.Writer) error {
	return c.c.WriteSnapshot(w)
}

// OpenCorpusSnapshot loads a corpus written by SaveSnapshot. It takes
// ownership of data: the loaded members' strings and columns alias the
// buffer, so the caller must not modify it afterwards.
func OpenCorpusSnapshot(data []byte) (*Corpus, error) {
	c, err := collection.OpenSnapshot(data)
	if err != nil {
		return nil, err
	}
	return &Corpus{c: c}, nil
}

// OpenCorpusFile opens a corpus snapshot from a file by memory-mapping it:
// only the header, offset table and corpus name table are read at open, so
// the cost is O(open) regardless of corpus size, and member pages fault in
// as queries touch them — a corpus larger than RAM stays queryable. The
// corpus owns the mapping; call Close to release it. (Reading the file and
// handing the bytes to OpenCorpusSnapshot is the read-everything
// alternative, which needs no Close.)
func OpenCorpusFile(path string) (*Corpus, error) {
	c, err := collection.OpenSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	return &Corpus{c: c}, nil
}

// Close poisons the corpus and releases its snapshot file mapping (if any).
// After Close every Run/Document entry point returns ErrClosed; so does a
// second Close. Closing while queries are in flight is a caller bug, exactly
// as with os.File. Close on an ingested (non-mapped) corpus only poisons it.
func (c *Corpus) Close() error { return c.c.Close() }

// Closed reports whether Close has been called.
func (c *Corpus) Closed() bool { return c.c.Closed() }

// Mapped reports whether the corpus is backed by a live file mapping (true
// only for OpenCorpusFile corpora on mmap-capable builds, before Close).
func (c *Corpus) Mapped() bool { return c.c.Mapped() }

// SnapshotResident returns the number of bytes of the snapshot mapping
// currently resident in physical memory (ok=false when the corpus is not
// file-backed or the platform cannot report residency). This is the
// measurement behind the paging experiments: after a cold open it is a few
// pages; after a single-member query it is roughly that member's size.
func (c *Corpus) SnapshotResident() (int64, bool) {
	m := c.c.Mapping()
	if m == nil {
		return 0, false
	}
	return m.Resident()
}

func internalSources(sources []CorpusSource) []collection.Source {
	out := make([]collection.Source, len(sources))
	for i, s := range sources {
		out[i] = collection.Source{URI: s.URI, Data: s.Data}
	}
	return out
}

// Len returns the number of member documents.
func (c *Corpus) Len() int { return c.c.Len() }

// Epoch returns the corpus's extension epoch: 0 for a freshly ingested or
// snapshot-loaded corpus, and one more than the receiver for every Extend
// result. A result cache keyed by (query, corpus name, epoch) is therefore
// invalidated exactly when a server swaps in an extended corpus — the epoch
// is the cheap, monotonic stand-in for "same membership".
func (c *Corpus) Epoch() uint64 { return c.c.Epoch() }

// URIs returns the member URIs in corpus order.
func (c *Corpus) URIs() []string {
	out := make([]string, c.c.Len())
	for i, d := range c.c.Docs() {
		out[i] = d.URI
	}
	return out
}

// Document returns the member with the given URI as a Document: a view
// borrowing the corpus, so it shares the corpus's indexes, resolves
// fn:doc/fn:collection corpus-wide, and is closed by the corpus's Close.
func (c *Corpus) Document(uri string) (*Document, bool) {
	i, ok := c.c.IndexOf(uri)
	if !ok {
		return nil, false
	}
	return c.DocumentAt(i), true
}

// DocumentAt returns member i (in corpus order) as a Document view. The
// member is not loaded until something reads it.
func (c *Corpus) DocumentAt(i int) *Document {
	return &Document{c: c.c, i: i}
}

// NumNodes returns the total node count across members.
func (c *Corpus) NumNodes() int { return c.c.NumNodes() }

// SizeBytes returns the total serialized size of the members.
func (c *Corpus) SizeBytes() int { return c.c.SizeBytes() }

// Run evaluates the query against every member and returns the merged
// results in corpus order (which is cross-document document order): RunWith
// with one worker.
func (c *Corpus) Run(q *Query, alg Algorithm) (Sequence, error) {
	return c.RunParallel(q, alg, 1)
}

// RunParallel is RunWith with workers members at once (<= 0: one per
// available CPU) and no context, budget or sink.
func (c *Corpus) RunParallel(q *Query, alg Algorithm, workers int) (Sequence, error) {
	seq, _, err := c.RunWith(context.Background(), q, alg, RunOptions{Workers: workers})
	return seq, err
}

// RunParallelStats is RunParallel, additionally reporting what the run
// delivered and how many members the count-based emptiness proof skipped.
func (c *Corpus) RunParallelStats(q *Query, alg Algorithm, workers int) (Sequence, RunInfo, error) {
	return c.RunWith(context.Background(), q, alg, RunOptions{Workers: workers})
}

// URIOf attributes a result item back to the member document holding it
// (ok=false for atomic items and nodes from outside the corpus).
func (c *Corpus) URIOf(it Item) (string, bool) {
	n, isNode := it.(*xdm.Node)
	if !isNode {
		return "", false
	}
	d, ok := c.c.ByTree(n.Doc)
	if !ok {
		return "", false
	}
	return d.URI, true
}
