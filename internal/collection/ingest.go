package collection

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// Source is one document to ingest. Data nil means read the URI as a file
// path inside the ingest worker, overlapping file IO with parsing.
type Source struct {
	URI  string
	Data []byte
}

// FileSources builds sources that load each path from disk during ingest.
func FileSources(paths []string) []Source {
	out := make([]Source, len(paths))
	for i, p := range paths {
		out[i] = Source{URI: p}
	}
	return out
}

// Ingest parses every source on a pool of Workers(workers, len(sources))
// goroutines — each runs its own xmlstore.Loader, which builds a member's
// columns, symbols and rank streams and no node — and assembles the corpus.
// Tree IDs are reassigned in source order after the last parse lands
// (xdm.AssignTreeIDs), so the corpus order, and with it every query result,
// is independent of how the pool scheduled the parses.
func Ingest(sources []Source, workers int) (*Corpus, error) {
	docs, err := ingestDocs(sources, workers)
	if err != nil {
		return nil, err
	}
	xdm.AssignTreeIDs(trees(docs))
	return assemble(docs, nil)
}

// Extend ingests additional sources as Ingest does, workers included, and
// returns a new corpus holding the existing members followed by the new
// ones. The receiver is untouched — a corpus is an immutable snapshot, so
// queries running against it concurrently with Extend never observe partial
// growth. The new members' tree IDs come
// from a fresh block of the global counter (AssignTreeIDs walks only the new
// docs), so they sort after every existing member and the combined slice
// keeps the corpus-order invariant. The name table likewise grows
// incrementally from the receiver's, so the cost of an Extend is linear in
// the documents added, not in the corpus size — repeated Extends are O(n),
// not O(n²).
func (c *Corpus) Extend(sources []Source, workers int) (*Corpus, error) {
	if err := c.closedErr(); err != nil {
		return nil, err
	}
	docs, err := ingestDocs(sources, workers)
	if err != nil {
		return nil, err
	}
	xdm.AssignTreeIDs(trees(docs))
	members := make([]*Doc, 0, len(c.docs)+len(docs))
	members = append(members, c.docs...)
	members = append(members, docs...)
	grown, err := assemble(members, c.Names().extend(docs))
	if err != nil {
		return nil, err
	}
	grown.epoch = c.epoch + 1
	return grown, nil
}

func trees(docs []*Doc) []*xdm.Tree {
	ts := make([]*xdm.Tree, len(docs))
	for i, d := range docs {
		ts[i] = d.Tree()
	}
	return ts
}

// ingestDocs runs the parse pool: a shared atomic cursor hands source
// positions to workers, results land by position, and the first error (by
// source order, for a deterministic message) stops the remaining work. Each
// worker owns one xmlstore.Loader, so its ingest scratch is reused member
// after member without a pool: the allocation count of an ingest never
// depends on GC timing. A panic while ingesting a source is that source's
// error (ingestGuarded): it stops the pool as a failed source does, so it
// cannot take the process down from a worker goroutine.
func ingestDocs(sources []Source, workers int) ([]*Doc, error) {
	n := len(sources)
	if n == 0 {
		return nil, nil
	}
	workers = Workers(workers, n)
	docs := make([]*Doc, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ld xmlstore.Loader
			for {
				pos := int(next.Add(1)) - 1
				if pos >= n || failed.Load() {
					return
				}
				ix, err := ingestGuarded(&ld, sources[pos])
				if err != nil {
					errs[pos] = err
					failed.Store(true)
					continue
				}
				docs[pos] = &Doc{URI: sources[pos].URI, Index: ix}
			}
		}()
	}
	wg.Wait()
	for pos, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("collection: ingest %q: %w", sources[pos].URI, err)
		}
	}
	// An abandoned tail (a worker saw failed && bailed) only exists alongside
	// an error, so every doc is populated here.
	return docs, nil
}

// ingestGuarded is ingestSource with a panic recovered into the source's
// error. The loader is dropped with it: its scratch may be half-written.
func ingestGuarded(ld *xmlstore.Loader, s Source) (ix *xmlstore.Index, err error) {
	defer func() {
		if r := recover(); r != nil {
			*ld = xmlstore.Loader{}
			ix, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return ingestSource(ld, s)
}

// ingestSource reads and ingests one source; a variable, so that a test can
// make one source's ingest panic.
var ingestSource = ingestOne

func ingestOne(ld *xmlstore.Loader, s Source) (*xmlstore.Index, error) {
	data := s.Data
	if data == nil {
		b, err := os.ReadFile(s.URI)
		if err != nil {
			return nil, err
		}
		data = b
	}
	return ld.Ingest(data)
}
