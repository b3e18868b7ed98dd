package collection

import (
	"io"
	"strings"

	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// WriteSnapshot serializes the corpus in the columnar snapshot format:
// every member's region columns, symbol table and rank streams, plus the
// corpus name table, in corpus order. Loading the result (OpenSnapshot)
// rebuilds none of them.
func (c *Corpus) WriteSnapshot(w io.Writer) error {
	if err := c.closedErr(); err != nil {
		return err
	}
	uris := make([]string, len(c.docs))
	ixs := make([]*xmlstore.Index, len(c.docs))
	for i, d := range c.docs {
		uris[i] = d.URI
		ixs[i] = d.Index
	}
	nt := c.Names()
	return xmlstore.WriteCorpus(w, &xmlstore.CorpusSnapshot{
		URIs:     uris,
		Indexes:  ixs,
		Names:    nt.names,
		NameSyms: nt.cells,
	})
}

// OpenSnapshot opens a corpus written by WriteSnapshot from bytes in memory
// and loads every member, so corruption anywhere in the buffer is reported
// here rather than at a first query. It takes ownership of data: the
// members' strings, columns and streams alias the buffer, so the caller
// must not modify it afterwards.
func OpenSnapshot(data []byte) (*Corpus, error) {
	c, err := openSnapshot(data, nil)
	if err != nil {
		return nil, err
	}
	for _, d := range c.docs {
		if err := d.Ensure(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// OpenSnapshotFile maps the snapshot file and leaves every member deferred:
// the O(open) path. Only the header, offset table and corpus tables are
// read; member pages fault in as queries touch them, so a corpus larger than
// RAM stays queryable. The corpus owns the mapping — Close releases it.
func OpenSnapshotFile(path string) (*Corpus, error) {
	m, err := xmlstore.MapFile(path)
	if err != nil {
		return nil, err
	}
	data, err := m.Bytes()
	if err != nil {
		m.Close()
		return nil, err
	}
	c, err := openSnapshot(data, m)
	if err != nil {
		m.Close()
		return nil, err
	}
	c.mapping = m
	return c, nil
}

// openSnapshot is the one open: deferred members over a byte slice, wherever
// the bytes came from. The members get a fresh contiguous tree-ID block in
// stored order, re-establishing the corpus-order invariant exactly as
// parallel ingest does; the name table is the snapshot's, installed as
// stored, so no member symbol table is re-walked (unless the file carries no
// table at all).
func openSnapshot(data []byte, m *xmlstore.Mapping) (*Corpus, error) {
	s, err := xmlstore.OpenCorpus(data, m)
	if err != nil {
		return nil, err
	}
	// The URIs are copied out of data: they are handed out (Corpus.URIs,
	// URIOf) and must stay readable after Close releases a mapping.
	docs := make([]*Doc, len(s.Indexes))
	for i, ix := range s.Indexes {
		docs[i] = &Doc{URI: strings.Clone(s.URIs[i]), Index: ix}
	}
	xdm.AssignTreeIDs(trees(docs))
	if len(s.Names) == 0 {
		// Every member has a root element, so members without a single name
		// means the file was written without its name table (document
		// snapshots before the table became mandatory): unknown, not absent.
		// Load the members and build the table from their symbols now, or the
		// fan-out's skip test would exclude every one of them. Building it at
		// open keeps the member pages it reads out of Names' once.
		for _, d := range docs {
			if err := d.Ensure(); err != nil {
				return nil, err
			}
		}
		return assemble(docs, new(NameTable).extend(docs))
	}
	return assemble(docs, newNameTable(s.Names, s.NameSyms, len(docs)))
}
