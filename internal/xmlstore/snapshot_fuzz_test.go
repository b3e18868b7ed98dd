package xmlstore

import (
	"bytes"
	"testing"
)

// fuzzSeedSnapshot builds a valid snapshot to seed the fuzzer with — byte
// flips on real encodings explore far more reader states than random bytes.
func fuzzSeedSnapshot(docs []string, uris []string) []byte {
	ixs := make([]*Index, len(docs))
	for i, d := range docs {
		ix, err := IngestString(d)
		if err != nil {
			panic(err)
		}
		ixs[i] = ix
	}
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, snapshotFromIndexes(uris, ixs)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzSnapshot fuzzes the snapshot reader's safety contract: arbitrary
// bytes — including corrupted and truncated valid snapshots — must produce
// an error or a structurally valid corpus, never a panic. A snapshot that
// does load must round-trip back to identical bytes.
func FuzzSnapshot(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("XQTS\x02\x00\x00\x00"))
	single := fuzzSeedSnapshot(
		[]string{`<a id="1"><b x="y"><c>hello</c></b><c>world</c></a>`},
		[]string{""})
	f.Add(single)
	f.Add(single[:len(single)/2])
	f.Add(fuzzSeedSnapshot(
		[]string{`<a><b>one</b></a>`, `<catalog><item price="3">x</item></catalog>`},
		[]string{"one.xml", "two.xml"}))
	corrupt := bytes.Clone(single)
	corrupt[20] ^= 0xff
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The no-panic contract holds through the probe-then-load stages of
		// a deferred member, failed loads included.
		sd, errD := OpenCorpus(bytes.Clone(data), nil)
		if errD == nil {
			for _, ix := range sd.Indexes {
				ix.NumNodes()
				ix.StreamLen(0, false)
				_ = ix.Ensure()
				ix.Tree.RootNode()
			}
		}
		s, err := openEager(bytes.Clone(data))
		if err != nil {
			return
		}
		// Accepted input: materialization of the lazy pointer model must not
		// panic — load-time validation has to cover everything the deferred
		// build relies on.
		for _, ix := range s.Indexes {
			ix.Tree.RootNode()
		}
		// Accepted input: the decoded corpus must re-encode and re-open
		// cleanly (the writer asserts the structural invariants the query
		// engine relies on).
		var buf bytes.Buffer
		if err := WriteCorpus(&buf, s); err != nil {
			t.Fatalf("loaded snapshot does not re-encode: %v", err)
		}
		if _, err := openEager(buf.Bytes()); err != nil {
			t.Fatalf("re-encoded snapshot does not load: %v", err)
		}
	})
}
