package xmlstore

import (
	"bytes"
	"os"
	"testing"
)

// fuzzSeedSnapshot builds a valid snapshot (v4, what the writer emits) to
// seed the fuzzer with — byte flips on real encodings explore far more
// reader states than random bytes.
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
// bytes — including corrupted and truncated valid snapshots of both readable
// versions — must produce an error or a structurally valid corpus, never a
// panic. A snapshot that does load re-encodes to a fixpoint: writing what
// the written bytes open to gives those bytes again.
func FuzzSnapshot(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("XQTS\x02\x00\x00\x00"))
	// The committed v3 snapshots, for the v3 directory width.
	for _, name := range []string{"corpus_v3_pr14.snap", "corpus_v3_pr23_ingest.snap", "doc_v3_pr16.snap"} {
		v3, err := os.ReadFile("../../testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(v3)
	}
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
	for _, c := range textTableCorruptions() {
		f.Add(c.data)
	}
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
		// engine relies on), and re-encoding that gives the same bytes.
		var once, twice bytes.Buffer
		if err := WriteCorpus(&once, s); err != nil {
			t.Fatalf("loaded snapshot does not re-encode: %v", err)
		}
		s2, err := openEager(bytes.Clone(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not load: %v", err)
		}
		if err := WriteCorpus(&twice, s2); err != nil {
			t.Fatalf("re-encoded snapshot does not re-encode: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encoding is not a fixpoint: %d bytes, then %d", once.Len(), twice.Len())
		}
	})
}
