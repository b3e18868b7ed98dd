package xqtp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xqtp/internal/gen"
	"xqtp/internal/xmlstore"
)

// A snapshot truncated under its mapping faults every read of a page past the
// new end. The fault is contained per member: fn:doc on a member past the cut
// fails, with the same error every time, whether the member was loaded before
// the cut or first touched after it; a fan-out over the corpus fails, and a
// member before the cut still answers like the ingested corpus. Under
// -tags nommap the file was read whole at open, so truncation changes
// nothing and every answer must be the ingested corpus's.
func TestTruncatedSnapshotFaultsPerMember(t *testing.T) {
	const members = 20
	sources := make([]CorpusSource, members)
	for i := range sources {
		sources[i] = CorpusSource{
			URI:  fmt.Sprintf("m%02d.xml", i),
			Data: xmlstore.AppendXML(nil, gen.XMarkRoot(gen.XMarkConfig{Seed: int64(i + 1), People: 20})),
		}
	}
	fresh, err := LoadCorpus(sources, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fresh.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.xqts")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCorpusFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	run := func(c *Corpus, text string) (Sequence, error) {
		t.Helper()
		q, err := Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		return c.Run(q, Auto)
	}
	// oracle checks got against the ingested corpus's answer to text.
	oracle := func(text string, got Sequence) {
		t.Helper()
		want, err := run(fresh, text)
		if err != nil {
			t.Fatal(err)
		}
		if err := equivItems(want, got, fresh.URIOf, c.URIOf); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}

	// m19 is loaded, its document node built and its joins prepared before
	// the cut; m18 is first touched after it.
	loaded := `fn:doc("m19.xml")//person/name`
	got, err := run(c, loaded)
	if err != nil {
		t.Fatal(err)
	}
	oracle(loaded, got)
	if err := os.Truncate(path, int64(buf.Len()/2)); err != nil {
		t.Fatal(err)
	}
	for _, past := range []struct{ query, member string }{
		{loaded, "snapshot member 19 (m19.xml): "},
		{`fn:doc("m18.xml")//person/name`, "snapshot member 18"},
	} {
		past, member := past.query, past.member
		got, err := run(c, past)
		if c.Mapped() {
			if err == nil {
				t.Fatalf("%s on a member past the cut answered %d items, want an error", past, len(got))
			}
			// The error names the member whose bytes faulted, also when the
			// member was loaded before the cut and the fault is the run's.
			if !strings.Contains(err.Error(), member) {
				t.Errorf("%s: error %q does not name %q", past, err, member)
			}
			_, again := run(c, past)
			if again == nil || again.Error() != err.Error() {
				t.Fatalf("%s again: %v, want the same error %v", past, again, err)
			}
		} else if err != nil {
			t.Fatalf("%s on a file read whole at open: %v", past, err)
		} else {
			oracle(past, got)
		}
	}

	fanOut := `$input//person[emailaddress]/name`
	if got, err := run(c, fanOut); c.Mapped() && err == nil {
		t.Fatalf("%s over a truncated corpus answered %d items, want an error", fanOut, len(got))
	} else if !c.Mapped() {
		if err != nil {
			t.Fatal(err)
		}
		oracle(fanOut, got)
	}

	before := `fn:doc("m00.xml")//person[emailaddress]/name`
	got, err = run(c, before)
	if err != nil {
		t.Fatalf("%s on a member before the cut: %v", before, err)
	}
	oracle(before, got)
}
