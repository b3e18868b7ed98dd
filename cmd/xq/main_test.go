package main

import (
	"os"
	"path/filepath"
	"testing"

	"xqtp"
)

// Rewriting a snapshot that is still mapped leaves the old mapping intact:
// the old corpus keeps answering from its members, none of which were loaded
// before the rewrite, and the path then opens as the new, smaller snapshot.
// (Truncating the file in place would fault the old corpus's first member
// load.)
func TestSaveSnapshotReplacesMappedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.snap")
	big := xqtp.NewXMarkDocument(1, 200)
	if err := writeSnapshotFile(path, nil, big); err != nil {
		t.Fatal(err)
	}
	old, err := xqtp.OpenCorpusFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()

	small := xqtp.NewXMarkDocument(2, 3)
	if err := writeSnapshotFile(path, nil, small); err != nil {
		t.Fatal(err)
	}
	q := xqtp.MustPrepare(`$input//person/name`)
	count := func(c *xqtp.Corpus) int {
		t.Helper()
		got, err := c.Run(q, xqtp.Auto)
		if err != nil {
			t.Fatal(err)
		}
		return len(got)
	}
	if got := count(old); got != 200 {
		t.Fatalf("the old mapping answers %d names, want 200", got)
	}
	fresh, err := xqtp.OpenCorpusFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if got := count(fresh); got != 3 {
		t.Fatalf("the rewritten file answers %d names, want 3", got)
	}

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("snapshot mode %v, want 0644", fi.Mode().Perm())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("directory holds %d entries after two saves, want only the snapshot", len(entries))
	}
}
