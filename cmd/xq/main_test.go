package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"xqtp"
)

// TestMain runs the command itself when a test re-executes the test binary
// with XQ_RUN_MAIN=1, so a test can drive xq's flags end to end.
func TestMain(m *testing.M) {
	if os.Getenv("XQ_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runXQ runs xq with args and returns its standard output.
func runXQ(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "XQ_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("xq %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

// -no-tree-patterns compiles the standard engine its help text names (no
// TPNF′ rewrites, no tree-pattern detection): -explain prints exactly the
// plan of PrepareWithOptions(q, StandardEngineOptions), which holds no
// TupleTreePattern, and the results are that query's.
func TestNoTreePatternsIsStandardEngine(t *testing.T) {
	const text = `<r><a k="1"><a><b><c/></b></a><b/></a><a><x><b><c/></b></x></a><person><emailaddress/><name>Ann</name></person></r>`
	path := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	doc, err := xqtp.LoadXMLString(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{
		`$d//person[emailaddress]/name`,
		`($d//b/parent::a)[1]`,
		`for $x in $d//a where $x/b return $x/b/c`,
	} {
		std, err := xqtp.PrepareWithOptions(query, xqtp.StandardEngineOptions)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []string{"nl", "sc", "twig", "auto"} {
			a, err := xqtp.ParseAlgorithm(alg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := std.ExplainPhysical(a, doc)
			if err != nil {
				t.Fatal(err)
			}
			items, err := std.Run(doc, a)
			if err != nil {
				t.Fatal(err)
			}
			if len(items) == 0 {
				t.Fatalf("%s: the standard engine answers nothing", query)
			}
			for _, it := range items {
				want += xqtp.SerializeItem(it) + "\n"
			}
			got := runXQ(t, "-file", path, "-serialize", "-explain", "-no-tree-patterns", "-alg", alg, "-query", query)
			if strings.Contains(got, "TupleTreePattern") {
				t.Errorf("%s/%s: -no-tree-patterns plan holds a TupleTreePattern:\n%s", query, alg, got)
			}
			if got != want {
				t.Errorf("%s/%s: xq -no-tree-patterns printed\n%s\nthe standard engine gives\n%s", query, alg, got, want)
			}
		}
		// Without the flag the same run shows the pattern the flag removes.
		if got := runXQ(t, "-file", path, "-explain", "-query", query); !strings.Contains(got, "TupleTreePattern") {
			t.Errorf("%s: the default plan holds no TupleTreePattern:\n%s", query, got)
		}
	}
}

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
