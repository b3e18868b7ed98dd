package xqtp

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPublicSurface pins the exported API of package xqtp: every exported
// function, method and type, with signatures and exported struct fields, and
// the name of every exported constant and variable. A change that grows or
// shrinks the surface shows in the golden file's diff; regenerate it with
// `go test -run PublicSurface -update .`.
func TestPublicSurface(t *testing.T) {
	const golden = "testdata/api_pr31.golden"
	got := publicSurface(t)
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exported API differs from %s (regenerate with -update if intended):\n%s", golden, lineDiff(string(want), got))
	}
}

// publicSurface renders the package's exported declarations, sorted by name
// as go/doc groups them, without comments.
func publicSurface(t *testing.T) string {
	t.Helper()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "xqtp")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	names := func(vals []*doc.Value) {
		for _, v := range vals {
			for _, s := range v.Decl.Specs {
				for _, n := range s.(*ast.ValueSpec).Names {
					if n.IsExported() {
						b.WriteString(v.Decl.Tok.String() + " " + n.Name + "\n")
					}
				}
			}
		}
	}
	// A declaration prints with its fields aligned and with blank lines
	// where comments were; one space between tokens and no blank lines keep
	// the golden unchanged by a comment edit.
	decl := func(d ast.Decl) {
		var out strings.Builder
		if err := printer.Fprint(&out, fset, d); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if fields := strings.Fields(line); len(fields) > 0 {
				indent := line[:len(line)-len(strings.TrimLeft(line, "\t"))]
				b.WriteString(indent + strings.Join(fields, " ") + "\n")
			}
		}
	}
	names(pkg.Consts)
	names(pkg.Vars)
	for _, f := range pkg.Funcs {
		decl(f.Decl)
	}
	for _, ty := range pkg.Types {
		decl(ty.Decl)
		names(ty.Consts)
		names(ty.Vars)
		for _, f := range ty.Funcs {
			decl(f.Decl)
		}
		for _, m := range ty.Methods {
			decl(m.Decl)
		}
	}
	return b.String()
}

// lineDiff lists the lines only one of want and got has, each marked - or +.
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]--
	}
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if count[l] > 0 {
			b.WriteString("- " + l + "\n")
			count[l]--
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if count[l] < 0 {
			b.WriteString("+ " + l + "\n")
			count[l]++
		}
	}
	return b.String()
}
