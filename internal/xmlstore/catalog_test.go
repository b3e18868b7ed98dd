package xmlstore

import (
	"sync"
	"testing"
)

// Concurrent Registers of interchangeable indexes settle on one, and every
// reader sees that one.
func TestCatalogRegisterOnce(t *testing.T) {
	tree, err := ParseString(`<a><b/><b/><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	const goroutines = 16
	indexes := make([]*Index, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cat.Register(BuildIndex(tree))
			indexes[g], _ = cat.Lookup(tree)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if indexes[g] != indexes[0] {
			t.Fatalf("goroutine %d got a different index instance", g)
		}
	}
	if indexes[0] == nil || indexes[0].Tree != tree {
		t.Fatalf("index registered for the wrong tree")
	}
	if got := cat.Len(); got != 1 {
		t.Fatalf("catalog has %d entries, want 1", got)
	}
}

func TestCatalogRegisterExistingWins(t *testing.T) {
	tree, err := ParseString(`<a><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	if _, ok := cat.Lookup(tree); ok || cat.Len() != 0 {
		t.Fatalf("Lookup of an unregistered tree found or stored something")
	}
	pre := BuildIndex(tree)
	cat.Register(pre)
	if got, ok := cat.Lookup(tree); !ok || got != pre {
		t.Fatalf("catalog did not return the registered index")
	}
	// A second Register of a fresh index for the same tree keeps the first.
	cat.Register(BuildIndex(tree))
	if got, _ := cat.Lookup(tree); got != pre {
		t.Fatalf("second Register displaced the original index")
	}
}
