package xmlstore

import (
	"sync"
	"testing"
)

func TestCatalogBuildsOnce(t *testing.T) {
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
			indexes[g] = cat.Index(tree)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if indexes[g] != indexes[0] {
			t.Fatalf("goroutine %d got a different index instance", g)
		}
	}
	if indexes[0].Tree != tree {
		t.Fatalf("index built for the wrong tree")
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
	pre := BuildIndex(tree)
	cat.Register(pre)
	if got := cat.Index(tree); got != pre {
		t.Fatalf("catalog did not return the registered index")
	}
	// A second Register of a fresh index for the same tree keeps the first.
	cat.Register(BuildIndex(tree))
	if got := cat.Index(tree); got != pre {
		t.Fatalf("second Register displaced the original index")
	}
	cat.Drop(tree)
	if cat.Len() != 0 {
		t.Fatalf("Drop left %d entries", cat.Len())
	}
	if got := cat.Index(tree); got == pre {
		t.Fatalf("catalog returned the dropped index instance")
	}
}
