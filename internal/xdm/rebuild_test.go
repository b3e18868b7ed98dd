package xdm

import (
	"slices"
	"testing"
)

// A Parent column that contradicts Size must not fill a tree: in
// <a><b><c/></b></a> (ranks doc 0, a 1, b 2, c 3) Size puts c inside b, so
// a parent rank of 1 for c would make c/parent::* answer a while
// b/child::* answers c.
func TestFillColumnsRejectsParentOutsideInnermostRegion(t *testing.T) {
	b := NewTreeBuilder(0)
	b.OpenElement([]byte("a"))
	b.OpenElement([]byte("b"))
	b.OpenElement([]byte("c"))
	b.CloseElement()
	b.CloseElement()
	b.CloseElement()
	src := b.Finish()
	fill := func(parent3 int32) error {
		c := *src.Cols
		c.Parent = slices.Clone(c.Parent)
		c.Parent[3] = parent3
		off, blob := src.TextTable()
		return NewShellTree(nil).FillColumns(&c, src.Syms.Names(), off, blob)
	}
	if err := fill(2); err != nil {
		t.Fatalf("the builder's own columns: %v", err)
	}
	for _, p := range []int32{1, 0, 3, -1} {
		if err := fill(p); err == nil {
			t.Errorf("c's parent rank %d accepted; its innermost region is b's (2)", p)
		}
	}
}
