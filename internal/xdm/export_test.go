package xdm

// TextValues returns the tree's text values in preorder, one string each,
// cut from its text table.
func (t *Tree) TextValues() []string {
	out := make([]string, len(t.textOff)-1)
	for i := range out {
		out[i] = t.textBlob[t.textOff[i]:t.textOff[i+1]]
	}
	return out
}

// Untouched reports whether the tree holds no node at all, not even its
// document node, and no identity table.
func (t *Tree) Untouched() bool { return t.root.Load() == nil && t.ids.Load() == nil }
