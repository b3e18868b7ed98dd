package xdm

// RefStep exposes the pointer reference step to the external differential
// test (step_diff_test.go), which needs the generator and both parsers.
var RefStep = refStep

// TextValues returns the tree's text values in preorder, one string each,
// cut from its text table.
func (t *Tree) TextValues() []string {
	out := make([]string, len(t.textOff)-1)
	for i := range out {
		out[i] = t.textBlob[t.textOff[i]:t.textOff[i+1]]
	}
	return out
}
