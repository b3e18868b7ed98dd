package xmlstore

import (
	"strings"
	"testing"
)

// hintRatio ingests doc and returns (hint, column capacity, actual nodes,
// hint/actual).
func hintRatio(t *testing.T, doc string) (int, int, int, float64) {
	t.Helper()
	data := []byte(doc)
	hint := nodeHint(data)
	ix, err := Ingest(data)
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	actual := ix.Tree.CountNodes()
	if actual == 0 {
		t.Fatalf("document parsed to zero nodes")
	}
	// Every column must agree on its capacity (and, being indexed by rank,
	// its length is the node count); report the Kind column's.
	c := ix.Tree.Cols
	for _, col := range [][]int32{c.Size, c.Parent, c.Sym} {
		if len(col) != actual || cap(col) != cap(c.Kind) {
			t.Fatalf("int32 column len %d cap %d, Kind column len %d cap %d", len(col), cap(col), actual, cap(c.Kind))
		}
	}
	return hint, cap(c.Kind), actual, float64(hint) / float64(actual)
}

// TestNodeHintBounded pins the column pre-allocation hint to the real node
// count across document shapes. The '='-laden case is the regression: '=' is
// an ordinary text character, so an uncapped '=' count once inflated the hint
// (and a cold loader's scratch) by an unbounded factor on equation-heavy
// text — the cap keeps the over-allocation bounded no matter how much text
// the document carries. The finished tree's columns are exactly sized
// whatever the hint.
func TestNodeHintBounded(t *testing.T) {
	// Small fixed slack absorbs the +16 constant on tiny documents.
	const slack = 16.0

	cases := []struct {
		name string
		doc  string
		max  float64 // max allowed hint/actual beyond the slack
	}{
		{
			name: "element-dense",
			doc:  "<r>" + strings.Repeat("<a><b/><c/></a>", 200) + "</r>",
			max:  1.5,
		},
		{
			name: "attribute-heavy",
			doc:  "<r>" + strings.Repeat(`<a x="1" y="2" z="3"/>`, 200) + "</r>",
			max:  1.5,
		},
		{
			// Text stuffed with '=': every byte of payload is an equals
			// sign, but none of them is an attribute. Uncapped, the hint
			// here is ~100x the node count.
			name: "equals-laden-text",
			doc:  "<r>" + strings.Repeat("<p>x=1; y=2; a==b; c=d=e=f=g</p>", 200) + "</r>",
			max:  3.0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hint, colCap, actual, ratio := hintRatio(t, tc.doc)
			if float64(hint) > tc.max*float64(actual)+slack {
				t.Fatalf("hint %d over-allocates for %d nodes (ratio %.2f, max %.2f): column pre-allocation would balloon",
					hint, actual, ratio, tc.max)
			}
			// The hint sizes only the loader's scratch: every column of the
			// finished tree is copied out at its exact size.
			if colCap != actual {
				t.Fatalf("column capacity %d for %d nodes: the tree's columns are not exactly sized", colCap, actual)
			}
			// The hint must also not collapse: a drastic under-estimate
			// forfeits the pre-allocation entirely.
			if float64(hint) < 0.5*float64(actual) {
				t.Fatalf("hint %d under-allocates for %d nodes (ratio %.2f)", hint, actual, ratio)
			}
		})
	}
}
