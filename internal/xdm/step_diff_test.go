package xdm_test

import (
	"fmt"
	"strings"
	"testing"

	"xqtp/internal/gen"
	"xqtp/internal/xdm"
	"xqtp/internal/xdm/xdmref"
	"xqtp/internal/xmlstore"
)

var allAxes = []xdm.Axis{
	xdm.AxisChild, xdm.AxisDescendant, xdm.AxisDescendantOrSelf, xdm.AxisAttribute,
	xdm.AxisSelf, xdm.AxisParent, xdm.AxisAncestor, xdm.AxisAncestorOrSelf,
	xdm.AxisFollowingSibling, xdm.AxisPrecedingSibling, xdm.AxisFollowing, xdm.AxisPreceding,
}

// stepTests is {name, *, node(), text()} with a name for each principal
// kind, so the name tests match on both the element axes and @.
func stepTests(elem, attr string) []xdm.NodeTest {
	return []xdm.NodeTest{xdm.NameTest(elem), xdm.NameTest(attr), xdm.NameTest("absent"),
		xdm.StarTest(), xdm.AnyNodeTest(), xdm.TextTest()}
}

// TestStepMatchesPointerReference holds the column Step to the pointer
// data model's step (xdmref.Step, the pre-columns implementation) on every
// rank of generated and parsed documents — attributes and texts included as
// contexts — for all 12 axes and every kind of node test. The reference
// parse carries both representations, the linked nodes and the columns
// derived from them, so the two must agree rank for rank, each match the
// column tree's one node of its rank; the same document ingested by the
// scanner (columns only, nodes built on request) must agree rank for rank.
func TestStepMatchesPointerReference(t *testing.T) {
	const mixed = `<r a="1" b="2">lead<x>hi<y c="3"/>mid<y/></x>tail<z b="4"><x>deep<y>er</y></x></z></r>`
	docs := map[string]string{
		"xmark":  xmlstore.SerializeString(gen.XMark(gen.XMarkConfig{Seed: 3, People: 6}).RootNode()),
		"member": xmlstore.SerializeString(gen.Member(gen.MemberConfig{Seed: 2, Depth: 4, NumTags: 3, NumNodes: 60}).RootNode()),
		"mixed":  mixed,
	}
	names := map[string][2]string{"xmark": {"person", "id"}, "member": {"t02", "none"}, "mixed": {"y", "b"}}
	for label, text := range docs {
		ref, err := xdmref.ParseStd(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		ix, err := xmlstore.Ingest([]byte(text))
		if err != nil {
			t.Fatal(err)
		}
		cols := ix.Tree
		nm := names[label]
		for r := int32(0); int(r) < ref.Tree.CountNodes(); r++ {
			for _, axis := range allAxes {
				for _, test := range stepTests(nm[0], nm[1]) {
					want := xdmref.Step(ref.Nodes[r], axis, test)
					got := xdm.Step(ref.Tree.Node(r), axis, test)
					what := fmt.Sprintf("%s: rank %d %s::%s", label, r, axis, test)
					if len(got) != len(want) {
						t.Fatalf("%s: column step %v, pointer step %v", what, got, want)
					}
					for i := range want {
						if got[i].Pre != want[i].Pre || got[i] != ref.Tree.Node(int32(want[i].Pre)) {
							t.Fatalf("%s: item %d is %v, pointer step has %v", what, i, got[i], want[i])
						}
					}
					scanned := xdm.Step(cols.Node(r), axis, test)
					if len(scanned) != len(want) {
						t.Fatalf("%s on the ingested tree: %v, pointer step %v", what, scanned, want)
					}
					for i := range want {
						if scanned[i].Pre != want[i].Pre || scanned[i] != cols.Node(int32(want[i].Pre)) {
							t.Fatalf("%s on the ingested tree: item %d is %v, want rank %d", what, i, scanned[i], want[i].Pre)
						}
					}
				}
			}
		}
	}
}
