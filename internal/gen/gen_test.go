package gen

import (
	"testing"

	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

func maxDepth(n *xdm.Node) int {
	d := 0
	for _, c := range xdm.Step(n, xdm.AxisChild, xdm.StarTest()) {
		if cd := maxDepth(c); cd > d {
			d = cd
		}
	}
	return d + 1
}

func parentName(n *xdm.Node) string {
	return xdm.Step(n, xdm.AxisParent, xdm.StarTest())[0].Name
}

func TestMemberShape(t *testing.T) {
	tr := Member(MemberConfig{Seed: 42, Depth: 4, NumTags: 100, NumNodes: 5000})
	elems := 0
	tags := map[string]bool{}
	for _, n := range tr.Nodes() {
		if n.Kind == xdm.ElementNode {
			elems++
			tags[n.Name] = true
		}
	}
	if elems != 5001 { // root + 5000 generated
		t.Errorf("element count = %d", elems)
	}
	// Depth: root element is level 1; generated nodes reach at most depth 4 below it.
	if d := maxDepth(tr.DocElem()); d > 5 {
		t.Errorf("max depth = %d, want <= 5", d)
	}
	if len(tags) < 80 { // 100 tags, 5000 draws: all but a few appear
		t.Errorf("only %d distinct tags", len(tags))
	}
	// Deterministic.
	tr2 := Member(MemberConfig{Seed: 42, Depth: 4, NumTags: 100, NumNodes: 5000})
	if tr2.CountNodes() != tr.CountNodes() {
		t.Error("generator not deterministic")
	}
}

func TestMemberForSize(t *testing.T) {
	target := 200_000
	tr := MemberForSize(7, target)
	got := len(xmlstore.SerializeString(tr.RootNode()))
	if got < target/2 || got > target*2 {
		t.Errorf("serialized size = %d, target %d (off by more than 2x)", got, target)
	}
}

func TestDeepShape(t *testing.T) {
	tr := Deep(1, 5000, 15, "t1")
	elems := 0
	for _, n := range tr.Nodes() {
		if n.Kind == xdm.ElementNode {
			elems++
			if n.Name != "t1" {
				t.Fatalf("unexpected tag %q", n.Name)
			}
		}
	}
	if elems != 5000 {
		t.Errorf("element count = %d", elems)
	}
	if d := maxDepth(tr.DocElem()); d != 15 {
		t.Errorf("max depth = %d, want 15 (spine)", d)
	}
	// First-child chain reaches the bottom.
	n := tr.DocElem()
	for i := 1; i < 15; i++ {
		kids := xdm.Step(n, xdm.AxisChild, xdm.StarTest())
		if len(kids) == 0 {
			t.Fatalf("first-child chain broke at depth %d", i)
		}
		n = kids[0]
	}
}

func TestXMarkShape(t *testing.T) {
	tr := XMark(XMarkConfig{Seed: 3, People: 100})
	site := tr.DocElem()
	if site.Name != "site" {
		t.Fatalf("root = %s", site.Name)
	}
	persons := xdm.Step(site, xdm.AxisDescendant, xdm.NameTest("person"))
	if len(persons) != 100 {
		t.Errorf("%d persons", len(persons))
	}
	withEmail := 0
	for _, p := range persons {
		if parentName(p) != "people" {
			t.Fatal("person not under people")
		}
		if len(xdm.Step(p, xdm.AxisChild, xdm.NameTest("emailaddress"))) > 0 {
			withEmail++
		}
		if len(xdm.Step(p, xdm.AxisChild, xdm.NameTest("profile"))) != 1 {
			t.Fatal("person without profile")
		}
	}
	if withEmail < 60 || withEmail > 95 {
		t.Errorf("persons with email = %d, want ~80%%", withEmail)
	}
	for _, tag := range []string{"regions", "open_auctions", "closed_auctions", "categories", "item", "bidder", "price"} {
		if len(xdm.Step(site, xdm.AxisDescendant, xdm.NameTest(tag))) == 0 {
			t.Errorf("no %s elements generated", tag)
		}
	}
	interests := xdm.Step(site, xdm.AxisDescendant, xdm.NameTest("interest"))
	if len(interests) == 0 {
		t.Error("no interests generated")
	}
	for _, in := range interests {
		if parentName(in) != "profile" {
			t.Fatal("interest not under profile")
		}
	}
}
