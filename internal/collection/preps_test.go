package collection

import (
	"fmt"
	"testing"

	"xqtp/internal/join"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
)

// idPattern is IN#dot//id{out}: every genSources member has one match.
func idPattern() *pattern.Pattern {
	s := pattern.NewStep(xdm.AxisDescendant, xdm.NameTest("id"))
	s.Out = "out"
	return pattern.New("dot", s)
}

// The per-tuple path: a lookup that finds its join takes no lock and
// allocates nothing, on the member directly (fan-out) and through the
// corpus's tree map (fn:collection).
func TestPreparedHitAllocatesNothing(t *testing.T) {
	c, err := Ingest(genSources(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	pats := []*pattern.Pattern{idPattern(), idPattern(), idPattern()}
	for _, d := range c.Docs() {
		for _, pat := range pats {
			p, err := d.Prepared(join.Auto, d.Index, pat)
			if err != nil {
				t.Fatal(err)
			}
			if bs := p.EvalCtx(nil, d.Root()); len(bs) != 1 {
				t.Fatalf("%s: %d bindings, want 1", d.URI, len(bs))
			}
		}
	}
	warm := c.PrepStats()
	if want := c.Len() * len(pats); warm.Size != want || int(warm.Misses) != want || warm.Hits != 0 {
		t.Fatalf("after the first lookups: %+v", warm)
	}
	d, last := c.Doc(2), pats[len(pats)-1]
	check := func(p *join.Prepared, err error) {
		if err != nil || p == nil {
			t.Fatal(p, err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { check(d.Prepared(join.Auto, d.Index, last)) }); avg != 0 {
		t.Fatalf("%v allocations per member-table hit, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { check(c.Prepared(join.Auto, d.Index, last)) }); avg != 0 {
		t.Fatalf("%v allocations per hit through the corpus, want 0", avg)
	}
	if got := c.PrepStats(); got.Misses != warm.Misses || got.Hits != 202 {
		t.Fatalf("after 2 x 101 hits: %+v", got)
	}
	// Another algorithm is another join; another member's index is nobody's
	// to keep here.
	if _, err := d.Prepared(join.NestedLoop, d.Index, last); err != nil {
		t.Fatal(err)
	}
	if p, err := d.Prepared(join.Auto, c.Doc(0).Index, last); err != nil || len(p.EvalCtx(nil, c.Doc(0).Root())) != 1 {
		t.Fatal(p, err)
	}
	if got := c.PrepStats(); got.Size != warm.Size+1 || got.Misses != warm.Misses+1 {
		t.Fatalf("after one new (pattern, algorithm) and one foreign index: %+v", got)
	}
}

// A member resolves a name to its tree's symbol once: later lookups find it
// in the member's table without allocating, through the member (fan-out) and
// through the corpus (fn:collection); a name the tree lacks resolves to
// NoSym, a tree of no member is not owned, and the table stops growing at its
// bound.
func TestSymForResolvesOncePerMember(t *testing.T) {
	c, err := Ingest(genSources(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range c.Docs() {
		tr := d.Tree()
		for _, name := range []string{"id", "doc", "alpha", "nosuch"} {
			want, _ := tr.Syms.Lookup(name)
			for k := 0; k < 2; k++ {
				if s, owned := d.SymFor(tr, name); !owned || s != want {
					t.Fatalf("%s: SymFor(%q) = %d, %v; want %d, true", d.URI, name, s, owned, want)
				}
				if s, owned := c.SymFor(tr, name); !owned || s != want {
					t.Fatalf("%s: corpus SymFor(%q) = %d, %v; want %d, true", d.URI, name, s, owned, want)
				}
			}
		}
		if n := resolvedNames(d); n != 4 {
			t.Fatalf("%s: %d resolved names, want 4", d.URI, n)
		}
	}
	d, other := c.Doc(0), c.Doc(1).Tree()
	if _, owned := d.SymFor(other, "id"); owned {
		t.Fatal("a member owns another member's tree")
	}
	if _, owned := c.SymFor(xdm.NewTreeBuilder(1).Finish(), "id"); owned {
		t.Fatal("the corpus owns a tree of no member")
	}
	if avg := testing.AllocsPerRun(100, func() { d.SymFor(d.Tree(), "id") }); avg != 0 {
		t.Fatalf("%v allocations per resolved-name hit, want 0", avg)
	}
	for i := 0; i < 2*memberSymCap; i++ {
		d.SymFor(d.Tree(), fmt.Sprintf("n%d", i))
	}
	if n := resolvedNames(d); n != memberSymCap {
		t.Fatalf("%d resolved names after %d more, want the bound %d", n, 2*memberSymCap, memberSymCap)
	}
}

func resolvedNames(d *Doc) int {
	n := 0
	for e := d.syms.Load(); e != nil; e = e.next {
		n++
	}
	return n
}
