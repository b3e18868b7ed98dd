package rewrite

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"xqtp/internal/core"
	"xqtp/internal/parser"
	"xqtp/internal/xdm"
	"xqtp/internal/xdm/xdmref"
)

var testSingletons = map[string]bool{"d": true, "input": true, "dot": true}

func rewriteQuery(t *testing.T, q string) core.Expr {
	t.Helper()
	e, err := parser.Parse(q)
	if err != nil {
		t.Fatalf("parse %s: %v", q, err)
	}
	c, err := core.Normalize(e, "dot")
	if err != nil {
		t.Fatalf("normalize %s: %v", q, err)
	}
	return Rewrite(c, Options{SingletonVars: testSingletons})
}

// Q1a, Q1b and Q1c must rewrite to the same TPNF′ expression (the paper's
// Q1-tp).
func TestQ1VariantsConverge(t *testing.T) {
	q1a := rewriteQuery(t, `$d//person[emailaddress]/name`)
	q1b := rewriteQuery(t, `(for $x in $d//person[emailaddress] return $x)/name`)
	q1c := rewriteQuery(t, `let $x := for $y in $d//person where $y/emailaddress return $y return $x/name`)
	sa, sb, sc := core.String(q1a), core.String(q1b), core.String(q1c)
	if sa != sb {
		t.Errorf("Q1a and Q1b diverge:\n  %s\n  %s", sa, sb)
	}
	if sa != sc {
		t.Errorf("Q1a and Q1c diverge:\n  %s\n  %s", sa, sc)
	}

	// The shape of Q1-tp: a single surrounding ddo over left-nested fors,
	// with the predicate as a where clause; no lets, no typeswitch, no
	// inner ddo.
	if strings.Count(sa, "ddo(") != 1 {
		t.Errorf("Q1-tp should contain exactly one ddo: %s", sa)
	}
	for _, banned := range []string{"typeswitch", "let $", "count(", "boolean("} {
		if strings.Contains(sa, banned) {
			t.Errorf("Q1-tp still contains %q: %s", banned, sa)
		}
	}
	top, ok := q1a.(*core.Call)
	if !ok || top.Name != "ddo" {
		t.Fatalf("top of Q1-tp is %T, want ddo", q1a)
	}
	f1, ok := top.Args[0].(*core.For)
	if !ok {
		t.Fatalf("ddo arg is %T", top.Args[0])
	}
	if st, ok := f1.Return.(*core.Step); !ok || st.Test.Name != "name" {
		t.Errorf("outer for should return child::name, got %s", core.String(f1.Return))
	}
	f2, ok := f1.In.(*core.For)
	if !ok || f2.Where == nil {
		t.Fatalf("middle for missing where: %s", sa)
	}
	if _, ok := f2.Return.(*core.Var); !ok {
		t.Errorf("middle for should return its variable: %s", core.String(f2.Return))
	}
	f3, ok := f2.In.(*core.For)
	if !ok {
		t.Fatalf("inner for missing: %s", sa)
	}
	if st, ok := f3.Return.(*core.Step); !ok || st.Axis != xdm.AxisDescendant || st.Test.Name != "person" {
		t.Errorf("inner for should return descendant::person: %s", core.String(f3.Return))
	}
	if _, ok := f3.In.(*core.Var); !ok {
		t.Errorf("inner for should range over $d: %s", core.String(f3.In))
	}
}

// The §5.1 path expression and its FLWOR variants must rewrite to the same
// core.
func TestFLWORVariantsConverge(t *testing.T) {
	variants := []string{
		`$input/site/people/person[emailaddress]/profile/interest`,
		`for $x1 in $input/site, $x2 in $x1/people, $x3 in $x2/person[emailaddress] return $x3/profile/interest`,
		`for $x1 in $input/site return for $x2 in $x1/people return $x2/person[emailaddress]/profile/interest`,
		`for $x3 in $input/site/people/person where $x3/emailaddress return $x3/profile/interest`,
		`for $x in $input/site/people/person[emailaddress], $i in $x/profile return $i/interest`,
		`for $p in $input/site/people/person[emailaddress] return $p/profile/interest`,
	}
	first := ""
	for i, v := range variants {
		s := core.String(rewriteQuery(t, v))
		if i == 0 {
			first = s
			continue
		}
		if s != first {
			t.Errorf("variant %d diverges:\n  path:    %s\n  variant: %s\n  (%s)", i, first, s, v)
		}
	}
	// All ddo calls are provably redundant for this child-only query.
	if strings.Contains(first, "ddo(") {
		t.Errorf("child-only path should lose all ddo calls: %s", first)
	}
}

// Q5 must NOT converge with Q1a: the map over persons keeps its inner ddo
// region separate.
func TestQ5StaysSplit(t *testing.T) {
	q1a := core.String(rewriteQuery(t, `$d//person[emailaddress]/name`))
	q5 := core.String(rewriteQuery(t, `for $x in $d//person[emailaddress] return $x/name`))
	if q1a == q5 {
		t.Fatalf("Q5 wrongly converged with Q1a: %s", q5)
	}
	// Q5 keeps its ddo *inside* the map (around the person region), not
	// around the whole query: the top-level expression stays a for.
	q5e := rewriteQuery(t, `for $x in $d//person[emailaddress] return $x/name`)
	top, ok := q5e.(*core.For)
	if !ok {
		t.Fatalf("Q5 top is %T, want for: %s", q5e, q5)
	}
	if c, ok := top.In.(*core.Call); !ok || c.Name != "ddo" {
		t.Errorf("Q5 person region should stay ddo-protected: %s", q5)
	}
}

// Positional predicates keep their positional variable and block loop
// splitting (paper §3).
func TestPositionalBlocksRewrites(t *testing.T) {
	q3 := rewriteQuery(t, `$d//person[1]/name`)
	s := core.String(q3)
	if !strings.Contains(s, " at $") {
		t.Errorf("positional variable was lost: %s", s)
	}
	if !strings.Contains(s, "= 1") {
		t.Errorf("positional comparison was lost: %s", s)
	}
	// No typeswitch left: the numeric case was selected statically.
	if strings.Contains(s, "typeswitch") {
		t.Errorf("typeswitch not eliminated: %s", s)
	}
}

// The non-positional predicate of Q2 becomes a plain comparison in a where
// clause.
func TestQ2Shape(t *testing.T) {
	s := core.String(rewriteQuery(t, `$d//person[name = "John"]/emailaddress`))
	if strings.Contains(s, "typeswitch") || strings.Contains(s, "boolean(") {
		t.Errorf("Q2 predicate not simplified: %s", s)
	}
	if !strings.Contains(s, `= "John"`) {
		t.Errorf("Q2 lost its comparison: %s", s)
	}
}

// randomDoc builds a random tree using the tags the test queries touch,
// including nested persons (the Q5 discriminator).
func randomDoc(rng *rand.Rand, n int) *xdm.Tree {
	tags := []string{"person", "name", "emailaddress", "profile", "interest", "site", "people", "a", "b"}
	root := xdmref.NewElement("site")
	nodes := []*xdmref.Node{root}
	for i := 0; i < n; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		el := xdmref.NewElement(tags[rng.Intn(len(tags))])
		if rng.Intn(3) == 0 {
			el.AppendChild(xdmref.NewText([]string{"John", "Mary", "x"}[rng.Intn(3)]))
		}
		parent.AppendChild(el)
		nodes = append(nodes, el)
	}
	return xdmref.Finalize(root).Tree
}

// Differential test: rewriting preserves semantics on randomized documents.
func TestRewritePreservesSemantics(t *testing.T) {
	queries := []string{
		`$d//person[emailaddress]/name`,
		`(for $x in $d//person[emailaddress] return $x)/name`,
		`let $x := for $y in $d//person where $y/emailaddress return $y return $x/name`,
		`$d//person[name = "John"]/emailaddress`,
		`$d//person[1]/name`,
		`$d//person[2]/name`,
		`$d//person[name = "John"]/emailaddress[1]`,
		`for $x in $d//person[emailaddress] return $x/name`,
		`$d//person[position() = last()]/name`,
		`$d/site/people/person[emailaddress]/profile/interest`,
		`$d//person[name]/name[1]`,
		`$d//a[b]/b`,
		`count($d//person)`,
		`$d//person[emailaddress][name = "Mary"]/name`,
		`for $x at $i in $d//person where $i = 2 return $x/name`,
		`$d//person[not(emailaddress)]/name`,
		`exists($d//person[name = "John"])`,
		`$d//person[descendant::person]/name`,
		`for $x in $d//person where $x/name = "John" or $x/emailaddress return $x/name`,
	}
	for _, q := range queries {
		e, err := parser.Parse(q)
		if err != nil {
			t.Fatalf("parse %s: %v", q, err)
		}
		orig, err := core.Normalize(e, "dot")
		if err != nil {
			t.Fatalf("normalize %s: %v", q, err)
		}
		rew := Rewrite(orig, Options{SingletonVars: testSingletons})
		for seed := int64(0); seed < 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tr := randomDoc(rng, 5+rng.Intn(60))
			env := (*core.Env)(nil).
				Bind("dot", xdm.Singleton(tr.RootNode())).
				Bind("d", xdm.Singleton(tr.RootNode()))
			want, err1 := core.Eval(orig, env)
			got, err2 := core.Eval(rew, env)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s seed %d: error mismatch %v vs %v", q, seed, err1, err2)
			}
			if !seqEqual(want, got) {
				t.Errorf("%s seed %d:\n  want %v\n  got  %v\n  rewritten: %s",
					q, seed, want, got, core.String(rew))
				break
			}
		}
	}
}

// seqEqual compares sequences item by item (nil and empty are equal).
func seqEqual(a, b xdm.Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Where-hoisting: a where clause that does not use its own loop variable
// converges with the path form (the variant-17 shape of §5.1).
func TestWhereHoisting(t *testing.T) {
	hoisted := core.String(rewriteQuery(t,
		`for $x1 in $input/site/people/person, $x2 in $x1/profile where $x1/emailaddress return $x2/interest`))
	path := core.String(rewriteQuery(t,
		`$input/site/people/person[emailaddress]/profile/interest`))
	if hoisted != path {
		t.Errorf("where-hoisting did not converge:\n  %s\n  %s", hoisted, path)
	}
}

// Quantified expressions lower to exists/empty over filtering loops, which
// the later phases turn into patterns.
func TestQuantifierRewrite(t *testing.T) {
	s := core.String(rewriteQuery(t, `some $x in $d//person satisfies $x/emailaddress`))
	if !strings.Contains(s, "exists(") || !strings.Contains(s, "where $") {
		t.Errorf("some-quantifier shape: %s", s)
	}
	s = core.String(rewriteQuery(t, `every $x in $d//person satisfies $x/emailaddress`))
	if !strings.Contains(s, "empty(") || !strings.Contains(s, "not(") {
		t.Errorf("every-quantifier shape: %s", s)
	}
}

// Union keeps exactly one ddo around the concatenation; the operand ddos
// are redundant under it.
func TestUnionRewrite(t *testing.T) {
	s := core.String(rewriteQuery(t, `$d//a | $d//b`))
	if got := strings.Count(s, "ddo("); got != 1 {
		t.Errorf("union should keep exactly 1 ddo, has %d: %s", got, s)
	}
}

// Rewriting is idempotent: rewriting a rewritten expression changes
// nothing.
func TestRewriteIdempotent(t *testing.T) {
	for _, q := range []string{
		`$d//person[emailaddress]/name`,
		`$d//person[1]/name`,
		`for $x in $d//person[emailaddress] return $x/name`,
		`$d/site/people/person[emailaddress]/profile/interest`,
	} {
		once := rewriteQuery(t, q)
		twice := Rewrite(once, Options{SingletonVars: testSingletons})
		if core.String(once) != core.String(twice) {
			t.Errorf("not idempotent for %s:\n  once:  %s\n  twice: %s", q, core.String(once), core.String(twice))
		}
	}
}
