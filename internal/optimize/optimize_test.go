package optimize

import (
	"strings"
	"testing"

	"xqtp/internal/algebra"
	"xqtp/internal/compile"
	"xqtp/internal/core"
	"xqtp/internal/parser"
	"xqtp/internal/rewrite"
)

var singles = map[string]bool{"d": true, "input": true, "dot": true}

func planFor(t *testing.T, q string) algebra.Expr {
	t.Helper()
	e, err := parser.Parse(q)
	if err != nil {
		t.Fatalf("parse %s: %v", q, err)
	}
	c, err := core.Normalize(e, "dot")
	if err != nil {
		t.Fatalf("normalize %s: %v", q, err)
	}
	c = rewrite.Rewrite(c, rewrite.Options{SingletonVars: singles})
	p, err := compile.Compile(c)
	if err != nil {
		t.Fatalf("compile %s: %v", q, err)
	}
	return Optimize(p, Options{SingletonVars: singles})
}

func unoptimizedFor(t *testing.T, q string) algebra.Expr {
	t.Helper()
	e, err := parser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Normalize(e, "dot")
	if err != nil {
		t.Fatal(err)
	}
	c = rewrite.Rewrite(c, rewrite.Options{SingletonVars: singles})
	p, err := compile.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Q1a/Q1b/Q1c must optimize to the paper's P5: a single TupleTreePattern
// with the complete pattern, under one MapToItem, over one MapFromItem.
func TestQ1OptimizesToP5(t *testing.T) {
	plans := []string{
		`$d//person[emailaddress]/name`,
		`(for $x in $d//person[emailaddress] return $x)/name`,
		`let $x := for $y in $d//person where $y/emailaddress return $y return $x/name`,
	}
	var first string
	for i, q := range plans {
		p := planFor(t, q)
		s := algebra.String(p)
		if i == 0 {
			first = s
			// P5 shape.
			mti, ok := p.(*algebra.MapToItem)
			if !ok {
				t.Fatalf("top is %T: %s", p, s)
			}
			ttp, ok := mti.Input.(*algebra.TupleTreePattern)
			if !ok {
				t.Fatalf("below MapToItem: %T: %s", mti.Input, s)
			}
			ps := ttp.Pattern.String()
			want := "/descendant::person[child::emailaddress]/child::name"
			if !strings.Contains(ps, want) {
				t.Errorf("pattern = %s, want contains %s", ps, want)
			}
			if _, ok := ttp.Input.(*algebra.MapFromItem); !ok {
				t.Errorf("pattern input is %T, want MapFromItem: %s", ttp.Input, s)
			}
			counts := algebra.CountOperators(p)
			if counts["TupleTreePattern"] != 1 {
				t.Errorf("want exactly 1 TupleTreePattern, got %d: %s", counts["TupleTreePattern"], s)
			}
			if counts["TreeJoin"] != 0 || counts["fn:ddo"] != 0 || counts["Select"] != 0 {
				t.Errorf("residual operators in P5: %v: %s", counts, s)
			}
		} else if s != first {
			t.Errorf("plan %d diverges:\n  %s\n  %s", i, first, s)
		}
	}
}

// Q2 keeps its value-comparison Select between two TupleTreePatterns (the
// paper's Q2 plan).
func TestQ2PlanShape(t *testing.T) {
	p := planFor(t, `$d//person[name = "John"]/emailaddress`)
	s := algebra.String(p)
	counts := algebra.CountOperators(p)
	if counts["TupleTreePattern"] != 2 {
		t.Errorf("want 2 TupleTreePatterns, got %d: %s", counts["TupleTreePattern"], s)
	}
	if counts["Select"] != 1 {
		t.Errorf("want 1 residual Select, got %d: %s", counts["Select"], s)
	}
	// The comparison's TreeJoin stays navigational inside the Select.
	if counts["TreeJoin"] != 1 {
		t.Errorf("want 1 TreeJoin in the comparison, got %d: %s", counts["TreeJoin"], s)
	}
	if counts["fn:ddo"] != 0 {
		t.Errorf("ddo not eliminated: %s", s)
	}
	mti, ok := p.(*algebra.MapToItem)
	if !ok {
		t.Fatalf("top: %s", s)
	}
	ttp, ok := mti.Input.(*algebra.TupleTreePattern)
	if !ok || !strings.Contains(ttp.Pattern.String(), "child::emailaddress") {
		t.Fatalf("outer pattern wrong: %s", s)
	}
	if _, ok := ttp.Input.(*algebra.Select); !ok {
		t.Errorf("Select not preserved between patterns: %s", s)
	}
}

// Q5 becomes two tree patterns composed through a map: the outer pattern is
// evaluated per tuple (input IN), not bulk.
func TestQ5PlanShape(t *testing.T) {
	p := planFor(t, `for $x in $d//person[emailaddress] return $x/name`)
	s := algebra.String(p)
	counts := algebra.CountOperators(p)
	if counts["TupleTreePattern"] != 2 {
		t.Errorf("want 2 TupleTreePatterns, got %d: %s", counts["TupleTreePattern"], s)
	}
	// One of them must take IN (per-tuple evaluation inside the map).
	if counts["IN"] != 1 {
		t.Errorf("want 1 per-tuple pattern input, got %d: %s", counts["IN"], s)
	}
	q1a := algebra.String(planFor(t, `$d//person[emailaddress]/name`))
	if s == q1a {
		t.Error("Q5 plan must differ from Q1a plan")
	}
}

// All syntactic variants of the §5.1 path expression produce the exact same
// plan with a single TupleTreePattern.
func TestVariantPlansIdentical(t *testing.T) {
	variants := []string{
		`$input/site/people/person[emailaddress]/profile/interest`,
		`for $x1 in $input/site, $x2 in $x1/people, $x3 in $x2/person[emailaddress] return $x3/profile/interest`,
		`for $x1 in $input/site return for $x2 in $x1/people return $x2/person[emailaddress]/profile/interest`,
		`for $x3 in $input/site/people/person where $x3/emailaddress return $x3/profile/interest`,
		`for $p in $input/site/people/person[emailaddress] return $p/profile/interest`,
		`for $x in $input/site/people/person[emailaddress], $i in $x/profile return $i/interest`,
	}
	var first string
	for i, v := range variants {
		p := planFor(t, v)
		s := algebra.String(p)
		if i == 0 {
			first = s
			counts := algebra.CountOperators(p)
			if counts["TupleTreePattern"] != 1 {
				t.Fatalf("want a single TupleTreePattern, got %d: %s", counts["TupleTreePattern"], s)
			}
			if counts["TreeJoin"] != 0 || counts["Select"] != 0 || counts["fn:ddo"] != 0 {
				t.Errorf("residual operators: %v: %s", counts, s)
			}
			want := "child::site/child::people/child::person[child::emailaddress]/child::profile/child::interest"
			if !strings.Contains(s, want) {
				t.Errorf("pattern = %s, want contains %s", s, want)
			}
		} else if s != first {
			t.Errorf("variant %d produced a different plan:\n  %s\n  %s\n  (%s)", i, first, s, v)
		}
	}
}

// Nested predicate branches (QE1) merge fully into one twig.
func TestQE1Twig(t *testing.T) {
	p := planFor(t, `$input/desc::t01[child::t02[child::t03[child::t04]]]`)
	s := algebra.String(p)
	counts := algebra.CountOperators(p)
	if counts["TupleTreePattern"] != 1 {
		t.Fatalf("want 1 TupleTreePattern, got %d: %s", counts["TupleTreePattern"], s)
	}
	want := "descendant::t01"
	if !strings.Contains(s, want) || !strings.Contains(s, "[child::t02[child::t03[child::t04]]]") {
		t.Errorf("twig not fully merged: %s", s)
	}
	if counts["Select"] != 0 || counts["TreeJoin"] != 0 {
		t.Errorf("residual operators: %v: %s", counts, s)
	}
}

// QE3: two predicate branches on a shared spine step.
func TestQE3Twig(t *testing.T) {
	p := planFor(t, `$input/desc::t01[child::t02[child::t03]/child::t04[child::t03]]`)
	s := algebra.String(p)
	if algebra.CountOperators(p)["TupleTreePattern"] != 1 {
		t.Fatalf("want 1 TupleTreePattern: %s", s)
	}
	if !strings.Contains(s, "[child::t02[child::t03]/child::t04[child::t03]]") {
		t.Errorf("nested path predicate not merged: %s", s)
	}
}

// The §5.3 positional chain keeps one single-step pattern per step,
// separated by Head operators (positional-first rewrite).
func TestPositionalChainPlan(t *testing.T) {
	p := planFor(t, `/t1[1]/t1[1]/t1[1]`)
	s := algebra.String(p)
	counts := algebra.CountOperators(p)
	if counts["Head"] != 3 {
		t.Errorf("want 3 Head operators, got %d: %s", counts["Head"], s)
	}
	if counts["TupleTreePattern"] != 3 {
		t.Errorf("want 3 single-step patterns, got %d: %s", counts["TupleTreePattern"], s)
	}
	if counts["MapIndex"] != 0 || counts["Select"] != 0 {
		t.Errorf("positional-first rewrite missed: %v: %s", counts, s)
	}
}

// Q3 ($d//person[1]/name): descendant step makes the context potentially
// nested, so the position must NOT collapse via Head-merging into the
// pattern; the plan keeps the positional region separate.
func TestQ3KeepsPositional(t *testing.T) {
	p := planFor(t, `$d//person[1]/name`)
	s := algebra.String(p)
	counts := algebra.CountOperators(p)
	if counts["Head"]+counts["MapIndex"] == 0 {
		t.Errorf("positional operator lost: %s", s)
	}
	if counts["TupleTreePattern"] < 2 {
		t.Errorf("expected patterns on both sides of the positional filter: %s", s)
	}
}

// The unoptimized plan for Q1-tp is the paper's P1: maps + TreeJoins + ddo,
// no patterns.
func TestUnoptimizedIsP1(t *testing.T) {
	p := unoptimizedFor(t, `$d//person[emailaddress]/name`)
	counts := algebra.CountOperators(p)
	if counts["TupleTreePattern"] != 0 {
		t.Errorf("unoptimized plan already has patterns: %s", algebra.String(p))
	}
	if counts["TreeJoin"] != 3 {
		t.Errorf("want 3 TreeJoins (person, emailaddress, name), got %d: %s", counts["TreeJoin"], algebra.String(p))
	}
	if counts["fn:ddo"] != 1 || counts["Select"] != 1 {
		t.Errorf("P1 shape wrong: %v", counts)
	}
}

// Optimization is idempotent.
func TestOptimizeIdempotent(t *testing.T) {
	for _, q := range []string{
		`$d//person[emailaddress]/name`,
		`$d//person[name = "John"]/emailaddress`,
		`for $x in $d//person[emailaddress] return $x/name`,
		`/t1[1]/t1[1]`,
	} {
		p := planFor(t, q)
		p2 := Optimize(p, Options{SingletonVars: singles})
		if !algebra.Equal(p, p2) {
			t.Errorf("not idempotent for %s:\n  %s\n  %s", q, algebra.String(p), algebra.String(p2))
		}
	}
}

// Rule (b) knows that fn:collection() and fn:doc() are ordered, duplicate-free
// and unnested, and that the current tuple under IN is one tuple of
// single-item fields: the two serve_corpus queries and a fn:doc-rooted path
// grow the same complete patterns a $input-rooted path does.
func TestDocAccessAndDependentInTakeBulkRule(t *testing.T) {
	for _, tc := range []struct {
		query    string
		patterns int
		want     string
	}{
		{`fn:collection()//person[emailaddress]/name`, 1,
			`MapToItem{IN#out1}(TupleTreePattern[IN#dot1/descendant::person[child::emailaddress]/child::name{out1}](MapFromItem{[dot1 : IN]}(fn:collection())))`},
		{`fn:doc("u")//a[b]/c`, 1,
			`MapToItem{IN#out1}(TupleTreePattern[IN#dot1/descendant::a[child::b]/child::c{out1}](MapFromItem{[dot1 : IN]}(fn:doc("u"))))`},
		{`for $p in $input/site/people/person where $p/emailaddress return ($p/name, $p/profile/interest)`, 2,
			`TupleTreePattern[IN#out4/child::profile/child::interest{out1}](IN)`},
	} {
		p := planFor(t, tc.query)
		s := algebra.String(p)
		if got := algebra.CountOperators(p)["TupleTreePattern"]; got != tc.patterns {
			t.Errorf("%s: %d TupleTreePatterns, want %d: %s", tc.query, got, tc.patterns, s)
		}
		if !strings.Contains(s, tc.want) {
			t.Errorf("%s:\n  plan %s\n  want %s", tc.query, s, tc.want)
		}
	}
}

// A let-bound field may hold a whole sequence, so under IN it is not known to
// be ordered and unnested: a step from it keeps the per-tuple form.
func TestLetBoundFieldUnderInStaysPerTuple(t *testing.T) {
	o := &optimizer{letNames: map[string]bool{"y": true}}
	if o.fieldUO(&algebra.In{}, "y") {
		t.Error("fieldUO(IN, let-bound field) = true")
	}
	if !o.fieldUO(&algebra.In{}, "x") {
		t.Error("fieldUO(IN, single-item field) = false")
	}
	s := algebra.String(planFor(t, `for $x in $d/a let $y := ($x/b, $x/c) return count($y) + count($y/e)`))
	want := `TupleTreePattern[IN#dot4/child::e{out1}](MapFromItem{[dot4 : IN]}(IN#dot3))`
	if !strings.Contains(s, want) {
		t.Errorf("plan %s\n  want %s", s, want)
	}
}
