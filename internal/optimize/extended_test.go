package optimize

import (
	"strings"
	"testing"

	"xqtp/internal/algebra"
)

// The extended fragment still feeds the pattern detector: quantifiers,
// union branches, conditionals and aggregations all contain maximal
// TupleTreePatterns.
func TestExtendedFragmentPlans(t *testing.T) {
	cases := []struct {
		query    string
		patterns int
		contains string
	}{
		{
			`some $x in $d//person satisfies $x/emailaddress`,
			1,
			// The satisfies clause merges into the pattern as a predicate
			// branch; the whole quantifier is an emptiness test over it.
			"fn:exists(MapToItem{IN#out1}(TupleTreePattern[IN#dot1/descendant::person{out1}[child::emailaddress]]",
		},
		{
			`every $x in $d//person satisfies $x/name`,
			1,
			// Negated conditions stay in a Select (not a pattern shape).
			"fn:empty(",
		},
		{
			`$d//a | $d//b`,
			2,
			// Union keeps its surrounding ddo over the concatenation.
			"fs:ddo(Seq(",
		},
		{
			`if ($d//a) then $d//b else ()`,
			2,
			"If{",
		},
		{
			`count($d//person[emailaddress])`,
			1,
			// Rule (f) drops the ddo: the operator's output is already in
			// distinct document order, so count sees the right cardinality.
			"fn:count(MapToItem",
		},
		{
			`sum(for $x in $d//person return count($x/emailaddress))`,
			1,
			"fn:sum(",
		},
		{
			`$d//person[boolean(emailaddress) and name = "John"]/name`,
			2,
			// Rule (e) merges the existence conjunct as a branch and keeps
			// the value comparison in a residual Select, in either order.
			`Select{TreeJoin[child::name](IN#out2) = "John"}(TupleTreePattern[IN#dot1/descendant::person{out2}[child::emailaddress]](`,
		},
		{
			`$d//person[name = "John" and boolean(emailaddress)]/name`,
			2,
			`Select{TreeJoin[child::name](IN#out2) = "John"}(TupleTreePattern[IN#dot1/descendant::person{out2}[child::emailaddress]](`,
		},
	}
	for _, tc := range cases {
		p := planFor(t, tc.query)
		s := algebra.String(p)
		if got := algebra.CountOperators(p)["TupleTreePattern"]; got != tc.patterns {
			t.Errorf("%s: %d patterns, want %d\n  %s", tc.query, got, tc.patterns, s)
		}
		if !strings.Contains(s, tc.contains) {
			t.Errorf("%s: plan missing %q:\n  %s", tc.query, tc.contains, s)
		}
	}
}

// Arithmetic in predicates stays navigational inside the Select (like the
// paper's Q2 comparison) but the surrounding steps still merge.
func TestArithmeticPredicatePlan(t *testing.T) {
	p := planFor(t, `$d//person[count(name) + count(emailaddress) = 2]/name`)
	s := algebra.String(p)
	counts := algebra.CountOperators(p)
	if counts["TupleTreePattern"] != 2 {
		t.Errorf("want 2 patterns, got %d: %s", counts["TupleTreePattern"], s)
	}
	if counts["Select"] != 1 || counts["Arith"] != 1 {
		t.Errorf("predicate shape wrong: %v\n%s", counts, s)
	}
}
