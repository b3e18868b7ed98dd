package optimize

import (
	"testing"

	"xqtp/internal/algebra"
)

var shareQueries = []string{
	`$d//person[emailaddress]/name`,
	`$d/site/people/person[1]/name`,
	`for $x in $d//person where $x/emailaddress return ($x/name, $x/profile/interest)`,
	`for $b in $d//open_auction where count($b/bidder) > 2 return $b/itemref`,
}

// renameField shares every subtree that does not mention the field: renaming
// a field the plan does not use returns the plan itself.
func TestRenameAbsentFieldSharesPlan(t *testing.T) {
	for _, q := range shareQueries {
		for _, p := range []algebra.Expr{unoptimizedFor(t, q), planFor(t, q)} {
			if out := renameField(p, "absent", "other"); out != p {
				t.Errorf("%s: renaming an absent field copied the plan", q)
			}
		}
	}
}

// Optimize never mutates its input: the compiled plan a Query keeps stays
// what compilation produced, although the optimized plan shares its
// unchanged subtrees.
func TestOptimizeLeavesInputIntact(t *testing.T) {
	for _, q := range shareQueries {
		p := unoptimizedFor(t, q)
		before := algebra.String(p)
		Optimize(p, Options{SingletonVars: singles})
		if after := algebra.String(p); after != before {
			t.Errorf("%s: Optimize changed its input:\n  before %s\n  after  %s", q, before, after)
		}
	}
}
