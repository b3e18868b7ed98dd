package xqtp

import (
	"sort"
	"strings"
	"testing"

	"xqtp/internal/join"
)

// choiceFor renders what Auto's rule does with every pattern operator of
// the query's Auto plan on the document, in lowering order:
// "skip(empty)" when the emptiness proof fires, otherwise the chosen
// algorithm's name. Multiple pattern operators join with "+".
func choiceFor(t *testing.T, q *Query, d *Document) string {
	t.Helper()
	p, err := q.physicalPlan(Auto)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	pats := p.Patterns()
	if len(pats) == 0 {
		return "none"
	}
	index, root := d.member().Index, d.Root()
	parts := make([]string, len(pats))
	for i, pat := range pats {
		est := join.ChooseEstimate(index, root, pat)
		if est.Empty {
			parts[i] = "skip(empty)"
		} else {
			parts[i] = est.Alg.String()
		}
	}
	return strings.Join(parts, "+")
}

// goldenChoices pins Auto's algorithm pick for every corpus query over both
// document families. The value is the per-pattern-operator decision of the
// Auto plan (see choiceFor).
//
// A failure here means the rule, the emptiness proof or the SCJoin fragment
// changed. That is sometimes the point of a change — but never an accident to
// wave through: re-run the Table 1 experiment (go run ./cmd/treebench -exp
// table1 -algs nl,twig,sc,auto) and confirm Auto still matches or beats the
// best hand-picked algorithm on every query before updating the entry.
var goldenChoices = map[string]string{
	"Fig4/member":              "skip(empty)",
	"Fig4/xmark":               "SCJoin",
	"Q1a/member":               "skip(empty)",
	"Q1a/xmark":                "SCJoin",
	"Q1b/member":               "skip(empty)",
	"Q1b/xmark":                "SCJoin",
	"Q1c/member":               "skip(empty)",
	"Q1c/xmark":                "SCJoin",
	"Q2/member":                "skip(empty)+skip(empty)",
	"Q2/xmark":                 "SCJoin+SCJoin",
	"Q3/member":                "skip(empty)+skip(empty)",
	"Q3/xmark":                 "SCJoin+SCJoin",
	"Q4/member":                "skip(empty)+skip(empty)",
	"Q4/xmark":                 "SCJoin+SCJoin",
	"Q5/member":                "skip(empty)+skip(empty)",
	"Q5/xmark":                 "SCJoin+SCJoin",
	"QE1/member":               "SCJoin",
	"QE1/xmark":                "skip(empty)",
	"QE2/member":               "SCJoin+SCJoin+SCJoin",
	"QE2/xmark":                "skip(empty)+skip(empty)+skip(empty)",
	"QE3/member":               "SCJoin",
	"QE3/xmark":                "skip(empty)",
	"QE4/member":               "SCJoin",
	"QE4/xmark":                "skip(empty)",
	"QE5/member":               "SCJoin+SCJoin+SCJoin",
	"QE5/xmark":                "skip(empty)+skip(empty)+skip(empty)",
	"QE6/member":               "SCJoin",
	"QE6/xmark":                "skip(empty)",
	"Sec53-k3/member":          "skip(empty)+skip(empty)+skip(empty)",
	"Sec53-k3/xmark":           "skip(empty)+skip(empty)+skip(empty)",
	"XM-email-child/member":    "skip(empty)",
	"XM-email-child/xmark":     "SCJoin",
	"XM-email-desc/member":     "skip(empty)",
	"XM-email-desc/xmark":      "SCJoin",
	"XM-increase-child/member": "skip(empty)",
	"XM-increase-child/xmark":  "SCJoin",
	"XM-increase-desc/member":  "skip(empty)",
	"XM-increase-desc/xmark":   "SCJoin",
	"XM-interest-child/member": "skip(empty)",
	"XM-interest-child/xmark":  "SCJoin",
	"XM-interest-desc/member":  "skip(empty)",
	"XM-interest-desc/xmark":   "SCJoin",
	"XM-price-child/member":    "skip(empty)",
	"XM-price-child/xmark":     "SCJoin",
	"XM-price-desc/member":     "skip(empty)",
	"XM-price-desc/xmark":      "SCJoin",
}

// TestGoldenAlgorithmChoices locks Auto's decisions over the full paper
// query corpus (Fig. 1, Table 1's QE set, both Fig. 6 forms, Fig. 4, the
// §5.3 chain) on both document families. Any change fails loudly with
// instructions; silent choice drift is how plan regressions ship.
func TestGoldenAlgorithmChoices(t *testing.T) {
	docs := []struct {
		name string
		doc  *Document
	}{
		{"xmark", NewXMarkDocument(7, 120)},
		{"member", NewMemberDocument(7, 150_000)},
	}
	corpus := make([]PaperQuery, 0, 32)
	corpus = append(corpus, Figure1Queries...)
	corpus = append(corpus, QEQueries...)
	for _, pair := range Figure6Queries {
		corpus = append(corpus, PaperQuery{pair.Name + "-child", pair.Child})
		corpus = append(corpus, PaperQuery{pair.Name + "-desc", pair.Descendant})
	}
	corpus = append(corpus, PaperQuery{"Fig4", Fig4Query})
	corpus = append(corpus, PaperQuery{"Sec53-k3", Section53Query(3)})

	seen := make(map[string]bool, len(goldenChoices))
	for _, pq := range corpus {
		q, err := Prepare(pq.Query)
		if err != nil {
			t.Fatalf("%s: %v", pq.Name, err)
		}
		for _, d := range docs {
			key := pq.Name + "/" + d.name
			seen[key] = true
			got := choiceFor(t, q, d.doc)
			want, ok := goldenChoices[key]
			if !ok {
				t.Errorf("%s: no golden entry; Auto chose %q — add the entry after validating against Table 1", key, got)
				continue
			}
			if got != want {
				t.Errorf("%s: Auto's choice changed %q -> %q\n"+
					"If the change is intentional, re-run the Table 1 experiment and confirm Auto\n"+
					"still matches or beats the best hand-picked algorithm on every query, then\n"+
					"update goldenChoices. Do NOT update the table to silence the failure.", key, want, got)
			}
		}
	}
	var stale []string
	for key := range goldenChoices {
		if !seen[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("goldenChoices has stale entry %q (query or doc no longer in the corpus)", key)
	}
}
