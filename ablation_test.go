package xqtp

import (
	"strings"
	"testing"
)

// The ablation knobs change plan shapes but never results.
func TestAblationsPreserveSemantics(t *testing.T) {
	doc, err := LoadXMLString(personDoc)
	if err != nil {
		t.Fatal(err)
	}
	deep := NewDeepDocument(9, 3000, 10, "t1")
	cases := []struct {
		query string
		docs  *Document
	}{
		{`$d//person[emailaddress]/name`, doc},
		{`$d//person[1]/name`, doc},
		{`for $x in $d//person[emailaddress] return $x/name`, doc},
		{`/t1[1]/t1[1]/t1[1]`, deep},
	}
	ablations := []CompileOptions{
		{TreePatterns: true, Rewrites: true, DisablePositionalFirst: true},
		{TreePatterns: true, Rewrites: true, DisableBulkConversion: true},
		{TreePatterns: true, Rewrites: true, DisablePositionalFirst: true, DisableBulkConversion: true},
	}
	for _, tc := range cases {
		ref := MustPrepare(tc.query)
		want, err := ref.Run(tc.docs, Staircase)
		if err != nil {
			t.Fatal(err)
		}
		for ai, opts := range ablations {
			q, err := PrepareWithOptions(tc.query, opts)
			if err != nil {
				t.Fatalf("%s ablation %d: %v", tc.query, ai, err)
			}
			for _, alg := range []Algorithm{NestedLoop, Twig, Staircase, Auto} {
				got, err := q.Run(tc.docs, alg)
				if err != nil {
					t.Fatalf("%s ablation %d (%v): %v", tc.query, ai, alg, err)
				}
				if strings.Join(values(t, want), "|") != strings.Join(values(t, got), "|") {
					t.Errorf("%s ablation %d (%v): results differ", tc.query, ai, alg)
				}
			}
		}
	}
}

// Disabling the positional-first rewrite removes Head operators.
func TestAblationPositionalFirstShape(t *testing.T) {
	on := MustPrepare(`/t1[1]/t1[1]`)
	off, err := PrepareWithOptions(`/t1[1]/t1[1]`,
		CompileOptions{TreePatterns: true, Rewrites: true, DisablePositionalFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.Operators()["Head"] == 0 {
		t.Errorf("positional-first did not fire: %s", on.Plan())
	}
	if off.Operators()["Head"] != 0 {
		t.Errorf("ablation left Head operators: %s", off.Plan())
	}
	if off.Operators()["MapIndex"] == 0 || off.Operators()["Select"] == 0 {
		t.Errorf("ablation should keep MapIndex/Select: %s", off.Plan())
	}
}

// Disabling bulk conversion forces per-tuple patterns (every TupleTreePattern
// reads IN).
func TestAblationBulkShape(t *testing.T) {
	off, err := PrepareWithOptions(Fig4Query,
		CompileOptions{TreePatterns: true, Rewrites: true, DisableBulkConversion: true})
	if err != nil {
		t.Fatal(err)
	}
	ops := off.Operators()
	if ops["TupleTreePattern"] < 2 {
		t.Errorf("bulk ablation should leave multiple per-step patterns, got %d:\n%s",
			ops["TupleTreePattern"], off.Plan())
	}
	if ops["IN"] == 0 {
		t.Errorf("bulk ablation should produce per-tuple (IN) patterns:\n%s", off.Plan())
	}
}

// Auto runs every Fig. 1 query correctly.
func TestAutoAlgorithm(t *testing.T) {
	doc, err := LoadXMLString(personDoc)
	if err != nil {
		t.Fatal(err)
	}
	for _, pq := range Figure1Queries {
		q := MustPrepare(pq.Query)
		want, err := q.Run(doc, Staircase)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.Run(doc, Auto)
		if err != nil {
			t.Fatalf("%s (Auto): %v", pq.Name, err)
		}
		if strings.Join(values(t, want), "|") != strings.Join(values(t, got), "|") {
			t.Errorf("%s: Auto disagrees with Staircase", pq.Name)
		}
	}
}
