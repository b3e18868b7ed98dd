package xqtp

// Ablation benchmarks quantifying individual design choices, referenced by
// DESIGN.md and EXPERIMENTS.md.

import (
	"fmt"
	"testing"
)

// BenchmarkAblationPositionalFirst measures the value of the Head rewrite
// (the §5.3 cursor-style early exit): the positional chain with and without
// the positional-first rule, under the nested loop.
func BenchmarkAblationPositionalFirst(b *testing.B) {
	doc := deepDoc(b)
	src := Section53Query(10)
	withRule := MustPrepare(src)
	withoutRule, err := PrepareWithOptions(src, CompileOptions{
		TreePatterns: true, Rewrites: true,
		DisablePositionalFirst: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("head-on/NL", func(b *testing.B) { runQuery(b, withRule, doc, NestedLoop) })
	b.Run("head-off/NL", func(b *testing.B) { runQuery(b, withoutRule, doc, NestedLoop) })
	b.Run("head-on/SC", func(b *testing.B) { runQuery(b, withRule, doc, Staircase) })
	b.Run("head-off/SC", func(b *testing.B) { runQuery(b, withoutRule, doc, Staircase) })
}

// BenchmarkAblationBulkConversion measures the value of rule (b): the §5.1
// path with bulk set-at-a-time patterns vs. per-tuple patterns inside maps.
func BenchmarkAblationBulkConversion(b *testing.B) {
	doc := xmarkDoc(b, 1000)
	bulk := MustPrepare(Fig4Query)
	perTuple, err := PrepareWithOptions(Fig4Query, CompileOptions{
		TreePatterns: true, Rewrites: true,
		DisableBulkConversion: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range []Algorithm{NestedLoop, Twig, Staircase} {
		b.Run(fmt.Sprintf("bulk/%s", shortAlg(alg)), func(b *testing.B) {
			runQuery(b, bulk, doc, alg)
		})
		b.Run(fmt.Sprintf("per-tuple/%s", shortAlg(alg)), func(b *testing.B) {
			runQuery(b, perTuple, doc, alg)
		})
	}
}

// BenchmarkStreaming compares the single-scan streaming evaluator (the
// paper's future-work item) against the index-based algorithms on linear
// paths, where it applies.
func BenchmarkStreaming(b *testing.B) {
	member := memberDoc(b, 1_000_000)
	xmark := xmarkDoc(b, 1000)
	queries := []struct {
		name string
		q    *Query
		doc  *Document
	}{
		{"linear-desc", MustPrepare(`$input/desc::t01/desc::t02/desc::t03`), member},
		{"linear-child", MustPrepare(`$input/site/people/person/name`), xmark},
		{"deep-desc", MustPrepare(`$input//person//interest`), xmark},
	}
	for _, tc := range queries {
		for _, alg := range []Algorithm{NestedLoop, Twig, Staircase, Streaming} {
			b.Run(fmt.Sprintf("%s/%s", tc.name, alg), func(b *testing.B) {
				runQuery(b, tc.q, tc.doc, alg)
			})
		}
	}
}

// BenchmarkAuto compares Auto's rule against each fixed
// algorithm on a mixed workload (bulk twigs + a selective positional
// chain).
func BenchmarkAuto(b *testing.B) {
	member := memberDoc(b, 1_000_000)
	deep := deepDoc(b)
	queries := []struct {
		name string
		q    *Query
		doc  *Document
	}{
		{"QE1", MustPrepare(QEQueries[0].Query), member},
		{"QE5", MustPrepare(QEQueries[4].Query), member},
		{"chain", MustPrepare(Section53Query(10)), deep},
	}
	algs := []Algorithm{NestedLoop, Twig, Staircase, Auto}
	for _, tc := range queries {
		for _, alg := range algs {
			name := alg.String()
			b.Run(fmt.Sprintf("%s/%s", tc.name, name), func(b *testing.B) {
				runQuery(b, tc.q, tc.doc, alg)
			})
		}
	}
}
