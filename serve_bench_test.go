package xqtp

import (
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkServe measures the steady serving state: a mixed XMark workload
// from plans compiled once over one shared document, with every goroutine
// sharing the document's index and prepared joins. Run with -cpu 1,4 to see
// the QPS scaling:
//
//	go test -bench Serve -cpu 1,4 -benchmem .
func BenchmarkServe(b *testing.B) {
	doc := NewXMarkDocument(1, 1000)
	queries := make([]*Query, 0, len(Figure6Queries))
	for _, pair := range Figure6Queries {
		q, err := Prepare(pair.Child)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	for _, alg := range Algorithms {
		b.Run(alg.String(), func(b *testing.B) {
			// Warm the (query, document, algorithm) preparations so the
			// timed region is pure evaluation.
			for _, q := range queries {
				if _, err := q.Run(doc, alg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var next uint64
			start := time.Now()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					q := queries[int(atomic.AddUint64(&next, 1))%len(queries)]
					if _, err := q.Run(doc, alg); err != nil {
						b.Error(err)
						return
					}
				}
			})
			if wall := time.Since(start).Seconds(); wall > 0 {
				b.ReportMetric(float64(b.N)/wall, "qps")
			}
		})
	}
}
