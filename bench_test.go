package xqtp

// Compilation per query shape, which the paper's §5 tables do not measure.
// The paper's cells themselves (Table 1, Fig. 4, Fig. 6, §5.3, the §5.1
// validation) are measured by cmd/treebench (`make bench`).
import "testing"

// BenchmarkCompile measures compilation time per phase-2 query shape.
func BenchmarkCompile(b *testing.B) {
	for _, pq := range Figure1Queries {
		b.Run(pq.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Prepare(pq.Query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
