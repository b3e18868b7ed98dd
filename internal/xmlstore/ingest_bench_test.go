package xmlstore

import "testing"

// BenchmarkIngestMembers ingests 200 small members, MemBeR and XMark
// alternating as store_cycle mixes them, through one Loader per operation:
// the scanner, the tree builder (its name dictionary, the columns, the
// symbol table and text directory) and BuildIndex, without the snapshot
// write, open and queries BenchmarkStoreCycle adds. It reports the XML
// bytes ingested per second as MB/s.
func BenchmarkIngestMembers(b *testing.B) {
	docs := storeMembers(200)[:200]
	size := 0
	for _, d := range docs {
		size += len(d)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	for b.Loop() {
		var l Loader
		for _, d := range docs {
			if _, err := l.Ingest(d); err != nil {
				b.Fatal(err)
			}
		}
	}
}
