package xqtp

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// BenchmarkStoreCycle measures one corpus lifecycle as store_cycle runs it:
// LoadCorpus of 200 members (MemBeR 300-element and XMark 8-person members
// alternating) plus one needle member on 2 workers, SaveSnapshot to a file,
// OpenCorpusFile of that file, the needle query and the fan-out query, and
// Close. Besides time and allocations it reports ingest throughput in MB of
// XML per second of LoadCorpus.
//
//	go test -bench StoreCycle -benchmem -count 10 -run XXX .
func BenchmarkStoreCycle(b *testing.B) {
	var srcs []CorpusSource
	xmlBytes := 0
	for i := 0; i < 200; i++ {
		var doc *Document
		if i%2 == 0 {
			doc = NewMemberDocumentNodes(int64(i+1), 4, 20, 300)
		} else {
			doc = NewXMarkDocument(int64(i+1), 8)
		}
		srcs = append(srcs, CorpusSource{URI: fmt.Sprintf("mem://cycle-%03d.xml", i), Data: []byte(doc.XML())})
	}
	srcs = append(srcs, CorpusSource{URI: "mem://cycle-needle.xml", Data: []byte(`<needle><pin note="x">hit</pin></needle>`)})
	for _, s := range srcs {
		xmlBytes += len(s.Data)
	}
	needle := MustPrepare(`$input//needle/pin`)
	fanout := MustPrepare(`$input//person[emailaddress]/name`)
	path := filepath.Join(b.TempDir(), "cycle.snap")
	var ingest time.Duration // in LoadCorpus
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		c, err := LoadCorpus(srcs, 2)
		ingest += time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.SaveSnapshot(f); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		c.Close()
		c, err = OpenCorpusFile(path)
		if err != nil {
			b.Fatal(err)
		}
		got, err := c.Run(needle, Auto)
		if err != nil || len(got) != 1 {
			b.Fatalf("needle: %d items, %v", len(got), err)
		}
		got, err = c.RunParallel(fanout, Auto, 2)
		if err != nil || len(got) == 0 {
			b.Fatalf("fan-out: %d items, %v", len(got), err)
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(xmlBytes)*float64(b.N)/1e6/ingest.Seconds(), "ingest_MB/s")
}
