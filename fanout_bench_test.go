package xqtp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkFanOutWorkers measures one cold corpus run as store_cycle makes
// it, at 1, 2 and 4 workers: OpenCorpusFile on a 200-member snapshot (MemBeR
// 300-element and XMark 8-person members alternating), one fan-out of
// $input//person[emailaddress]/name, which loads every XMark member from the
// mapping and skips the MemBeR ones, and Close. The snapshot is written once;
// its pages stay in the page cache, as in every benchmark/ workload.
//
//	go test -bench FanOutWorkers -benchmem -count 10 -run XXX .
func BenchmarkFanOutWorkers(b *testing.B) {
	srcs := make([]CorpusSource, 200)
	for i := range srcs {
		var doc *Document
		if i%2 == 0 {
			doc = NewMemberDocumentNodes(int64(i+1), 4, 20, 300)
		} else {
			doc = NewXMarkDocument(int64(i+1), 8)
		}
		srcs[i] = CorpusSource{URI: fmt.Sprintf("mem://fanout-%03d.xml", i), Data: []byte(doc.XML())}
	}
	c, err := LoadCorpus(srcs, 0)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.SaveSnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	c.Close()
	path := filepath.Join(b.TempDir(), "fanout.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	q := MustPrepare(`$input//person[emailaddress]/name`)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := OpenCorpusFile(path)
				if err != nil {
					b.Fatal(err)
				}
				got, err := c.RunParallel(q, Auto, workers)
				if err != nil || len(got) == 0 {
					b.Fatalf("%d items, %v", len(got), err)
				}
				if err := c.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
