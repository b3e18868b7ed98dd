package xqtp

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"xqtp/internal/xdm"
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

// rankCounter is a sink that counts what it is delivered and keeps nothing;
// it takes nodes as ranks, as the server's response writer does.
type rankCounter struct{ n int }

func (s *rankCounter) Push(Item) error                 { s.n++; return nil }
func (s *rankCounter) PushRank(*xdm.Tree, int32) error { s.n++; return nil }

// BenchmarkFanOutClasses measures serve_corpus's five query texts in process,
// without the server: a snapshot of 3 000 members (MemBeR 300-element and
// XMark 8-person members alternating, a needle member after every 1 000th and
// one at the end), opened from its file once and kept warm, each text run
// with 1 worker under Auto into a rank-counting sink. rows/op is the result
// size. The per-text times attribute a serve_corpus change to the query
// layers below the server.
//
//	go test -bench FanOutClasses -benchmem -count 10 -run XXX .
func BenchmarkFanOutClasses(b *testing.B) {
	const members = 3000
	var srcs []CorpusSource
	needle := func() {
		srcs = append(srcs, CorpusSource{
			URI:  fmt.Sprintf("mem://classes-needle-%d.xml", len(srcs)),
			Data: []byte(`<needle><pin note="x">hit</pin></needle>`),
		})
	}
	for i := 0; i < members; i++ {
		var doc *Document
		if i%2 == 0 {
			doc = NewMemberDocumentNodes(int64(i+1), 4, 20, 300)
		} else {
			doc = NewXMarkDocument(int64(i+1), 8)
		}
		srcs = append(srcs, CorpusSource{URI: fmt.Sprintf("mem://classes-%05d.xml", i), Data: []byte(doc.XML())})
		if (i+1)%1000 == 0 {
			needle()
		}
	}
	needle()
	loaded, err := LoadCorpus(srcs, 1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := loaded.SaveSnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	loaded.Close()
	path := filepath.Join(b.TempDir(), "classes.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	c, err := OpenCorpusFile(path)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for _, class := range []struct{ name, query string }{
		{"needle", `$input//needle/pin`},
		{"member", `$input//t01[t02]`},
		{"xmark", `$input//person[emailaddress]/name`},
		{"flwor", `for $p in $input/site/people/person where $p/emailaddress return ($p/name, $p/profile/interest)`},
		{"collection", `fn:collection()//person[emailaddress]/name`},
	} {
		q := MustPrepare(class.query)
		b.Run(class.name, func(b *testing.B) {
			sink := &rankCounter{}
			run := func() {
				sink.n = 0
				if _, _, err := c.RunWith(context.Background(), q, Auto, RunOptions{Workers: 1, Sink: sink}); err != nil || sink.n == 0 {
					b.Fatalf("%d rows, %v", sink.n, err)
				}
			}
			run() // loads the members and prepares their joins
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(sink.n), "rows/op")
		})
	}
}
