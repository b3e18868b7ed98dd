// Command xqd serves tree-pattern queries over HTTP: a long-lived process
// that loads one or more corpora (binary snapshots, directories of XML, or
// single documents) and evaluates POST /query requests from cached plans,
// streaming results as NDJSON or XML.
//
// Usage:
//
//	xqd -addr :8080 -corpus main=corpus.snap
//	xqd -corpus docs=xmldir/ -corpus aux=one.xml -max-concurrent 8
//
// Each -corpus flag is name=path: a .snap/.snapshot file is memory-mapped
// (OpenCorpusFile — O(open) cold start, pages fault in per query), a
// directory loads every *.xml inside (sorted), and anything else is ingested
// as a single XML document. Endpoints:
//
//	POST /query    {"query": "...", "corpus": "main", "alg": "auto",
//	                "limit": 100, "timeout": "2s", "format": "ndjson"}
//	POST /extend   {"corpus": "main", "documents": [{"uri": "u", "xml": "<a/>"}]}
//	GET  /corpora  registered corpora with member counts and epochs
//	GET  /metrics  Prometheus text format
//	GET  /healthz  liveness
//
// SIGTERM/SIGINT drain gracefully: the listener closes, streaming requests
// finish, and whatever outlives -drain is canceled through the engine's
// cancellation protocol. The process exits 0 on a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"xqtp"
	"xqtp/internal/server"
)

// corpusFlag collects repeated -corpus name=path arguments.
type corpusFlag []string

func (c *corpusFlag) String() string { return strings.Join(*c, ",") }
func (c *corpusFlag) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*c = append(*c, v)
	return nil
}

func main() { os.Exit(run()) }

func run() int {
	var corpora corpusFlag
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		workers       = flag.Int("ingest-workers", 0, "corpus ingest parallelism (<= 0: one per CPU)")
		maxConcurrent = flag.Int("max-concurrent", 0, "queries evaluating at once (<= 0: one per CPU)")
		maxQueue      = flag.Int("max-queue", 0, "requests allowed to wait for a slot (0: 4x max-concurrent, -1: none)")
		queueWait     = flag.Duration("queue-wait", 2*time.Second, "longest a queued request waits before shedding")
		maxBody       = flag.Int64("max-body", 1<<20, "request body size cap in bytes")
		defTimeout    = flag.Duration("default-timeout", 30*time.Second, "per-request timeout when the request names none")
		maxTimeout    = flag.Duration("max-timeout", 2*time.Minute, "cap on the timeout a request may ask for")
		maxRows       = flag.Int64("max-rows", 0, "server-side cap on result rows per request (0: none)")
		maxBytes      = flag.Int64("max-bytes", 0, "server-side cap on estimated result bytes per request (0: none)")
		cacheEntries  = flag.Int("cache-entries", 1024, "result cache entry bound (0: default)")
		cacheBytes    = flag.Int64("cache-bytes", 64<<20, "result cache total byte bound (0: default)")
		noCache       = flag.Bool("no-result-cache", false, "disable the result cache")
		drain         = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
	)
	flag.Var(&corpora, "corpus", "name=path to serve (repeatable); path: snapshot file, directory of *.xml, or one XML document")
	flag.Parse()

	if len(corpora) == 0 {
		fmt.Fprintln(os.Stderr, "xqd: no corpora; pass at least one -corpus name=path")
		return 2
	}

	s := server.New(server.Config{
		MaxConcurrent:      *maxConcurrent,
		MaxQueue:           *maxQueue,
		QueueWait:          *queueWait,
		MaxBodyBytes:       *maxBody,
		DefaultTimeout:     *defTimeout,
		MaxTimeout:         *maxTimeout,
		MaxRows:            *maxRows,
		MaxBytes:           *maxBytes,
		ResultCacheEntries: *cacheEntries,
		ResultCacheBytes:   *cacheBytes,
		NoResultCache:      *noCache,
	})

	for _, spec := range corpora {
		name, path, _ := strings.Cut(spec, "=")
		c, desc, err := loadCorpus(path, *workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xqd: corpus %s: %v\n", name, err)
			return 1
		}
		defer c.Close()
		s.AddCorpus(name, c)
		fmt.Printf("xqd: corpus %s: %s (%d members, %d nodes)\n", name, desc, c.Len(), c.NumNodes())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqd:", err)
		return 1
	}
	fmt.Printf("xqd: listening on %s\n", ln.Addr())

	// A signal starts the drain; the listener closes at once, in-flight
	// streams finish, and stragglers are canceled after the drain deadline.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan error, 1)
	go func() {
		<-ctx.Done()
		fmt.Println("xqd: shutting down, draining in-flight requests")
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		shutdownDone <- s.Shutdown(drainCtx)
	}()

	err = s.Serve(ln)
	if !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "xqd:", err)
		return 1
	}
	if err := <-shutdownDone; err != nil {
		fmt.Fprintln(os.Stderr, "xqd: shutdown:", err)
		return 1
	}
	fmt.Println("xqd: drained, exiting")
	return 0
}

// loadCorpus opens one -corpus path by shape: snapshot file (memory-mapped),
// directory of *.xml, or a single XML document.
func loadCorpus(path string, workers int) (*xqtp.Corpus, string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, "", err
	}
	if fi.IsDir() {
		glob, err := filepath.Glob(filepath.Join(path, "*.xml"))
		if err != nil {
			return nil, "", err
		}
		if len(glob) == 0 {
			return nil, "", fmt.Errorf("no *.xml files in %s", path)
		}
		sort.Strings(glob)
		c, err := xqtp.LoadCorpusFiles(glob, workers)
		return c, fmt.Sprintf("directory %s", path), err
	}
	if ext := strings.ToLower(filepath.Ext(path)); ext == ".snap" || ext == ".snapshot" {
		c, err := xqtp.OpenCorpusFile(path)
		return c, fmt.Sprintf("snapshot %s (mmap)", path), err
	}
	c, err := xqtp.LoadCorpusFiles([]string{path}, 1)
	return c, fmt.Sprintf("document %s", path), err
}
