package xqtp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"xqtp/internal/gen"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// The collection experiment measures the corpus layer: parallel ingest
// throughput (MB/s, one bounded worker pool over the scanner) and
// fan-out query throughput (corpus queries per second) as the corpus grows,
// each at one worker and at one worker per CPU.

// CollectionCell is one measurement of the collection experiment: an ingest
// row (Query empty, MBPerSec set), a query row (QPS set), or a snapshot row
// (phase "snapshot-save" / "snapshot-load", MBPerSec normalized to the XML
// size of the corpus so it compares directly against the ingest rows).
type CollectionCell struct {
	Phase       string `json:"phase"` // "ingest", "query", "snapshot-save", "snapshot-load"
	Docs        int    `json:"docs"`
	Workers     int    `json:"workers"`
	Query       string `json:"query,omitempty"`
	CorpusBytes int    `json:"corpus_bytes"`
	// SnapshotBytes is the serialized snapshot size of the snapshot rows.
	SnapshotBytes int `json:"snapshot_bytes,omitempty"`
	Nodes         int `json:"nodes,omitempty"`
	Items         int `json:"items,omitempty"` // result size of the query rows
	// Skipped counts corpus members the fan-out never evaluated because the
	// count-based emptiness proof ruled them out (query rows only).
	Skipped     int     `json:"skipped,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	QPS         float64 `json:"qps,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// CollectionReport is the machine-readable output of RunCollection. The
// cells key is distinct from the other reports so benchdiff can identify the
// report kind.
type CollectionReport struct {
	Seed    int64            `json:"seed"`
	Repeats int              `json:"repeats"`
	CPUs    int              `json:"cpus"`
	Note    string           `json:"note,omitempty"`
	Cells   []CollectionCell `json:"collection_cells"`
}

// collectionQueries are the query rows: a root-bound XMark pattern (fans out
// per member, skipping the MemBeR members via the name table), a root-bound
// MemBeR pattern, and an fn:collection() form (evaluated once over the
// corpus, parallel across member roots).
var collectionQueries = []PaperQuery{
	{"fanout-xmark", `$input//person[emailaddress]/name`},
	{"fanout-member", `$input//t01[t02]`},
	{"collection-fn", `fn:collection()//person[emailaddress]/name`},
}

// collectionSources generates a mixed corpus of n members: MemBeR-style and
// XMark-like documents interleaved, a few KB each, serialized through the
// generator-to-scanner path.
func collectionSources(n int, seed int64) []CorpusSource {
	out := make([]CorpusSource, n)
	for i := 0; i < n; i++ {
		var root *xdm.Node
		if i%2 == 0 {
			root = gen.MemberRoot(gen.MemberConfig{
				Seed: seed + int64(i), Depth: 4, NumTags: 20, NumNodes: 300,
			})
		} else {
			root = gen.XMarkRoot(gen.XMarkConfig{Seed: seed + int64(i), People: 8})
		}
		out[i] = CorpusSource{
			URI:  fmt.Sprintf("mem://corpus-%05d.xml", i),
			Data: xmlstore.AppendXML(nil, root),
		}
	}
	return out
}

// collectionWorkerCounts returns the measured worker settings: 1 and one per
// CPU (deduplicated on single-CPU hosts).
func collectionWorkerCounts() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// RunCollection measures corpus ingest MB/s and fan-out query QPS against
// corpus size and worker count. If jsonPath is non-empty the
// machine-readable report is also written there.
func RunCollection(w io.Writer, opts ExperimentOptions, jsonPath string) error {
	fmt.Fprintf(w, "Collection: parallel corpus ingest and fan-out query throughput\n\n")
	report := CollectionReport{Seed: opts.Seed, Repeats: opts.Repeats, CPUs: runtime.NumCPU()}
	if report.CPUs == 1 {
		report.Note = "single-CPU host: workers>1 rows are absent and parallel speedups cannot manifest; treat these as single-proc baselines"
	}
	workerCounts := collectionWorkerCounts()

	fmt.Fprintf(w, "%-8s %-8s %10s %12s %12s %14s %12s\n",
		"docs", "workers", "MB/s", "ms/op", "nodes", "B/op", "allocs/op")
	for _, nDocs := range opts.CollectionSizes {
		sources := collectionSources(nDocs, opts.Seed)
		totalBytes := 0
		for _, s := range sources {
			totalBytes += len(s.Data)
		}
		for _, workers := range workerCounts {
			if err := opts.checkpoint(); err != nil {
				return err
			}
			workers := workers
			var corpus *Corpus
			op := func() (int, error) {
				c, err := LoadCorpus(sources, workers)
				if err != nil {
					return 0, err
				}
				corpus = c
				return c.NumNodes(), nil
			}
			d, allocs, bytesPerOp, nodes, err := measureIngest(op, opts.Repeats)
			if err != nil {
				return fmt.Errorf("ingest %d docs: %w", nDocs, err)
			}
			mbps := float64(totalBytes) / d.Seconds() / 1e6
			fmt.Fprintf(w, "%-8d %-8d %10.1f %12.2f %12d %14d %12d\n",
				nDocs, workers, mbps, float64(d.Nanoseconds())/1e6, nodes, bytesPerOp, allocs)
			report.Cells = append(report.Cells, CollectionCell{
				Phase:       "ingest",
				Docs:        nDocs,
				Workers:     workers,
				CorpusBytes: totalBytes,
				Nodes:       nodes,
				NsPerOp:     float64(d.Nanoseconds()),
				MBPerSec:    mbps,
				AllocsPerOp: allocs,
				BytesPerOp:  bytesPerOp,
			})
			_ = corpus
		}
	}

	// Snapshot phases: serialize the loaded corpus and load it back. MB/s is
	// normalized to the corpus's XML size, so the load rows state directly
	// how much faster opening a snapshot is than re-ingesting the XML.
	fmt.Fprintf(w, "\n%-16s %-8s %10s %12s %16s %14s %12s\n",
		"phase", "docs", "MB/s", "ms/op", "snapshot_bytes", "B/op", "allocs/op")
	for _, nDocs := range opts.CollectionSizes {
		sources := collectionSources(nDocs, opts.Seed)
		totalBytes := 0
		for _, s := range sources {
			totalBytes += len(s.Data)
		}
		corpus, err := LoadCorpus(sources, 0)
		if err != nil {
			return err
		}
		var blob []byte
		saveOp := func() (int, error) {
			var buf bytes.Buffer
			if err := corpus.SaveSnapshot(&buf); err != nil {
				return 0, err
			}
			blob = buf.Bytes()
			return len(blob), nil
		}
		d, allocs, bytesPerOp, snapBytes, err := measureIngest(saveOp, opts.Repeats)
		if err != nil {
			return fmt.Errorf("snapshot-save %d docs: %w", nDocs, err)
		}
		mbps := float64(totalBytes) / d.Seconds() / 1e6
		fmt.Fprintf(w, "%-16s %-8d %10.1f %12.2f %16d %14d %12d\n",
			"snapshot-save", nDocs, mbps, float64(d.Nanoseconds())/1e6, snapBytes, bytesPerOp, allocs)
		report.Cells = append(report.Cells, CollectionCell{
			Phase:         "snapshot-save",
			Docs:          nDocs,
			Workers:       1,
			CorpusBytes:   totalBytes,
			SnapshotBytes: snapBytes,
			NsPerOp:       float64(d.Nanoseconds()),
			MBPerSec:      mbps,
			AllocsPerOp:   allocs,
			BytesPerOp:    bytesPerOp,
		})
		loadOp := func() (int, error) {
			c, err := OpenCorpusSnapshot(blob)
			if err != nil {
				return 0, err
			}
			return c.NumNodes(), nil
		}
		d, allocs, bytesPerOp, nodes, err := measureIngest(loadOp, opts.Repeats)
		if err != nil {
			return fmt.Errorf("snapshot-load %d docs: %w", nDocs, err)
		}
		mbps = float64(totalBytes) / d.Seconds() / 1e6
		fmt.Fprintf(w, "%-16s %-8d %10.1f %12.2f %16d %14d %12d\n",
			"snapshot-load", nDocs, mbps, float64(d.Nanoseconds())/1e6, len(blob), bytesPerOp, allocs)
		report.Cells = append(report.Cells, CollectionCell{
			Phase:         "snapshot-load",
			Docs:          nDocs,
			Workers:       1,
			CorpusBytes:   totalBytes,
			SnapshotBytes: len(blob),
			Nodes:         nodes,
			NsPerOp:       float64(d.Nanoseconds()),
			MBPerSec:      mbps,
			AllocsPerOp:   allocs,
			BytesPerOp:    bytesPerOp,
		})
	}

	fmt.Fprintf(w, "\n%-16s %-8s %-8s %10s %12s %8s %8s %14s %12s\n",
		"query", "docs", "workers", "qps", "ms/op", "items", "skipped", "B/op", "allocs/op")
	for _, nDocs := range opts.CollectionSizes {
		corpus, err := LoadCorpus(collectionSources(nDocs, opts.Seed), 0)
		if err != nil {
			return err
		}
		for _, pq := range collectionQueries {
			q, err := Prepare(pq.Query)
			if err != nil {
				return fmt.Errorf("%s: %w", pq.Name, err)
			}
			for _, workers := range workerCounts {
				if err := opts.checkpoint(); err != nil {
					return err
				}
				items, skipped := 0, 0
				op := func() (int, error) {
					seq, rs, err := corpus.RunParallelStats(q, Auto, workers)
					if err != nil {
						return 0, err
					}
					items = len(seq)
					skipped = rs.Skipped
					return items, nil
				}
				d, allocs, bytesPerOp, _, err := measureIngest(op, opts.Repeats)
				if err != nil {
					return fmt.Errorf("%s over %d docs: %w", pq.Name, nDocs, err)
				}
				qps := 1 / d.Seconds()
				fmt.Fprintf(w, "%-16s %-8d %-8d %10.1f %12.2f %8d %8d %14d %12d\n",
					pq.Name, nDocs, workers, qps, float64(d.Nanoseconds())/1e6, items, skipped, bytesPerOp, allocs)
				report.Cells = append(report.Cells, CollectionCell{
					Phase:       "query",
					Docs:        nDocs,
					Workers:     workers,
					Query:       pq.Name,
					CorpusBytes: corpus.SizeBytes(),
					Items:       items,
					Skipped:     skipped,
					NsPerOp:     float64(d.Nanoseconds()),
					QPS:         qps,
					AllocsPerOp: allocs,
					BytesPerOp:  bytesPerOp,
				})
			}
		}
	}

	if jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "(report written to %s)\n", jsonPath)
	}
	return nil
}
