package xqtp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"xqtp/internal/gen"
	"xqtp/internal/xmlstore"
)

// The ingest experiment measures document loading throughput: the zero-copy
// scanner (Ingest: one scan producing the columns, then the index) against
// the encoding/xml reference path (ParseStd + BuildIndex — the serving path
// before the fast scanner existed). Both sides are measured end to end from
// the same document bytes to a ready-to-query index.

// IngestCell is one parser measurement over one document.
type IngestCell struct {
	Document      string  `json:"document"`
	Parser        string  `json:"parser"` // "fast" or "std"
	DocumentBytes int     `json:"document_bytes"`
	Nodes         int     `json:"nodes"`
	NsPerOp       float64 `json:"ns_per_op"`
	MBPerSec      float64 `json:"mb_per_sec"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
}

// IngestReport is the machine-readable output of RunIngest. The cells key
// is distinct from the Table 1 and serve reports so benchdiff can identify
// the report kind.
type IngestReport struct {
	Seed    int64        `json:"seed"`
	Repeats int          `json:"repeats"`
	Cells   []IngestCell `json:"ingest_cells"`
}

// ingestDoc is one benchmark document: its display name and serialized
// bytes.
type ingestDoc struct {
	name string
	data []byte
}

// ingestDocuments builds the benchmark corpus: MemBeR documents at the
// Table 1 sizes plus an XMark document calibrated to ≈1.0 MB (≈250 KB in
// quick runs), the acceptance-gate row.
func ingestDocuments(opts ExperimentOptions) []ingestDoc {
	var docs []ingestDoc
	for i, sz := range opts.Table1Sizes {
		root := gen.MemberRoot(gen.MemberConfig{
			Seed: opts.Seed + int64(i), Depth: 4, NumTags: 100, NumNodes: sz / 9,
		})
		docs = append(docs, ingestDoc{
			name: fmt.Sprintf("member-%.1fMB", float64(sz)/1e6),
			data: xmlstore.AppendXML(make([]byte, 0, sz+sz/8), root),
		})
	}
	xmarkTarget := 1_000_000
	if len(opts.Table1Sizes) > 0 && opts.Table1Sizes[0] < 1_000_000 {
		xmarkTarget = 250_000 // quick scale
	}
	// Calibrate the people count against a probe document, then regenerate
	// at the scaled size.
	probePeople := 200
	probe := xmlstore.AppendXML(nil, gen.XMarkRoot(gen.XMarkConfig{Seed: opts.Seed, People: probePeople}))
	people := probePeople * xmarkTarget / len(probe)
	if people < 1 {
		people = 1
	}
	docs = append(docs, ingestDoc{
		name: fmt.Sprintf("xmark-%.1fMB", float64(xmarkTarget)/1e6),
		data: xmlstore.AppendXML(make([]byte, 0, xmarkTarget+xmarkTarget/8), gen.XMarkRoot(gen.XMarkConfig{Seed: opts.Seed, People: people})),
	})
	return docs
}

// measureIngest runs op once to warm up, then repeats timed runs, returning
// the median wall time and the per-run allocation footprint from MemStats
// deltas.
func measureIngest(op func() (int, error), repeats int) (time.Duration, int64, int64, int, error) {
	if repeats < 1 {
		repeats = 1
	}
	nodes, err := op()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	times := make([]time.Duration, 0, repeats)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if _, err := op(); err != nil {
			return 0, 0, 0, 0, err
		}
		times = append(times, time.Since(start))
	}
	runtime.ReadMemStats(&after)
	allocs := int64(after.Mallocs-before.Mallocs) / int64(repeats)
	bytes := int64(after.TotalAlloc-before.TotalAlloc) / int64(repeats)
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], allocs, bytes, nodes, nil
}

// RunIngest measures ingest throughput (fast scanner vs encoding/xml
// reference) over the benchmark corpus: MB/s, ns/op, B/op, allocs/op per
// document and parser. If jsonPath is non-empty the machine-readable
// report is also written there.
func RunIngest(w io.Writer, opts ExperimentOptions, jsonPath string) error {
	fmt.Fprintf(w, "Ingest: XML bytes to queryable index, fast scanner vs encoding/xml\n\n")
	fmt.Fprintf(w, "%-16s %-6s %10s %12s %12s %14s %12s\n",
		"document", "parser", "MB/s", "ms/op", "nodes", "B/op", "allocs/op")
	report := IngestReport{Seed: opts.Seed, Repeats: opts.Repeats}
	for _, doc := range ingestDocuments(opts) {
		data := doc.data
		type side struct {
			name string
			op   func() (int, error)
		}
		sides := []side{
			{"fast", func() (int, error) {
				ix, err := xmlstore.Ingest(data)
				if err != nil {
					return 0, err
				}
				return ix.Tree.CountNodes(), nil
			}},
			{"std", func() (int, error) {
				t, err := xmlstore.ParseStd(bytes.NewReader(data))
				if err != nil {
					return 0, err
				}
				ix := xmlstore.BuildIndex(t)
				return ix.Tree.CountNodes(), nil
			}},
		}
		for _, s := range sides {
			if err := opts.checkpoint(); err != nil {
				return err
			}
			d, allocs, bytesPerOp, nodes, err := measureIngest(s.op, opts.Repeats)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", doc.name, s.name, err)
			}
			mbps := float64(len(data)) / d.Seconds() / 1e6
			fmt.Fprintf(w, "%-16s %-6s %10.1f %12.2f %12d %14d %12d\n",
				doc.name, s.name, mbps, float64(d.Nanoseconds())/1e6, nodes, bytesPerOp, allocs)
			report.Cells = append(report.Cells, IngestCell{
				Document:      doc.name,
				Parser:        s.name,
				DocumentBytes: len(data),
				Nodes:         nodes,
				NsPerOp:       float64(d.Nanoseconds()),
				MBPerSec:      mbps,
				AllocsPerOp:   allocs,
				BytesPerOp:    bytesPerOp,
			})
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
