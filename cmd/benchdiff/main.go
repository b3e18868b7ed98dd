// Command benchdiff compares two benchmark reports produced by treebench
// (BENCH_table1.json or BENCH_serve.json) and prints the per-cell deltas.
// It exits non-zero on malformed input or when the two files hold different
// report kinds, so it can gate CI and Makefile comparisons.
//
// Usage:
//
//	benchdiff OLD.json NEW.json
//	benchdiff -gate-allocs -gate-algs SC,TJ,AUTO OLD.json NEW.json   # fail if
//	    allocs/op or B/op rose in any table1 cell of the named algorithms
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"xqtp"
)

// report is the union of the treebench report shapes; the populated slice
// identifies the kind.
type report struct {
	Cells           []xqtp.Table1Cell     `json:"cells"`
	Results         []xqtp.ServeResult    `json:"results"`
	ServeCells      []xqtp.HTTPServeCell  `json:"serve_cells"`
	IngestCells     []xqtp.IngestCell     `json:"ingest_cells"`
	CollectionCells []xqtp.CollectionCell `json:"collection_cells"`
	SnapshotCells   []xqtp.SnapshotCell   `json:"snapshot_cells"`
}

func load(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Cells) == 0 && len(r.Results) == 0 && len(r.ServeCells) == 0 &&
		len(r.IngestCells) == 0 && len(r.CollectionCells) == 0 &&
		len(r.SnapshotCells) == 0 {
		return r, fmt.Errorf("%s: no cells or results", path)
	}
	return r, nil
}

func pct(old, new float64) string {
	if old == 0 {
		return "    n/a"
	}
	return fmt.Sprintf("%+6.1f%%", (new-old)/old*100)
}

func diffTable1(old, new []xqtp.Table1Cell) {
	type key struct {
		query, alg string
		bytes      int
	}
	prev := make(map[key]xqtp.Table1Cell, len(old))
	for _, c := range old {
		prev[key{c.Query, c.Algorithm, c.DocumentBytes}] = c
	}
	fmt.Printf("%-6s %-5s %-10s %22s %22s %20s\n",
		"query", "alg", "doc", "ns/op old→new", "B/op old→new", "allocs old→new")
	for _, c := range new {
		o, ok := prev[key{c.Query, c.Algorithm, c.DocumentBytes}]
		if !ok {
			fmt.Printf("%-6s %-5s %-10.1fMB  (new cell)\n", c.Query, c.Algorithm, float64(c.DocumentBytes)/1e6)
			continue
		}
		fmt.Printf("%-6s %-5s %-10s %9.0f→%-9.0f %s %8d→%-8d %s %6d→%-6d %s\n",
			c.Query, c.Algorithm, fmt.Sprintf("%.1fMB", float64(c.DocumentBytes)/1e6),
			o.NsPerOp, c.NsPerOp, pct(o.NsPerOp, c.NsPerOp),
			o.BytesPerOp, c.BytesPerOp, pct(float64(o.BytesPerOp), float64(c.BytesPerOp)),
			o.AllocsPerOp, c.AllocsPerOp, pct(float64(o.AllocsPerOp), float64(c.AllocsPerOp)))
	}
}

func diffServe(old, new []xqtp.ServeResult) {
	type key struct {
		alg   string
		procs int
	}
	prev := make(map[key]xqtp.ServeResult, len(old))
	for _, r := range old {
		prev[key{r.Algorithm, r.Procs}] = r
	}
	fmt.Printf("%-6s %-6s %22s %22s %20s\n",
		"alg", "procs", "qps old→new", "B/op old→new", "allocs old→new")
	for _, r := range new {
		o, ok := prev[key{r.Algorithm, r.Procs}]
		if !ok {
			fmt.Printf("%-6s %-6d (new row)\n", r.Algorithm, r.Procs)
			continue
		}
		fmt.Printf("%-6s %-6d %9.0f→%-9.0f %s %8d→%-8d %s %6d→%-6d %s\n",
			r.Algorithm, r.Procs,
			o.QPS, r.QPS, pct(o.QPS, r.QPS),
			o.BytesPerOp, r.BytesPerOp, pct(float64(o.BytesPerOp), float64(r.BytesPerOp)),
			o.AllocsPerOp, r.AllocsPerOp, pct(float64(o.AllocsPerOp), float64(r.AllocsPerOp)))
	}
}

// diffServeHTTP compares the network-tier rows of two serve reports: QPS,
// tail latency, and the shed count (which should stay zero — the load
// generator sizes admission to its client count).
func diffServeHTTP(old, new []xqtp.HTTPServeCell) {
	type key struct {
		alg     string
		clients int
		cache   string
	}
	prev := make(map[key]xqtp.HTTPServeCell, len(old))
	for _, c := range old {
		prev[key{c.Algorithm, c.Clients, c.ResultCache}] = c
	}
	fmt.Printf("\nHTTP serving tier (serve_cells)\n")
	fmt.Printf("%-6s %-8s %-6s %22s %22s %22s %12s\n",
		"alg", "clients", "cache", "qps old→new", "p50ms old→new", "p99ms old→new", "shed old→new")
	for _, c := range new {
		o, ok := prev[key{c.Algorithm, c.Clients, c.ResultCache}]
		if !ok {
			fmt.Printf("%-6s %-8d %-6s (new cell)\n", c.Algorithm, c.Clients, c.ResultCache)
			continue
		}
		fmt.Printf("%-6s %-8d %-6s %9.0f→%-9.0f %s %8.2f→%-8.2f %s %8.2f→%-8.2f %s %4d→%-4d\n",
			c.Algorithm, c.Clients, c.ResultCache,
			o.QPS, c.QPS, pct(o.QPS, c.QPS),
			o.P50Ms, c.P50Ms, pct(o.P50Ms, c.P50Ms),
			o.P99Ms, c.P99Ms, pct(o.P99Ms, c.P99Ms),
			o.Shed, c.Shed)
	}
}

func diffIngest(old, new []xqtp.IngestCell) {
	type key struct {
		doc, parser string
	}
	prev := make(map[key]xqtp.IngestCell, len(old))
	for _, c := range old {
		prev[key{c.Document, c.Parser}] = c
	}
	fmt.Printf("%-16s %-6s %22s %22s %20s\n",
		"document", "parser", "MB/s old→new", "B/op old→new", "allocs old→new")
	for _, c := range new {
		o, ok := prev[key{c.Document, c.Parser}]
		if !ok {
			fmt.Printf("%-16s %-6s (new cell)\n", c.Document, c.Parser)
			continue
		}
		fmt.Printf("%-16s %-6s %9.1f→%-9.1f %s %8d→%-8d %s %6d→%-6d %s\n",
			c.Document, c.Parser,
			o.MBPerSec, c.MBPerSec, pct(o.MBPerSec, c.MBPerSec),
			o.BytesPerOp, c.BytesPerOp, pct(float64(o.BytesPerOp), float64(c.BytesPerOp)),
			o.AllocsPerOp, c.AllocsPerOp, pct(float64(o.AllocsPerOp), float64(c.AllocsPerOp)))
	}
}

func diffCollection(old, new []xqtp.CollectionCell) {
	type key struct {
		phase, query string
		docs, work   int
	}
	prev := make(map[key]xqtp.CollectionCell, len(old))
	for _, c := range old {
		prev[key{c.Phase, c.Query, c.Docs, c.Workers}] = c
	}
	fmt.Printf("%-14s %-16s %-6s %-7s %24s %22s %20s\n",
		"phase", "query", "docs", "workers", "MB/s|qps old→new", "B/op old→new", "allocs old→new")
	for _, c := range new {
		o, ok := prev[key{c.Phase, c.Query, c.Docs, c.Workers}]
		if !ok {
			fmt.Printf("%-14s %-16s %-6d %-7d (new cell)\n", c.Phase, c.Query, c.Docs, c.Workers)
			continue
		}
		// The throughput column is MB/s for the ingest and snapshot-save/load
		// rows (all normalized to the corpus's XML size, so they compare
		// against each other), QPS for query rows.
		oRate, nRate := o.MBPerSec, c.MBPerSec
		if c.Phase == "query" {
			oRate, nRate = o.QPS, c.QPS
		}
		fmt.Printf("%-14s %-16s %-6d %-7d %10.1f→%-10.1f %s %8d→%-8d %s %6d→%-6d %s\n",
			c.Phase, c.Query, c.Docs, c.Workers,
			oRate, nRate, pct(oRate, nRate),
			o.BytesPerOp, c.BytesPerOp, pct(float64(o.BytesPerOp), float64(c.BytesPerOp)),
			o.AllocsPerOp, c.AllocsPerOp, pct(float64(o.AllocsPerOp), float64(c.AllocsPerOp)))
	}
}

func diffSnapshot(old, new []xqtp.SnapshotCell) {
	type key struct {
		phase, mode string
		docs        int
	}
	prev := make(map[key]xqtp.SnapshotCell, len(old))
	for _, c := range old {
		prev[key{c.Phase, c.Mode, c.Docs}] = c
	}
	fmt.Printf("%-12s %-8s %-6s %24s %26s %20s\n",
		"phase", "mode", "docs", "ms/op old→new", "resident old→new", "allocs old→new")
	for _, c := range new {
		o, ok := prev[key{c.Phase, c.Mode, c.Docs}]
		if !ok {
			fmt.Printf("%-12s %-8s %-6d (new cell)\n", c.Phase, c.Mode, c.Docs)
			continue
		}
		fmt.Printf("%-12s %-8s %-6d %8.3f→%-8.3f %s %10d→%-10d %s %6d→%-6d %s\n",
			c.Phase, c.Mode, c.Docs,
			o.NsPerOp/1e6, c.NsPerOp/1e6, pct(o.NsPerOp, c.NsPerOp),
			o.ResidentBytes, c.ResidentBytes, pct(float64(o.ResidentBytes), float64(c.ResidentBytes)),
			o.AllocsPerOp, c.AllocsPerOp, pct(float64(o.AllocsPerOp), float64(c.AllocsPerOp)))
	}
}

// gateTable1 fails when allocs/op or B/op rose in any table1 cell whose
// algorithm is in algs (empty: every cell). The two counts repeat exactly
// from run to run of one binary on one Go version, so any rise is a change
// in the code; ns/op does not repeat on shared machines (same-binary reruns
// differ by tens of percent per cell) and is reported, never gated.
func gateTable1(old, new []xqtp.Table1Cell, algs map[string]bool) error {
	type key struct {
		query, alg string
		bytes      int
	}
	prev := make(map[key]xqtp.Table1Cell, len(old))
	for _, c := range old {
		prev[key{c.Query, c.Algorithm, c.DocumentBytes}] = c
	}
	compared, rose := 0, 0
	for _, c := range new {
		if len(algs) > 0 && !algs[strings.ToUpper(c.Algorithm)] {
			continue
		}
		o, ok := prev[key{c.Query, c.Algorithm, c.DocumentBytes}]
		if !ok {
			continue
		}
		compared++
		if c.AllocsPerOp > o.AllocsPerOp || c.BytesPerOp > o.BytesPerOp {
			rose++
			fmt.Printf("gate: %s %s %.1fMB: allocs/op %d→%d, B/op %d→%d\n",
				c.Query, c.Algorithm, float64(c.DocumentBytes)/1e6,
				o.AllocsPerOp, c.AllocsPerOp, o.BytesPerOp, c.BytesPerOp)
		}
	}
	if compared == 0 {
		return fmt.Errorf("gate: no comparable table1 cells for the selected algorithms")
	}
	fmt.Printf("\ngate: allocs/op or B/op rose in %d of %d cells\n", rose, compared)
	if rose > 0 {
		return fmt.Errorf("gate: allocation footprint rose in %d table1 cells", rose)
	}
	return nil
}

func main() {
	gateAllocs := flag.Bool("gate-allocs", false, "fail when allocs/op or B/op rose in any table1 cell (ns/op is report-only)")
	gateAlgs := flag.String("gate-algs", "", "comma-separated algorithm labels the gate considers (e.g. SC,TJ; empty: all)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-gate-allocs [-gate-algs SC,TJ,AUTO]] OLD.json NEW.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	algs := map[string]bool{}
	for _, a := range strings.Split(*gateAlgs, ",") {
		if a = strings.ToUpper(strings.TrimSpace(a)); a != "" {
			algs[a] = true
		}
	}
	oldR, err := load(flag.Arg(0))
	if err == nil {
		var newR report
		if newR, err = load(flag.Arg(1)); err == nil {
			switch {
			case len(oldR.Cells) > 0 && len(newR.Cells) > 0:
				diffTable1(oldR.Cells, newR.Cells)
				if *gateAllocs {
					err = gateTable1(oldR.Cells, newR.Cells, algs)
				}
			case len(oldR.Results) > 0 && len(newR.Results) > 0:
				diffServe(oldR.Results, newR.Results)
				if len(oldR.ServeCells) > 0 || len(newR.ServeCells) > 0 {
					diffServeHTTP(oldR.ServeCells, newR.ServeCells)
				}
			case len(oldR.ServeCells) > 0 && len(newR.ServeCells) > 0:
				diffServeHTTP(oldR.ServeCells, newR.ServeCells)
			case len(oldR.IngestCells) > 0 && len(newR.IngestCells) > 0:
				diffIngest(oldR.IngestCells, newR.IngestCells)
			case len(oldR.CollectionCells) > 0 && len(newR.CollectionCells) > 0:
				diffCollection(oldR.CollectionCells, newR.CollectionCells)
			case len(oldR.SnapshotCells) > 0 && len(newR.SnapshotCells) > 0:
				diffSnapshot(oldR.SnapshotCells, newR.SnapshotCells)
			default:
				err = fmt.Errorf("reports are of different kinds")
			}
			if err == nil && *gateAllocs && len(oldR.Cells) == 0 {
				err = fmt.Errorf("-gate-allocs only applies to table1 reports")
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}
