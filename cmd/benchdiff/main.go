// Command benchdiff compares two Table 1 reports produced by treebench
// (BENCH_table1.json, BENCH_table1_quick.json or a fresh
// `treebench -exp table1 -json` run) and prints the per-cell deltas. It
// exits non-zero on malformed input, and with -gate-allocs when allocs/op or
// B/op rose, so it can gate CI and Makefile comparisons.
//
// Usage:
//
//	benchdiff OLD.json NEW.json
//	benchdiff -gate-allocs -gate-algs SC,TJ,AUTO OLD.json NEW.json   # fail if
//	    allocs/op or B/op rose in any cell of the named algorithms
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"xqtp/internal/experiments"
)

func load(path string) (experiments.Table1Report, error) {
	var r experiments.Table1Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Cells) == 0 {
		return r, fmt.Errorf("%s: no table1 cells", path)
	}
	return r, nil
}

func pct(old, new float64) string {
	if old == 0 {
		return "    n/a"
	}
	return fmt.Sprintf("%+6.1f%%", (new-old)/old*100)
}

func diffTable1(old, new []experiments.Table1Cell) {
	type key struct {
		query, alg string
		bytes      int
	}
	prev := make(map[key]experiments.Table1Cell, len(old))
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

// gateTable1 fails when allocs/op or B/op rose in any table1 cell whose
// algorithm is in algs (empty: every cell). The two counts repeat exactly
// from run to run of one binary on one Go version, so any rise is a change
// in the code; ns/op does not repeat on shared machines (same-binary reruns
// differ by tens of percent per cell) and is reported, never gated.
func gateTable1(old, new []experiments.Table1Cell, algs map[string]bool) error {
	type key struct {
		query, alg string
		bytes      int
	}
	prev := make(map[key]experiments.Table1Cell, len(old))
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
		var newR experiments.Table1Report
		if newR, err = load(flag.Arg(1)); err == nil {
			diffTable1(oldR.Cells, newR.Cells)
			if *gateAllocs {
				err = gateTable1(oldR.Cells, newR.Cells, algs)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}
