package xqtp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// ExperimentOptions scales the paper's experiments. The defaults reproduce
// the paper's parameters; tests and quick runs pass smaller values (the
// reproduction targets the shape of the results, not absolute numbers).
type ExperimentOptions struct {
	Seed int64
	// Table1Sizes are the MemBeR document sizes in bytes (paper: 2.1, 4.3,
	// 6.5, 8.7, 11 MB).
	Table1Sizes []int
	// Fig4People scales the XMark documents of the Fig. 4 series.
	Fig4People []int
	// Fig6People scales the XMark document of the Fig. 6 experiment.
	Fig6People int
	// DeepNodes and DeepDepth shape the §5.3 document (paper: 50 000 nodes,
	// depth 15).
	DeepNodes, DeepDepth int
	// Repeats is the number of timed runs per measurement (the median is
	// reported).
	Repeats int
	// Algorithms overrides the algorithm list of the Table 1 and Fig. 6
	// experiments (nil: the paper's NL, TJ, SC columns). Auto is a valid
	// entry, measuring the rule's per-pattern choice.
	Algorithms []Algorithm
	// Context, when non-nil, lets the caller abandon a sweep: the drivers
	// check it between measurements and return its error once it is done.
	// The measured operations themselves run without an execution context,
	// so every cell stays comparable to baselines recorded before
	// cancellation existed.
	Context context.Context
}

// checkpoint returns the options context's error, checked by the experiment
// drivers between measurements (never inside a timed region).
func (o ExperimentOptions) checkpoint() error {
	if o.Context == nil {
		return nil
	}
	return o.Context.Err()
}

// experimentAlgorithms resolves the per-cell algorithm list.
func (o ExperimentOptions) experimentAlgorithms() []Algorithm {
	if len(o.Algorithms) > 0 {
		return o.Algorithms
	}
	return []Algorithm{NestedLoop, Twig, Staircase}
}

// DefaultExperimentOptions reproduces the paper's experiment parameters.
func DefaultExperimentOptions() ExperimentOptions {
	return ExperimentOptions{
		Seed:        1,
		Table1Sizes: []int{2_100_000, 4_300_000, 6_500_000, 8_700_000, 11_000_000},
		Fig4People:  []int{250, 500, 1000, 2000, 4000},
		Fig6People:  2000,
		DeepNodes:   50_000,
		DeepDepth:   15,
		Repeats:     3,
	}
}

// QuickExperimentOptions is a scaled-down configuration for smoke runs and
// tests.
func QuickExperimentOptions() ExperimentOptions {
	return ExperimentOptions{
		Seed:        1,
		Table1Sizes: []int{200_000, 400_000},
		Fig4People:  []int{100, 200},
		Fig6People:  300,
		DeepNodes:   10_000,
		DeepDepth:   15,
		Repeats:     1,
	}
}

// timeQuery measures the median evaluation time of a prepared query.
func timeQuery(q *Query, doc *Document, alg Algorithm, repeats int) (time.Duration, error) {
	d, _, _, err := measureQuery(q, doc, alg, repeats)
	return d, err
}

// measureQuery measures the median evaluation time and the steady-state
// allocation footprint (allocations and bytes of one run, from MemStats
// deltas around each timed run; one warm-up run populates the plan and index
// caches so the deltas reflect serving state, not first-run setup). The
// footprint is the minimum over the runs: whatever the runtime allocates on
// the side (a GC cycle, a timer) only ever adds to a run's delta, so the
// minimum is the evaluation's own count and repeats exactly, which is what
// lets benchdiff gate on it.
func measureQuery(q *Query, doc *Document, alg Algorithm, repeats int) (time.Duration, int64, int64, error) {
	if repeats < 1 {
		repeats = 1
	}
	if _, err := q.Run(doc, alg); err != nil {
		return 0, 0, 0, err
	}
	// No collection inside the timed runs: a sweep keeps all its documents
	// live, so one that lands in a run costs more than most cells' whole
	// evaluation, and which cell it lands in is luck (with the collector
	// on, one kernel measured 5x apart between two sweeps). What the
	// evaluation allocates is still paid for and reported.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	allocs, bytes := int64(math.MaxInt64), int64(math.MaxInt64)
	times := make([]time.Duration, 0, repeats)
	for i := 0; i < repeats; i++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		if _, err := q.Run(doc, alg); err != nil {
			return 0, 0, 0, err
		}
		times = append(times, time.Since(start))
		runtime.ReadMemStats(&after)
		allocs = min(allocs, int64(after.Mallocs-before.Mallocs))
		bytes = min(bytes, int64(after.TotalAlloc-before.TotalAlloc))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], allocs, bytes, nil
}

func seconds(d time.Duration) string { return fmt.Sprintf("%.5f", d.Seconds()) }

func micros(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d)/float64(time.Microsecond)) }

// Table1Cell is one measurement of the Table 1 experiment.
type Table1Cell struct {
	Query         string  `json:"query"`
	Algorithm     string  `json:"algorithm"`
	DocumentBytes int     `json:"document_bytes"`
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
}

// Table1Report is the machine-readable output of RunTable1. The header
// names the host shape, toolchain and source the cells were measured on:
// allocs/op and B/op repeat exactly only on the same Go version.
type Table1Report struct {
	Seed    int64        `json:"seed"`
	Repeats int          `json:"repeats"`
	CPUs    int          `json:"cpus"`
	Go      string       `json:"go"`
	Commit  string       `json:"commit"`
	Cells   []Table1Cell `json:"cells"`
}

// buildCommit returns the VCS revision stamped into the running binary
// ("+dirty" when the tree had uncommitted changes). `go build` stamps it;
// `go run` and `go test` binaries carry none and report "unknown".
func buildCommit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

// RunTable1 regenerates Table 1: evaluation time of QE1–QE6 under NLJoin,
// TwigJoin and SCJoin over MemBeR documents of growing size. The fastest
// algorithm per cell row group is marked with '*'. If jsonPath is non-empty
// a machine-readable report (ns/op, allocs/op, bytes/op per cell) is also
// written there.
func RunTable1(w io.Writer, opts ExperimentOptions, jsonPath string) error {
	fmt.Fprintf(w, "Table 1: QE1-QE6 evaluation time (seconds), MemBeR documents (depth 4, 100 tags)\n\n")
	docs := make([]*Document, len(opts.Table1Sizes))
	fmt.Fprintf(w, "%-10s", "doc size")
	for i, sz := range opts.Table1Sizes {
		docs[i] = NewMemberDocument(opts.Seed+int64(i), sz)
		fmt.Fprintf(w, "%12s", fmt.Sprintf("%.1fMB", float64(sz)/1e6))
	}
	fmt.Fprintln(w)
	algs := opts.experimentAlgorithms()
	report := Table1Report{Seed: opts.Seed, Repeats: opts.Repeats,
		CPUs: runtime.NumCPU(), Go: runtime.Version(), Commit: buildCommit()}
	for _, pq := range QEQueries {
		q, err := Prepare(pq.Query)
		if err != nil {
			return fmt.Errorf("%s: %w", pq.Name, err)
		}
		// Measure all cells first to mark the per-column winner.
		cells := make([][]time.Duration, len(algs))
		for ai, alg := range algs {
			cells[ai] = make([]time.Duration, len(docs))
			for di, doc := range docs {
				if err := opts.checkpoint(); err != nil {
					return err
				}
				d, allocs, bytes, err := measureQuery(q, doc, alg, opts.Repeats)
				if err != nil {
					return fmt.Errorf("%s/%v: %w", pq.Name, alg, err)
				}
				cells[ai][di] = d
				report.Cells = append(report.Cells, Table1Cell{
					Query:         pq.Name,
					Algorithm:     shortAlg(alg),
					DocumentBytes: opts.Table1Sizes[di],
					NsPerOp:       float64(d.Nanoseconds()),
					AllocsPerOp:   allocs,
					BytesPerOp:    bytes,
				})
			}
		}
		for ai, alg := range algs {
			label := pq.Name
			if ai > 0 {
				label = ""
			}
			fmt.Fprintf(w, "%-4s %-5s", label, shortAlg(alg))
			for di := range docs {
				best := true
				for aj := range algs {
					if cells[aj][di] < cells[ai][di] {
						best = false
						break
					}
				}
				mark := " "
				if best {
					mark = "*"
				}
				fmt.Fprintf(w, "%11s%s", seconds(cells[ai][di]), mark)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "\n(* = fastest algorithm for that query and document size)")
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

func shortAlg(a Algorithm) string {
	switch a {
	case NestedLoop:
		return "NL"
	case Twig:
		return "TJ"
	case Staircase:
		return "SC"
	case Auto:
		return "auto"
	}
	return "?"
}

// RunFigure4 regenerates Fig. 4: the §5.1 path expression written as a
// FLWOR, evaluated with and without the tree-pattern rewrites over growing
// XMark documents.
func RunFigure4(w io.Writer, opts ExperimentOptions) error {
	fmt.Fprintf(w, "Figure 4: FLWOR-written path, with vs without tree-pattern rewrites (seconds)\n\n")
	flwor := Fig4Variants()[7] // a fully exploded FLWOR variant
	oldQ, err := PrepareWithOptions(flwor, StandardEngineOptions)
	if err != nil {
		return err
	}
	newQ, err := Prepare(flwor)
	if err != nil {
		return err
	}
	if newQ.TreePatterns() != 1 {
		return fmt.Errorf("figure4: rewritten variant has %d patterns", newQ.TreePatterns())
	}
	fmt.Fprintf(w, "%-12s %-10s %-12s %-12s %-12s %-12s\n",
		"people", "size", "no-rewrite", "TTP(NL)", "TTP(TJ)", "TTP(SC)")
	for i, people := range opts.Fig4People {
		if err := opts.checkpoint(); err != nil {
			return err
		}
		doc := NewXMarkDocument(opts.Seed+int64(i), people)
		told, err := timeQuery(oldQ, doc, NestedLoop, opts.Repeats)
		if err != nil {
			return err
		}
		row := fmt.Sprintf("%-12d %-10s %-12s", people, fmt.Sprintf("%.1fMB", float64(doc.SizeBytes())/1e6), seconds(told))
		for _, alg := range []Algorithm{NestedLoop, Twig, Staircase} {
			tn, err := timeQuery(newQ, doc, alg, opts.Repeats)
			if err != nil {
				return err
			}
			row += fmt.Sprintf(" %-12s", seconds(tn))
		}
		fmt.Fprintln(w, row)
	}
	fmt.Fprintf(w, "\n(query: %s)\n", flwor)
	return nil
}

// RunFigure6 regenerates Fig. 6: XMark queries in child form and in the
// equivalent descendant form, under the three algorithms.
func RunFigure6(w io.Writer, opts ExperimentOptions) error {
	doc := NewXMarkDocument(opts.Seed, opts.Fig6People)
	fmt.Fprintf(w, "Figure 6: XMark queries, child vs descendant steps (seconds, %.1fMB document)\n\n",
		float64(doc.SizeBytes())/1e6)
	algs := opts.experimentAlgorithms()
	fmt.Fprintf(w, "%-14s %-6s", "query", "form")
	for _, alg := range algs {
		fmt.Fprintf(w, " %-12s", shortAlg(alg))
	}
	fmt.Fprintln(w)
	for _, pair := range Figure6Queries {
		for _, form := range []struct {
			label string
			src   string
		}{{"child", pair.Child}, {"desc", pair.Descendant}} {
			if err := opts.checkpoint(); err != nil {
				return err
			}
			q, err := Prepare(form.src)
			if err != nil {
				return fmt.Errorf("%s: %w", pair.Name, err)
			}
			fmt.Fprintf(w, "%-14s %-6s", pair.Name, form.label)
			for _, alg := range algs {
				d, err := timeQuery(q, doc, alg, opts.Repeats)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " %-12s", seconds(d))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// RunSection53 regenerates the §5.3 table: the highly selective positional
// chain (/t1[1])^k on a deep single-tag document, where the nested loop's
// cursor-style early exit beats the set-at-a-time algorithms.
func RunSection53(w io.Writer, opts ExperimentOptions) error {
	doc := NewDeepDocument(opts.Seed, opts.DeepNodes, opts.DeepDepth, "t1")
	fmt.Fprintf(w, "Section 5.3: (/t1[1])^k on a %d-node depth-%d document (µs)\n\n",
		opts.DeepNodes, opts.DeepDepth)
	ks := []int{5, 10, 15}
	if opts.DeepDepth < 15 {
		ks = []int{3, opts.DeepDepth / 2, opts.DeepDepth - 1}
	}
	fmt.Fprintf(w, "%-10s", "")
	for _, k := range ks {
		fmt.Fprintf(w, "%12s", fmt.Sprintf("k=%d", k))
	}
	fmt.Fprintln(w)
	for _, alg := range []Algorithm{NestedLoop, Twig, Staircase} {
		fmt.Fprintf(w, "%-10s", alg.String())
		for _, k := range ks {
			if err := opts.checkpoint(); err != nil {
				return err
			}
			q, err := Prepare(Section53Query(k))
			if err != nil {
				return err
			}
			d, err := timeQuery(q, doc, alg, opts.Repeats)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%12s", micros(d))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RunValidation regenerates the §5.1 robustness check: all syntactic
// variants of the Fig. 4 path compile to the identical single-pattern plan.
func RunValidation(w io.Writer) error {
	variants := Fig4Variants()
	fmt.Fprintf(w, "Section 5.1 validation: %d syntactic variants of\n  %s\n\n", len(variants), Fig4Query)
	var refPlan string
	identical := 0
	for i, v := range variants {
		q, err := Prepare(v)
		if err != nil {
			return fmt.Errorf("variant %d: %w", i, err)
		}
		if i == 0 {
			refPlan = q.Plan()
		}
		same := q.Plan() == refPlan && q.TreePatterns() == 1
		if same {
			identical++
		}
		status := "ok "
		if !same {
			status = "DIFF"
		}
		fmt.Fprintf(w, "  [%s] %s\n", status, v)
	}
	fmt.Fprintf(w, "\n%d/%d variants compile to the identical plan:\n  %s\n", identical, len(variants), refPlan)
	if identical != len(variants) {
		return fmt.Errorf("validation failed: %d/%d variants diverged", len(variants)-identical, len(variants))
	}
	return nil
}

// RunAll runs every experiment in paper order.
func RunAll(w io.Writer, opts ExperimentOptions) error {
	if err := RunValidation(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := RunFigure4(w, opts); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := RunTable1(w, opts, ""); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := RunFigure6(w, opts); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return RunSection53(w, opts)
}
