package xqtp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"xqtp/internal/join"
)

// The optimizer experiment scores the cost model itself rather than the
// kernels: per-step estimated vs actual cardinalities (q-error) for the
// paper workload, and the count-based emptiness proof's member skip rates
// over the mixed collection corpus.

// OptimizerCell is one measurement of the optimizer experiment. Step rows
// (Kind "step") carry one spine step's estimated and actual cardinality and
// their q-error; skip rows (Kind "skip") carry the per-corpus-query member
// skip counts.
type OptimizerCell struct {
	Kind  string `json:"kind"` // "step" or "skip"
	Query string `json:"query"`
	// Doc labels the document of a step row ("member-2100000") or is empty
	// for skip rows (which run over the mixed corpus).
	Doc  string `json:"doc,omitempty"`
	Step string `json:"step,omitempty"` // rendered spine step of step rows
	// Est and Act are the model's predicted and the measured number of
	// distinct bindings of the step (step rows).
	Est float64 `json:"est,omitempty"`
	Act int     `json:"act,omitempty"`
	// QError is max((est+1)/(act+1), (act+1)/(est+1)) — 1.0 is a perfect
	// estimate, and the factor reads the same whichever side is off.
	QError float64 `json:"q_error,omitempty"`
	// Members and Skipped are the corpus size and the members the emptiness
	// proof excluded from evaluation (skip rows).
	Members int `json:"members,omitempty"`
	Skipped int `json:"skipped,omitempty"`
}

// OptimizerReport is the machine-readable output of RunOptimizer. The
// optimizer_cells key identifies the report kind for benchdiff.
type OptimizerReport struct {
	Seed  int64           `json:"seed"`
	CPUs  int             `json:"cpus"`
	Note  string          `json:"note,omitempty"`
	Cells []OptimizerCell `json:"optimizer_cells"`
}

func qError(est float64, act int) float64 {
	a := float64(act) + 1
	e := est + 1
	if e > a {
		return e / a
	}
	return a / e
}

// optimizerStepRows scores the cost model's per-step estimates for one query
// over one document: every root-bound pattern operator of the Auto plan
// contributes one row per spine step. Downstream pattern operators consume
// derived bindings, so the document root is not their context and they are
// not scored.
func optimizerStepRows(q *Query, d *Document, name, docLabel string) ([]OptimizerCell, error) {
	p, err := q.physicalPlan(Auto)
	if err != nil {
		return nil, err
	}
	index, root := d.member().Index, d.Root()
	rootBound := p.RootBoundPatterns()
	var out []OptimizerCell
	for pi, pat := range p.Patterns() {
		if !rootBound[pi] {
			continue
		}
		est := join.ChooseEstimate(index, root, pat)
		acts := join.StepActuals(index, root, pat)
		for i, se := range est.Steps {
			act := -1
			if i < len(acts) {
				act = acts[i]
			}
			if act < 0 {
				continue
			}
			out = append(out, OptimizerCell{
				Kind:   "step",
				Query:  name,
				Doc:    docLabel,
				Step:   se.Step.StepString(),
				Est:    se.Out,
				Act:    act,
				QError: qError(se.Out, act),
			})
		}
	}
	return out, nil
}

// RunOptimizer measures the cost model: per-step q-errors for the Table 1
// workload over the MemBeR documents and the Fig. 1/Fig. 4 queries over an
// XMark document, then the emptiness proof's member skip counts over the
// mixed collection corpus. If jsonPath is non-empty the machine-readable
// report is also written there.
func RunOptimizer(w io.Writer, opts ExperimentOptions, jsonPath string) error {
	fmt.Fprintf(w, "Optimizer: per-step cardinality estimates vs actuals, and corpus member skipping\n\n")
	report := OptimizerReport{Seed: opts.Seed, CPUs: runtime.NumCPU()}

	type workloadDoc struct {
		label string
		doc   *Document
		qs    []PaperQuery
	}
	var docs []workloadDoc
	for i, sz := range opts.Table1Sizes {
		docs = append(docs, workloadDoc{
			label: fmt.Sprintf("member-%d", sz),
			doc:   NewMemberDocument(opts.Seed+int64(i), sz),
			qs:    QEQueries,
		})
	}
	xmarkQs := append(append([]PaperQuery{}, Figure1Queries...), PaperQuery{"Fig4", Fig4Query})
	docs = append(docs, workloadDoc{
		label: fmt.Sprintf("xmark-%d", opts.Fig6People),
		doc:   NewXMarkDocument(opts.Seed, opts.Fig6People),
		qs:    xmarkQs,
	})

	fmt.Fprintf(w, "%-6s %-16s %-40s %12s %10s %8s\n",
		"query", "doc", "step", "est", "act", "q-err")
	for _, wd := range docs {
		for _, pq := range wd.qs {
			if err := opts.checkpoint(); err != nil {
				return err
			}
			q, err := PrepareCached(pq.Query)
			if err != nil {
				return fmt.Errorf("%s: %w", pq.Name, err)
			}
			rows, err := optimizerStepRows(q, wd.doc, pq.Name, wd.label)
			if err != nil {
				return fmt.Errorf("%s over %s: %w", pq.Name, wd.label, err)
			}
			for _, c := range rows {
				fmt.Fprintf(w, "%-6s %-16s %-40s %12.1f %10d %8.2f\n",
					c.Query, c.Doc, c.Step, c.Est, c.Act, c.QError)
			}
			report.Cells = append(report.Cells, rows...)
		}
	}

	// Skip rows: the mixed MemBeR/XMark corpus, where each root-bound query
	// provably cannot match roughly half the members.
	fmt.Fprintf(w, "\n%-16s %-8s %-8s %-8s\n", "query", "docs", "skipped", "evaluated")
	workers := runtime.NumCPU()
	for _, nDocs := range opts.CollectionSizes {
		corpus, err := LoadCorpus(collectionSources(nDocs, opts.Seed), 0)
		if err != nil {
			return err
		}
		for _, pq := range collectionQueries {
			if err := opts.checkpoint(); err != nil {
				return err
			}
			q, err := Prepare(pq.Query)
			if err != nil {
				return fmt.Errorf("%s: %w", pq.Name, err)
			}
			_, rs, err := corpus.RunParallelStats(q, Auto, workers)
			if err != nil {
				return fmt.Errorf("%s over %d docs: %w", pq.Name, nDocs, err)
			}
			fmt.Fprintf(w, "%-16s %-8d %-8d %-8d\n",
				pq.Name, rs.Members, rs.Skipped, rs.Members-rs.Skipped)
			report.Cells = append(report.Cells, OptimizerCell{
				Kind:    "skip",
				Query:   pq.Name,
				Members: rs.Members,
				Skipped: rs.Skipped,
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
