package xqtp

import (
	"fmt"
	"strings"

	"xqtp/internal/algebra"
	"xqtp/internal/core"
)

// TraceStep is one intermediate state of the compilation pipeline.
type TraceStep struct {
	Phase string // which pass produced this state
	Repr  string // the expression/plan after the pass
}

// Trace records the evolution of a query through the rewriting and
// optimization phases — the paper's worked example (Q1a-n → Q1-tp → P1 →
// … → P5), step by step.
type Trace struct {
	Source    string
	Core      string      // after normalization
	CoreSteps []TraceStep // after each core rewriting pass that changed it
	Plan      string      // after compilation
	PlanSteps []TraceStep // after each algebraic rule application
}

// PrepareTraced compiles a query like Prepare while recording every
// intermediate rewriting state.
func PrepareTraced(query string) (*Query, *Trace, error) {
	tr := &Trace{Source: query}
	q, err := prepare(query, DefaultOptions, tr)
	if err != nil {
		return nil, nil, err
	}
	return q, tr, nil
}

// coreStep and planStep are the rewriter's and the optimizer's trace hooks.
func (tr *Trace) coreStep(phase string, e core.Expr) {
	tr.CoreSteps = append(tr.CoreSteps, TraceStep{Phase: phase, Repr: core.String(e)})
}

func (tr *Trace) planStep(step int, p algebra.Expr) {
	tr.PlanSteps = append(tr.PlanSteps, TraceStep{Phase: fmt.Sprintf("rule %d", step), Repr: algebra.String(p)})
}

// String renders the trace, skipping consecutive identical states.
func (tr *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n\nnormalized core:\n  %s\n", tr.Source, tr.Core)
	prev := tr.Core
	fmt.Fprintf(&b, "\ncore rewriting:\n")
	for _, s := range tr.CoreSteps {
		if s.Repr == prev {
			continue
		}
		prev = s.Repr
		fmt.Fprintf(&b, "  [%-12s] %s\n", s.Phase, s.Repr)
	}
	fmt.Fprintf(&b, "\ncompiled plan:\n  %s\n", tr.Plan)
	fmt.Fprintf(&b, "\nalgebraic optimization:\n")
	prev = tr.Plan
	for _, s := range tr.PlanSteps {
		if s.Repr == prev {
			continue
		}
		prev = s.Repr
		fmt.Fprintf(&b, "  [%-8s] %s\n", s.Phase, s.Repr)
	}
	return b.String()
}
