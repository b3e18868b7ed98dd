// Package pattern defines tree patterns — the parameter of the
// TupleTreePattern operator (paper §4.1). The grammar is the paper's:
//
//	TreePattern ::= IN#FieldName(/Pattern)?
//	Pattern     ::= Step([Pattern])* (/Pattern)?
//	Step        ::= Axis NodeTest{FieldName}?
//
// A pattern is a spine of steps, each carrying optional predicate branches
// (themselves patterns) and an optional output-field annotation. The
// extraction point is the last spine step.
package pattern

import (
	"strings"

	"xqtp/internal/xdm"
)

// Step is one node of a tree pattern: an axis step with predicate branches,
// an optional output field annotation, and the next spine step.
type Step struct {
	Axis  xdm.Axis
	Test  xdm.NodeTest
	Out   string  // output field annotation {field}, "" if none
	Preds []*Step // predicate branches (pattern chains)
	Next  *Step   // next spine step, nil at the extraction point
}

// Pattern is a tree pattern anchored at a tuple field: IN#Input/spine.
type Pattern struct {
	Input string // the field holding the context nodes
	Root  *Step  // first spine step
}

// New builds a pattern from a field name and a chain of steps.
func New(input string, root *Step) *Pattern {
	return &Pattern{Input: input, Root: root}
}

// NewStep builds a single step.
func NewStep(axis xdm.Axis, test xdm.NodeTest) *Step {
	return &Step{Axis: axis, Test: test}
}

// Clone deep-copies the pattern.
func (p *Pattern) Clone() *Pattern {
	return &Pattern{Input: p.Input, Root: p.Root.Clone()}
}

// Clone deep-copies a step chain.
func (s *Step) Clone() *Step {
	if s == nil {
		return nil
	}
	out := &Step{Axis: s.Axis, Test: s.Test, Out: s.Out, Next: s.Next.Clone()}
	for _, pr := range s.Preds {
		out.Preds = append(out.Preds, pr.Clone())
	}
	return out
}

// ExtractionPoint returns the last spine step (the step whose matches a
// path expression returns).
func (p *Pattern) ExtractionPoint() *Step {
	s := p.Root
	for s.Next != nil {
		s = s.Next
	}
	return s
}

// OutputFields returns the output-field annotations of the whole pattern in
// root-to-leaf, spine-before-predicates order.
func (p *Pattern) OutputFields() []string {
	var out []string
	var walk func(*Step)
	walk = func(s *Step) {
		if s == nil {
			return
		}
		if s.Out != "" {
			out = append(out, s.Out)
		}
		for _, pr := range s.Preds {
			walk(pr)
		}
		walk(s.Next)
	}
	walk(p.Root)
	return out
}

// SingleOutput reports whether the pattern's only output field annotation
// sits at the extraction point, and returns that field. This is the case in
// which the operator's result coincides with XPath semantics (paper §4.1).
func (p *Pattern) SingleOutput() (string, bool) {
	fields := p.OutputFields()
	ep := p.ExtractionPoint()
	if len(fields) == 1 && ep.Out == fields[0] {
		return fields[0], true
	}
	return "", false
}

// ClearOutputs removes all output annotations from a step chain (used when
// a pattern becomes a predicate branch of another pattern).
func (s *Step) ClearOutputs() *Step {
	for c := s; c != nil; c = c.Next {
		c.Out = ""
		for _, pr := range c.Preds {
			pr.ClearOutputs()
		}
	}
	return s
}

// String renders the pattern in the paper's notation, e.g.
// IN#dot/descendant::person[child::emailaddress]/child::name{out}.
func (p *Pattern) String() string {
	var b strings.Builder
	b.WriteString("IN#" + p.Input)
	for s := p.Root; s != nil; s = s.Next {
		b.WriteString("/")
		s.write(&b)
	}
	return b.String()
}

func (s *Step) write(b *strings.Builder) {
	b.WriteString(s.Axis.String())
	b.WriteString("::")
	b.WriteString(s.Test.String())
	if s.Out != "" {
		b.WriteString("{" + s.Out + "}")
	}
	for _, pr := range s.Preds {
		b.WriteString("[")
		for c, first := pr, true; c != nil; c, first = c.Next, false {
			if !first {
				b.WriteString("/")
			}
			c.write(b)
		}
		b.WriteString("]")
	}
}

// String renders a step chain without the IN#field anchor.
func (s *Step) String() string {
	var b strings.Builder
	for c, first := s, true; c != nil; c, first = c.Next, false {
		if !first {
			b.WriteString("/")
		}
		c.write(&b)
	}
	return b.String()
}
