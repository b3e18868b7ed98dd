package physical

import (
	"sort"

	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
)

// RequiredStep is one name the plan requires of a document, annotated with
// the node kind it must occur as: an attribute when the requiring step sits
// on the attribute axis (where the name test matches attribute nodes only),
// an element on every other axis (where the principal node kind is element).
type RequiredStep struct {
	Name string
	Attr bool
}

// RequiredSteps returns the (name, kind) pairs that must occur in a
// document for the plan to produce a non-empty result there: if any
// returned name has no occurrence of the required kind — count it via the
// document's per-symbol streams — running the plan with every binding
// (context item and free variables) set to that document is guaranteed to
// yield the empty sequence. A nil result means the analysis proved nothing
// and the caller must evaluate every document.
//
// The claim rests on two facts. Tree patterns are conjunctive — every step
// of the spine and of every predicate subtree must bind for any output tuple
// to exist — so each name test in a pattern is required, as the kind its
// axis's principal node kind dictates. And the operators between a pattern
// and the plan root must preserve emptiness for the requirement to
// propagate: tuple-stream operators (map, select, head, tree-join) do,
// while function calls (count() of nothing is 0), constants, comparisons
// and booleans do not, so their subtrees contribute no requirements.
// Any fn:doc/fn:collection operator voids the whole analysis: it injects
// nodes of other documents, against whose trees downstream patterns match.
func (p *Plan) RequiredSteps() []RequiredStep {
	p.reqOnce.Do(func() {
		if p.usesDocs {
			return
		}
		a := &analyzer{}
		steps := a.required(p.root)
		if a.crossDoc || len(steps) == 0 {
			return
		}
		out := make([]RequiredStep, 0, len(steps))
		for s := range steps {
			out = append(out, s)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Name != out[j].Name {
				return out[i].Name < out[j].Name
			}
			return !out[i].Attr && out[j].Attr
		})
		p.reqSteps = out
	})
	return p.reqSteps
}

// RequiredNames returns RequiredSteps' names (deduplicated, sorted) — the
// name-presence form of the emptiness requirement.
func (p *Plan) RequiredNames() []string {
	steps := p.RequiredSteps()
	if len(steps) == 0 {
		return nil
	}
	out := make([]string, 0, len(steps))
	for _, s := range steps {
		if len(out) == 0 || out[len(out)-1] != s.Name {
			out = append(out, s.Name)
		}
	}
	return out
}

type analyzer struct {
	// crossDoc is set when the plan can reach nodes outside the bound
	// document (fn:doc / fn:collection), which unsounds every name claim.
	crossDoc bool
}

// required returns the required steps whose absence forces o's result to be
// empty. An empty map is the vacuous claim ("cannot prove emptiness"), used
// for every operator that can produce output from nothing.
func (a *analyzer) required(o any) map[RequiredStep]struct{} {
	switch x := o.(type) {
	case *opDoc, *opCollection:
		a.crossDoc = true
		return nil

	case *opTTP:
		steps := a.required(x.input)
		if steps == nil {
			steps = map[RequiredStep]struct{}{}
		}
		patternSteps(x.pat.Root, steps)
		return steps

	case *opTreeJoin:
		steps := a.required(x.input)
		if x.test.Kind == xdm.TestName {
			if steps == nil {
				steps = map[RequiredStep]struct{}{}
			}
			steps[RequiredStep{Name: x.test.Name, Attr: x.axis == xdm.AxisAttribute}] = struct{}{}
		}
		return steps

	// Tuple-stream shells: empty input means empty output, so the input's
	// requirement carries through. Their dependent expressions (dep, pred)
	// run per input tuple and add nothing, but must still be walked for
	// cross-document operators.
	case *opMapFromItem:
		return a.required(x.input)
	case *opMapToItem:
		a.scan(x.dep)
		return a.required(x.input)
	case *opSelect:
		a.scan(x.pred)
		return a.required(x.input)
	case *opMapIndex:
		return a.required(x.input)
	case *opHead:
		return a.required(x.input)

	case *opLet:
		// The let value may be empty without emptying the body, so only the
		// body's requirement stands.
		a.scan(x.value)
		return a.required(x.body)

	case *opIf:
		// Absent names must empty both branches for the result to be
		// provably empty, whichever way the condition goes.
		a.scan(x.cond)
		return intersect(a.required(x.then), a.required(x.els))

	case *opTypeSwitch:
		a.scan(x.input)
		req := a.required(x.deflt)
		for _, cs := range x.cases {
			req = intersect(req, a.required(cs.body))
		}
		return req

	case *opSequence:
		// A sequence is empty only when every item is.
		if len(x.parts) == 0 {
			return nil
		}
		req := a.required(x.parts[0])
		for _, it := range x.parts[1:] {
			req = intersect(req, a.required(it))
		}
		return req

	// Everything below can produce output from empty inputs (count()=0,
	// ()=() comparisons, constants, bindings), so it contributes no names —
	// but its subtrees may still hide fn:doc/fn:collection.
	case *opCall:
		for _, arg := range x.args {
			a.scan(arg)
		}
		return nil
	case *opCompare:
		a.scan(x.l)
		a.scan(x.r)
		return nil
	case *opArith:
		a.scan(x.l)
		a.scan(x.r)
		return nil
	case *opAnd:
		a.scan(x.l)
		a.scan(x.r)
		return nil
	case *opOr:
		a.scan(x.l)
		a.scan(x.r)
		return nil
	}
	return nil
}

// scan walks a subtree only for cross-document operators, discarding names.
func (a *analyzer) scan(o any) { a.required(o) }

// patternSteps collects every name test in the step chain rooted at s —
// spine and predicates alike, since all of them must bind — with the node
// kind its axis requires.
func patternSteps(s *pattern.Step, into map[RequiredStep]struct{}) {
	for ; s != nil; s = s.Next {
		if s.Test.Kind == xdm.TestName {
			into[RequiredStep{Name: s.Test.Name, Attr: s.Axis == xdm.AxisAttribute}] = struct{}{}
		}
		for _, p := range s.Preds {
			patternSteps(p, into)
		}
	}
}

func intersect(a, b map[RequiredStep]struct{}) map[RequiredStep]struct{} {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := map[RequiredStep]struct{}{}
	for n := range a {
		if _, ok := b[n]; ok {
			out[n] = struct{}{}
		}
	}
	return out
}
