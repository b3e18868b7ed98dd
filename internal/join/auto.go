package join

import (
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// Auto selects the physical algorithm per TupleTreePattern by a fixed rule,
// applied in this order:
//
//  1. a pattern that is provably empty in the document (provablyEmpty) is
//     not evaluated at all;
//  2. a first-match evaluation over a child-only spine takes the nested
//     loop's cursor-style early exit (§5.3; AppendFirstFor), the one place its
//     lexically first binding is the document-order first;
//  3. otherwise SCJoin when the pattern is single-output and inside the
//     staircase join's fragment (forward axes), NLJoin when it is not.
//
// TwigJoin is never chosen: on the in-memory region encoding child access is
// constant-time, so SCJoin is at least level with TwigJoin in every measured
// cell (DESIGN §13 has the data and the condition that would reopen the
// question). It stays selectable as an explicit algorithm.
const Auto Algorithm = 255

// Estimate is the rule's decision for one pattern on one document.
type Estimate struct {
	// Alg is the algorithm Auto evaluates the pattern with.
	Alg Algorithm
	// Empty is set when some required step's document-wide stream is empty:
	// the pattern is conjunctive, so it can have no binding anywhere in the
	// document and evaluation is skipped outright.
	Empty bool
}

// ChooseEstimate returns what Auto does with pat on ix's document. The rule
// does not depend on the context node; ctx is part of the call shape only.
// A pattern Prepare rejects gets the fully general NLJoin (evaluating it
// reports the error).
func ChooseEstimate(ix *xmlstore.Index, ctx *xdm.Node, pat *pattern.Pattern) Estimate {
	p, err := Prepare(Auto, ix, pat)
	if err != nil {
		return Estimate{Alg: NestedLoop}
	}
	e := Estimate{Alg: NestedLoop, Empty: p.empty}
	if p.kernel != nestedLoop {
		e.Alg = Staircase
	}
	return e
}

// provablyEmpty reports whether some step of the compiled chain can never
// match in the document: the pattern is conjunctive — every spine step and
// every predicate step must bind for any output tuple — so one required step
// with an empty document-wide stream empties the whole pattern, on any axis.
func provablyEmpty(chain []cstep) bool {
	for i := range chain {
		s := &chain[i]
		if stepRequiresStream(s) && len(s.stream) == 0 {
			return true
		}
		for _, pr := range s.preds {
			if provablyEmpty(pr) {
				return true
			}
		}
	}
	return false
}

// stepRequiresStream reports whether every node the step can match appears
// in its rank stream (so an empty stream proves the step unmatchable). The
// one exception is node() off the attribute axis, which also matches the
// document node, which no stream carries.
func stepRequiresStream(s *cstep) bool {
	return !s.test.AnyNode() || s.axis == xdm.AxisAttribute
}
