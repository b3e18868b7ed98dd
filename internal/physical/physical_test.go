package physical

import (
	"strings"
	"testing"

	"xqtp/internal/algebra"
	"xqtp/internal/compile"
	"xqtp/internal/core"
	"xqtp/internal/execctx"
	"xqtp/internal/join"
	"xqtp/internal/optimize"
	"xqtp/internal/parser"
	"xqtp/internal/pattern"
	"xqtp/internal/rewrite"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

var singles = map[string]bool{"d": true, "input": true, "dot": true}

// runPlan evaluates p into a collected sequence.
func runPlan(p *Plan, rt *Runtime) (xdm.Sequence, error) {
	var col execctx.Collector
	err := p.RunSink(rt, &col)
	return col.Seq, err
}

// lower runs the full pipeline down to a physical plan.
func lower(t *testing.T, q string, alg join.Algorithm) *Plan {
	t.Helper()
	e, err := parser.Parse(q)
	if err != nil {
		t.Fatalf("parse %s: %v", q, err)
	}
	c, err := core.Normalize(e, "dot")
	if err != nil {
		t.Fatalf("normalize %s: %v", q, err)
	}
	c = rewrite.Rewrite(c, rewrite.Options{SingletonVars: singles})
	a, err := compile.Compile(c)
	if err != nil {
		t.Fatalf("compile %s: %v", q, err)
	}
	a = optimize.Optimize(a, optimize.Options{SingletonVars: singles})
	p, err := Compile(a, alg)
	if err != nil {
		t.Fatalf("lower %s: %v", q, err)
	}
	return p
}

func parseDoc(t *testing.T, xml string) *xdm.Tree {
	t.Helper()
	tr, err := xmlstore.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSlotAndVarLayout(t *testing.T) {
	p := lower(t, `for $p in $d//person[emailaddress] return $p/name`, join.Staircase)
	if got := p.Vars(); len(got) != 1 || got[0] != "d" {
		t.Fatalf("Vars() = %v, want [d]", got)
	}
	// At minimum the context binder and the pattern output occupy slots.
	if p.NumSlots() < 2 {
		t.Fatalf("NumSlots() = %d, want >= 2", p.NumSlots())
	}
	// Pattern detection splits the FLWOR into the filter pattern and the
	// return-clause path pattern.
	if n := len(p.Patterns()); n != 2 {
		t.Fatalf("Patterns() = %d operators, want 2", n)
	}
	if p.Algorithm() != join.Staircase {
		t.Fatalf("Algorithm() = %v, want Staircase", p.Algorithm())
	}
}

func TestExplainShowsSlotsAndAlgorithm(t *testing.T) {
	p := lower(t, `$d//person[emailaddress]/name`, join.Twig)
	out := p.Explain()
	for _, want := range []string{"physical plan:", "slots", "$d@0", "alg=TwigJoin", "TupleTreePattern["} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain() missing %q:\n%s", want, out)
		}
	}
	annotated := p.ExplainAnnotated(func(*pattern.Pattern) string { return "SCJoin" })
	if !strings.Contains(annotated, "alg=TwigJoin→SCJoin") {
		t.Errorf("ExplainAnnotated missing the choice annotation:\n%s", annotated)
	}
}

func TestRunAndUniformRootBinding(t *testing.T) {
	tr := parseDoc(t, `<site><person><emailaddress/><name>n1</name></person><person><name>n2</name></person></site>`)
	p := lower(t, `$d//person[emailaddress]/name`, join.Staircase)

	// Uniform binding: nil Vars + Root covers every free variable.
	rt := &Runtime{Root: xdm.Singleton(tr.RootNode())}
	out, err := runPlan(p, rt)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d items, want 1", len(out))
	}

	// Explicit slot-resolved bindings give the same answer.
	rt2 := &Runtime{Vars: p.BindVars(map[string]xdm.Sequence{"d": xdm.Singleton(tr.RootNode())})}
	out2, err := runPlan(p, rt2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out2) != 1 || out2[0] != out[0] {
		t.Fatalf("explicit binding differs: %v vs %v", out2, out)
	}
}

func TestUnboundVariableErrorsLazily(t *testing.T) {
	p := lower(t, `$d/site`, join.Staircase)
	// BindVars with a map that misses the variable: compiling and binding
	// succeed, the error surfaces at evaluation.
	rt := &Runtime{Vars: p.BindVars(map[string]xdm.Sequence{})}
	if _, err := runPlan(p, rt); err == nil || !strings.Contains(err.Error(), "unbound variable") {
		t.Fatalf("Run with unbound $d: err = %v, want unbound variable", err)
	}
}

func TestCallBindErrorSurfacesAtEval(t *testing.T) {
	// A call the lowering cannot bind (wrong arity, unknown name) compiles —
	// error parity with the interpreter requires the failure to surface at
	// evaluation time, not at plan-build time.
	for _, bad := range []algebra.Expr{
		&algebra.Call{Name: "count", Args: []algebra.Expr{&algebra.EmptySeq{}, &algebra.EmptySeq{}}},
		&algebra.Call{Name: "no-such-fn", Args: nil},
	} {
		p, err := Compile(bad, join.Staircase)
		if err != nil {
			t.Fatalf("Compile(%v) failed eagerly: %v", bad, err)
		}
		if _, err := runPlan(p, &Runtime{}); err == nil || !strings.Contains(err.Error(), "exec:") {
			t.Fatalf("Run(%v): err = %v, want a lazy exec error", bad, err)
		}
	}
}

func TestAutoPlanResolvesPerDocument(t *testing.T) {
	tr := parseDoc(t, `<site><person><emailaddress/><name>n1</name></person></site>`)
	p := lower(t, `$d//person[emailaddress]/name`, join.Auto)
	if p.Algorithm() != join.Auto {
		t.Fatalf("Algorithm() = %v, want Auto", p.Algorithm())
	}
	rt := &Runtime{Root: xdm.Singleton(tr.RootNode())}
	out, err := runPlan(p, rt)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("Auto plan: got %d items, want 1", len(out))
	}
}
