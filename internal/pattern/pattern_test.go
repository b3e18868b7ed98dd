package pattern

import (
	"testing"

	"xqtp/internal/xdm"
)

// q1a builds IN#dot/descendant::person[child::emailaddress]/child::name{out}.
func q1a() *Pattern {
	person := NewStep(xdm.AxisDescendant, xdm.NameTest("person"))
	person.Preds = []*Step{NewStep(xdm.AxisChild, xdm.NameTest("emailaddress"))}
	name := NewStep(xdm.AxisChild, xdm.NameTest("name"))
	name.Out = "out"
	person.Next = name
	return New("dot", person)
}

func TestString(t *testing.T) {
	got := q1a().String()
	want := "IN#dot/descendant::person[child::emailaddress]/child::name{out}"
	if got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
}

func TestExtractionPointAndOutputs(t *testing.T) {
	p := q1a()
	ep := p.ExtractionPoint()
	if ep.Test.Name != "name" {
		t.Errorf("extraction point = %v", ep)
	}
	if fields := p.OutputFields(); len(fields) != 1 || fields[0] != "out" {
		t.Errorf("OutputFields = %v", fields)
	}
	out, ok := p.SingleOutput()
	if !ok || out != "out" {
		t.Errorf("SingleOutput = %q, %v", out, ok)
	}
	// Output on a non-extraction step breaks SingleOutput.
	p2 := q1a()
	p2.Root.Out = "x"
	if _, ok := p2.SingleOutput(); ok {
		t.Error("SingleOutput with two annotations should fail")
	}
	// Output inside a predicate is seen by OutputFields.
	p3 := q1a()
	p3.Root.Preds[0].Out = "leak"
	if len(p3.OutputFields()) != 2 {
		t.Errorf("OutputFields = %v", p3.OutputFields())
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := q1a()
	c := p.Clone()
	if c.String() != p.String() {
		t.Fatalf("clone %s, original %s", c, p)
	}
	c.Root.Preds[0].Test = xdm.NameTest("phone")
	if p.Root.Preds[0].Test.Name != "emailaddress" {
		t.Error("clone shares predicate steps")
	}
	c.ExtractionPoint().Out = "other"
	if p.ExtractionPoint().Out != "out" {
		t.Error("clone shares spine steps")
	}
}

func TestClearOutputs(t *testing.T) {
	p := q1a()
	p.Root.ClearOutputs()
	if len(p.OutputFields()) != 0 {
		t.Errorf("outputs remain: %v", p.OutputFields())
	}
}
