package algebra

import (
	"strings"
	"testing"

	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
)

// p5 builds the paper's final plan P5.
func p5() Expr {
	person := pattern.NewStep(xdm.AxisDescendant, xdm.NameTest("person"))
	person.Preds = []*pattern.Step{pattern.NewStep(xdm.AxisChild, xdm.NameTest("emailaddress"))}
	name := pattern.NewStep(xdm.AxisChild, xdm.NameTest("name"))
	name.Out = "out"
	person.Next = name
	return &MapToItem{
		Dep: &Field{Name: "out"},
		Input: &TupleTreePattern{
			Pattern: pattern.New("dot", person),
			Input:   &MapFromItem{Bind: "dot", Input: &VarRef{Name: "d"}},
		},
	}
}

func TestStringMatchesPaperNotation(t *testing.T) {
	got := String(p5())
	want := "MapToItem{IN#out}(TupleTreePattern[IN#dot/descendant::person[child::emailaddress]/child::name{out}](MapFromItem{[dot : IN]}($d)))"
	if got != want {
		t.Errorf("String() =\n  %s\nwant\n  %s", got, want)
	}
}

func TestPrettyOnePerLine(t *testing.T) {
	s := Pretty(p5())
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // MapToItem, TupleTreePattern, MapFromItem, $d
		t.Errorf("Pretty produced %d lines:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[1], "  TupleTreePattern") {
		t.Errorf("indentation wrong:\n%s", s)
	}
}

func TestCountOperatorsAndEqual(t *testing.T) {
	p := p5()
	counts := CountOperators(p)
	for op, want := range map[string]int{
		"MapToItem": 1, "TupleTreePattern": 1, "MapFromItem": 1, "Field": 1, "Var": 1,
	} {
		if counts[op] != want {
			t.Errorf("counts[%s] = %d, want %d", op, counts[op], want)
		}
	}
	if !Equal(p, p5()) {
		t.Error("identical plans not Equal")
	}
	other := p5().(*MapToItem)
	other.Dep = &Field{Name: "nope"}
	if Equal(p, other) {
		t.Error("different plans Equal")
	}
}

func TestFieldUses(t *testing.T) {
	p := p5()
	if got := FieldUses(p, "out"); got != 1 {
		t.Errorf("FieldUses(out) = %d", got)
	}
	// The pattern anchor counts as a use of its input field.
	if got := FieldUses(p, "dot"); got != 1 {
		t.Errorf("FieldUses(dot) = %d", got)
	}
	if got := FieldUses(p, "zzz"); got != 0 {
		t.Errorf("FieldUses(zzz) = %d", got)
	}
}

func TestStringCoversAllOperators(t *testing.T) {
	exprs := []Expr{
		&In{}, &EmptySeq{}, &Const{Item: xdm.Integer(3)}, &Const{Item: xdm.String("s")},
		&TreeJoin{Axis: xdm.AxisChild, Test: xdm.StarTest(), Input: &In{}},
		&Call{Name: "ddo", Args: []Expr{&In{}}},
		&Call{Name: "count", Args: []Expr{&In{}}},
		&Compare{Op: xdm.OpLe, L: &In{}, R: &In{}},
		&And{L: &In{}, R: &In{}},
		&Or{L: &In{}, R: &In{}},
		&If{Cond: &In{}, Then: &In{}, Else: &EmptySeq{}},
		&LetBind{Name: "x", Value: &In{}, Body: &Field{Name: "x"}},
		&TypeSwitch{Input: &In{}, Cases: []TSCase{{Type: "numeric", Var: "v", Body: &In{}}}, DefVar: "w", Default: &In{}},
		&Select{Pred: &In{}, Input: &In{}},
		&MapIndex{Field: "i", Input: &In{}},
		&Head{Input: &In{}},
	}
	for _, e := range exprs {
		if s := String(e); s == "" || strings.Contains(s, "?") {
			t.Errorf("String(%T) = %q", e, s)
		}
		if n := OpName(e); n == "?" {
			t.Errorf("OpName(%T) = ?", e)
		}
		if s := Pretty(e); s == "" {
			t.Errorf("Pretty(%T) empty", e)
		}
	}
}

func TestChildrenCoverage(t *testing.T) {
	// Every composite operator exposes its children.
	p := p5()
	var count func(Expr) int
	count = func(e Expr) int {
		n := 1
		EachChild(e, func(c Expr) { n += count(c) })
		return n
	}
	if got := count(p); got != 5 {
		t.Errorf("plan has %d reachable nodes, want 5", got)
	}
}
