package funcs

import (
	"math"
	"strings"
	"testing"

	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

func seq(items ...xdm.Item) xdm.Sequence { return xdm.Sequence(items) }

func one(t *testing.T, name string, args ...xdm.Sequence) xdm.Item {
	t.Helper()
	out, err := Invoke(name, args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(out) != 1 {
		t.Fatalf("%s returned %d items", name, len(out))
	}
	return out[0]
}

func TestBooleanFamily(t *testing.T) {
	if v := one(t, "boolean", seq(xdm.String("x"))); v != xdm.Bool(true) {
		t.Errorf("boolean = %v", v)
	}
	if v := one(t, "not", seq()); v != xdm.Bool(true) {
		t.Errorf("not(()) = %v", v)
	}
	if v := one(t, "empty", seq()); v != xdm.Bool(true) {
		t.Errorf("empty = %v", v)
	}
	if v := one(t, "exists", seq(xdm.Integer(1))); v != xdm.Bool(true) {
		t.Errorf("exists = %v", v)
	}
	if v := one(t, "count", seq(xdm.Integer(1), xdm.Integer(2))); v != xdm.Integer(2) {
		t.Errorf("count = %v", v)
	}
	if one(t, "true") != xdm.Bool(true) || one(t, "false") != xdm.Bool(false) {
		t.Error("true/false broken")
	}
}

// The boolean builtins return shared read-only singletons: a call allocates
// nothing, and a later call with the opposite answer leaves an earlier
// result as it was.
func TestBooleanResultsAreShared(t *testing.T) {
	for _, tc := range []struct {
		name        string
		yes, no     []xdm.Sequence
		first, then xdm.Bool
	}{
		{"true", nil, nil, true, true},
		{"false", nil, nil, false, false},
		{"boolean", []xdm.Sequence{seq(xdm.Integer(1))}, []xdm.Sequence{seq()}, true, false},
		{"not", []xdm.Sequence{seq()}, []xdm.Sequence{seq(xdm.Integer(1))}, true, false},
		{"empty", []xdm.Sequence{seq()}, []xdm.Sequence{seq(xdm.Integer(1))}, true, false},
		{"exists", []xdm.Sequence{seq(xdm.Integer(1))}, []xdm.Sequence{seq()}, true, false},
		{"contains", []xdm.Sequence{seq(xdm.String("ab")), seq(xdm.String("b"))}, []xdm.Sequence{seq(xdm.String("ab")), seq(xdm.String("c"))}, true, false},
		{"starts-with", []xdm.Sequence{seq(xdm.String("ab")), seq(xdm.String("a"))}, []xdm.Sequence{seq(xdm.String("ab")), seq(xdm.String("b"))}, true, false},
	} {
		first, err := Invoke(tc.name, tc.yes)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		second, err := Invoke(tc.name, tc.no)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(first) != 1 || first[0] != tc.first || len(second) != 1 || second[0] != tc.then {
			t.Errorf("%s: first result %v after a second call returned %v; want (%v) and (%v)", tc.name, first, second, tc.first, tc.then)
		}
		fn, _ := Resolve(tc.name)
		if a := testing.AllocsPerRun(100, func() { _, _ = fn(tc.yes) }); a != 0 {
			t.Errorf("%s: %.0f allocations per call, want 0", tc.name, a)
		}
	}
}

func TestStringFamily(t *testing.T) {
	tr, err := xmlstore.ParseString(`<a><b>he</b><b>llo</b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	el := tr.DocElem()
	if v := one(t, "string", seq(el)); v != xdm.String("hello") {
		t.Errorf("string(node) = %v", v)
	}
	if v := one(t, "string", seq()); v != xdm.String("") {
		t.Errorf("string(()) = %v", v)
	}
	if v := one(t, "string", seq(xdm.Float(2))); v != xdm.String("2") {
		t.Errorf("string(2e0) = %v", v)
	}
	if v := one(t, "concat", seq(xdm.String("a")), seq(el), seq(xdm.Integer(7))); v != xdm.String("ahello7") {
		t.Errorf("concat = %v", v)
	}
	if v := one(t, "contains", seq(el), seq(xdm.String("ell"))); v != xdm.Bool(true) {
		t.Errorf("contains = %v", v)
	}
	if v := one(t, "starts-with", seq(el), seq(xdm.String("he"))); v != xdm.Bool(true) {
		t.Errorf("starts-with = %v", v)
	}
	if v := one(t, "string-length", seq(el)); v != xdm.Integer(5) {
		t.Errorf("string-length = %v", v)
	}
	if v := one(t, "normalize-space", seq(xdm.String("  a  b \n c "))); v != xdm.String("a b c") {
		t.Errorf("normalize-space = %v", v)
	}
	if v := one(t, "substring", seq(xdm.String("hello")), seq(xdm.Integer(2)), seq(xdm.Integer(3))); v != xdm.String("ell") {
		t.Errorf("substring = %v", v)
	}
	if v := one(t, "substring", seq(xdm.String("hello")), seq(xdm.Integer(4))); v != xdm.String("lo") {
		t.Errorf("substring open = %v", v)
	}
	if v := one(t, "name", seq(el)); v != xdm.String("a") {
		t.Errorf("name = %v", v)
	}
	// Errors: string value of multi-item sequences.
	if _, err := Invoke("string", []xdm.Sequence{seq(xdm.String("a"), xdm.String("b"))}); err == nil {
		t.Error("string over 2 items should fail")
	}
}

func TestNumberAndAggregates(t *testing.T) {
	if v := one(t, "number", seq(xdm.String(" 2.5 "))); v != xdm.Float(2.5) {
		t.Errorf("number = %v", v)
	}
	if v := one(t, "number", seq(xdm.String("nope"))); !math.IsNaN(float64(v.(xdm.Float))) {
		t.Errorf("number(junk) = %v, want NaN", v)
	}
	if v := one(t, "number", seq(xdm.Bool(true))); v != xdm.Float(1) {
		t.Errorf("number(true) = %v", v)
	}
	if v := one(t, "sum", seq(xdm.Integer(1), xdm.Integer(2), xdm.Integer(3))); v != xdm.Integer(6) {
		t.Errorf("sum = %v", v)
	}
	if v := one(t, "sum", seq()); v != xdm.Integer(0) {
		t.Errorf("sum(()) = %v", v)
	}
	if v := one(t, "avg", seq(xdm.Integer(1), xdm.Integer(2))); v != xdm.Float(1.5) {
		t.Errorf("avg = %v", v)
	}
	if v := one(t, "min", seq(xdm.Integer(4), xdm.String("2"), xdm.Float(3))); v != xdm.Float(2) {
		t.Errorf("min = %v", v)
	}
	if v := one(t, "max", seq(xdm.Integer(4), xdm.String("7"))); v != xdm.Float(7) {
		t.Errorf("max = %v", v)
	}
	// Empty min/max/avg give empty.
	if out, err := Invoke("max", []xdm.Sequence{seq()}); err != nil || len(out) != 0 {
		t.Errorf("max(()) = %v, %v", out, err)
	}
	if _, err := Invoke("sum", []xdm.Sequence{seq(xdm.Bool(true))}); err == nil {
		t.Error("sum over boolean should fail")
	}
}

func TestDataAndRoot(t *testing.T) {
	tr, _ := xmlstore.ParseString(`<a><b>x</b></a>`)
	b := xdm.Step(tr.DocElem(), xdm.AxisChild, xdm.AnyNodeTest())[0]
	out, err := Invoke("data", []xdm.Sequence{seq(b, xdm.Integer(3))})
	if err != nil || len(out) != 2 {
		t.Fatalf("data: %v %v", out, err)
	}
	if out[0] != xdm.String("x") || out[1] != xdm.Integer(3) {
		t.Errorf("data = %v", out)
	}
	if v := one(t, "root", seq(b)); v != xdm.Item(tr.RootNode()) {
		t.Errorf("root = %v", v)
	}
	if out, err := Invoke("root", []xdm.Sequence{seq()}); err != nil || len(out) != 0 {
		t.Errorf("root(()) = %v, %v", out, err)
	}
}

func TestArityChecks(t *testing.T) {
	cases := map[string]int{
		"count": 0, "boolean": 2, "concat": 1, "substring": 4, "true": 1,
	}
	for name, n := range cases {
		if err := CheckArity(name, n); err == nil {
			t.Errorf("CheckArity(%s, %d) should fail", name, n)
		}
	}
	if err := CheckArity("nope", 1); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("unknown function: %v", err)
	}
	if err := CheckArity("concat", 5); err != nil {
		t.Errorf("concat/5: %v", err)
	}
}

func TestTableConsistency(t *testing.T) {
	for name, sig := range Table {
		if sig.Name != name {
			t.Errorf("table key %q has Name %q", name, sig.Name)
		}
		if sig.MaxArgs >= 0 && sig.MaxArgs < sig.MinArgs {
			t.Errorf("%s: MaxArgs < MinArgs", name)
		}
	}
}
