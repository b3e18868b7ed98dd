package core

import (
	"strings"
	"testing"

	"xqtp/internal/parser"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// personDoc distinguishes Q1a from Q5: the third person's name follows a
// nested person, so mapping over persons (Q5) yields a different order than
// the document-ordered path result (Q1a).
const personDoc = `<doc>
  <person><name>John</name><emailaddress>j@x</emailaddress></person>
  <person><name>Mary</name></person>
  <person>
    <person><name>Nested</name><emailaddress>n@x</emailaddress></person>
    <name>Outer</name>
    <emailaddress>o@x</emailaddress>
  </person>
</doc>`

func evalQuery(t *testing.T, q, doc string) xdm.Sequence {
	t.Helper()
	tr, err := xmlstore.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	e, err := parser.Parse(q)
	if err != nil {
		t.Fatalf("parse %s: %v", q, err)
	}
	c, err := Normalize(e, "dot")
	if err != nil {
		t.Fatalf("normalize %s: %v", q, err)
	}
	env := (*Env)(nil).
		Bind("dot", xdm.Singleton(tr.RootNode())).
		Bind("d", xdm.Singleton(tr.RootNode())).
		Bind("input", xdm.Singleton(tr.RootNode()))
	out, err := Eval(c, env)
	if err != nil {
		t.Fatalf("eval %s: %v", q, err)
	}
	return out
}

func stringValues(s xdm.Sequence) []string {
	out := make([]string, len(s))
	for i, it := range s {
		if n, ok := it.(*xdm.Node); ok {
			out[i] = n.StringValue()
		} else {
			out[i] = xdm.ItemString(it)
		}
	}
	return out
}

func TestPaperQuerySemantics(t *testing.T) {
	cases := []struct {
		query string
		want  []string
	}{
		// Q1a/Q1b/Q1c are equivalent: names of persons with an email
		// address, in document order.
		{`$d//person[emailaddress]/name`, []string{"John", "Nested", "Outer"}},
		{`(for $x in $d//person[emailaddress] return $x)/name`, []string{"John", "Nested", "Outer"}},
		{`let $x := for $y in $d//person where $y/emailaddress return $y return $x/name`, []string{"John", "Nested", "Outer"}},
		// Q2: selection on the name.
		{`$d//person[name = "John"]/emailaddress`, []string{"j@x"}},
		// Q3: positional predicate over all persons.
		{`$d//person[1]/name`, []string{"John"}},
		// Q4: positional predicate after a selection.
		{`$d//person[name = "John"]/emailaddress[1]`, []string{"j@x"}},
		// Q5 is NOT equivalent to Q1a: results follow iteration order, so
		// Outer precedes Nested... no — iteration visits the outer person
		// before the nested one, and each $x/name is document-ordered per
		// person, giving John, Outer, Nested.
		{`for $x in $d//person[emailaddress] return $x/name`, []string{"John", "Outer", "Nested"}},
		// Mixed positional forms.
		{`$d//person[position() = 1]/name`, []string{"John"}},
		{`$d//person[2]/name`, []string{"Mary"}},
		{`$d//person[position() = last()]/name`, []string{"Nested"}},
		// Attribute-free existence and comparisons.
		{`$d//person[name = "Mary"]/name`, []string{"Mary"}},
		{`for $x in $d//person where $x/name = "Mary" return $x/name`, []string{"Mary"}},
		// count / exists / empty.
		{`count($d//person)`, []string{"4"}},
		{`exists($d//person[emailaddress])`, []string{"true"}},
		{`empty($d//person[name = "Zoe"])`, []string{"true"}},
		// Boolean connectives in predicates.
		{`$d//person[name = "John" and emailaddress]/name`, []string{"John"}},
		{`$d//person[name = "Zoe" or name = "Mary"]/name`, []string{"Mary"}},
		// Absolute paths.
		{`/doc/person[1]/name`, []string{"John"}},
		{`(/doc)/person[2]/name`, []string{"Mary"}},
		// FLWOR with at.
		{`for $x at $i in $d//person where $i = 2 return $x/name`, []string{"Mary"}},
		// Let with where (if-then-else path).
		{`for $x in $d//person let $n := $x/name where $n = "Mary" return $n`, []string{"Mary"}},
	}
	for _, tc := range cases {
		got := stringValues(evalQuery(t, tc.query, personDoc))
		if strings.Join(got, "|") != strings.Join(tc.want, "|") {
			t.Errorf("%s:\n got  %v\n want %v", tc.query, got, tc.want)
		}
	}
}

func TestNormalizeQ1aShape(t *testing.T) {
	e := parser.MustParse(`$d//person[emailaddress]/name`)
	c, err := Normalize(e, "dot")
	if err != nil {
		t.Fatal(err)
	}
	// Top: ddo( let $seq := ddo(...) return let $last := count($seq)
	// return for $dot at $pos in $seq return child::name ).
	call, ok := c.(*Call)
	if !ok || call.Name != "ddo" {
		t.Fatalf("top is %T (%s), want ddo", c, String(c))
	}
	letSeq, ok := call.Args[0].(*Let)
	if !ok {
		t.Fatalf("ddo arg is %T", call.Args[0])
	}
	if _, ok := letSeq.In.(*Call); !ok {
		t.Fatalf("let $seq binds %T, want ddo(...)", letSeq.In)
	}
	letLast, ok := letSeq.Return.(*Let)
	if !ok {
		t.Fatalf("second binding is %T", letSeq.Return)
	}
	cnt, ok := letLast.In.(*Call)
	if !ok || cnt.Name != "count" {
		t.Fatalf("last binds %T", letLast.In)
	}
	f, ok := letLast.Return.(*For)
	if !ok || f.Pos == "" {
		t.Fatalf("for clause missing or without position: %T", letLast.Return)
	}
	st, ok := f.Return.(*Step)
	if !ok || st.Axis != xdm.AxisChild || st.Test.Name != "name" {
		t.Fatalf("return is %T (%s)", f.Return, String(f.Return))
	}
	// The predicate produced a typeswitch with a numeric case somewhere.
	s := String(c)
	if !strings.Contains(s, "typeswitch") || !strings.Contains(s, "numeric()") {
		t.Errorf("normalized form lacks predicate typeswitch: %s", s)
	}
	if !strings.Contains(s, "boolean(") {
		t.Errorf("normalized form lacks default boolean branch: %s", s)
	}
}

func TestNormalizeErrors(t *testing.T) {
	for _, q := range []string{
		`position()`,         // outside a predicate
		`last()`,             // outside a predicate
		`frobnicate($a, $b)`, // unknown function
		`count($a, $b)`,      // wrong arity
	} {
		e, err := parser.Parse(q)
		if err != nil {
			t.Fatalf("parse %s: %v", q, err)
		}
		if _, err := Normalize(e, "dot"); err == nil {
			t.Errorf("Normalize(%s) should fail", q)
		}
	}
	// No context: '.' and absolute paths fail.
	for _, q := range []string{`.`, `/a`, `child::a`} {
		e, _ := parser.Parse(q)
		if _, err := Normalize(e, ""); err == nil {
			t.Errorf("Normalize(%s) without context should fail", q)
		}
	}
}

func TestUsageAndSubst(t *testing.T) {
	e := parser.MustParse(`for $x in $d/a return $x/b`)
	c, err := Normalize(e, "dot")
	if err != nil {
		t.Fatal(err)
	}
	if got := Usage(c, "d"); got != 1 {
		t.Errorf("Usage($d) = %d", got)
	}
	if got := Usage(c, "x"); got != 0 {
		// $x is bound by the for; no free occurrences.
		t.Errorf("Usage($x) = %d, want 0 (bound)", got)
	}
	// Substituting a free variable.
	c2 := Subst(c, "d", &StringLit{Value: "gone"})
	if Usage(c2, "d") != 0 {
		t.Error("Subst left occurrences of $d")
	}
	// Shadowed variables are untouched.
	inner := &For{Var: "y", In: &Var{Name: "y"}, Return: &Var{Name: "y"}}
	out := Subst(inner, "y", &StringLit{Value: "z"}).(*For)
	if _, ok := out.In.(*StringLit); !ok {
		t.Error("free occurrence in For.In not substituted")
	}
	if _, ok := out.Return.(*Var); !ok {
		t.Error("bound occurrence in For.Return wrongly substituted")
	}
}

func TestEvalErrors(t *testing.T) {
	tr, _ := xmlstore.ParseString(`<a><b/></a>`)
	env := (*Env)(nil).Bind("d", xdm.Singleton(tr.RootNode()))
	for _, q := range []string{
		`$nope`,        // unbound variable
		`"x"/child::b`, // step on atomic
	} {
		e := parser.MustParse(q)
		c, err := Normalize(e, "d")
		if err != nil {
			continue // normalization may reject some; that is fine too
		}
		if _, err := Eval(c, env); err == nil {
			t.Errorf("Eval(%s) should fail", q)
		}
	}
}

func TestPrettyAndString(t *testing.T) {
	e := parser.MustParse(`$d//person[emailaddress]/name`)
	c, _ := Normalize(e, "dot")
	if s := Pretty(c); !strings.Contains(s, "for $") || !strings.Contains(s, "\n") {
		t.Errorf("Pretty output unexpected: %s", s)
	}
	if s := String(c); !strings.Contains(s, "descendant::person") {
		t.Errorf("String output unexpected: %s", s)
	}
}
