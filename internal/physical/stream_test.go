package physical

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"xqtp/internal/algebra"
	"xqtp/internal/collection"
	"xqtp/internal/join"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xdm/xdmref"
	"xqtp/internal/xmlstore"
)

func field(name string) algebra.Expr { return &algebra.Field{Name: name} }

func step(axis xdm.Axis, name string, in algebra.Expr) algebra.Expr {
	return &algebra.TreeJoin{Axis: axis, Test: xdm.NameTest(name), Input: in}
}

// personsWithEmail is Select{fn:boolean(IN#p/emailaddress)}(MapFromItem{p}($d//person)):
// a multi-tuple stream that drops some of its tuples.
func personsWithEmail() algebra.Expr {
	return &algebra.Select{
		Pred: &algebra.Call{Name: "boolean", Args: []algebra.Expr{step(xdm.AxisChild, "emailaddress", field("p"))}},
		Input: &algebra.MapFromItem{Bind: "p",
			Input: step(xdm.AxisDescendant, "person", &algebra.VarRef{Name: "d"})},
	}
}

// personDoc is a random document of nested person elements with name and
// emailaddress children: every query here finds bindings that nest.
func personDoc(rng *rand.Rand, n int) *xdm.Tree {
	root := xdmref.NewElement("site")
	persons := []*xdmref.Node{root}
	for i := 0; i < n; i++ {
		parent := persons[rng.Intn(len(persons))]
		switch rng.Intn(4) {
		case 0:
			el := xdmref.NewElement("name")
			el.AppendChild(xdmref.NewText([]string{"John", "Mary", "x"}[rng.Intn(3)]))
			parent.AppendChild(el)
		case 1:
			parent.AppendChild(xdmref.NewElement("emailaddress"))
		default:
			el := xdmref.NewElement("person")
			parent.AppendChild(el)
			persons = append(persons, el)
		}
	}
	return xdmref.Finalize(root).Tree
}

// The executor's tuples are borrowed: one frame per run, every binder writing
// its own slot in place. Each plan here has an operator that must keep what it
// will read past its consumer's return, or reads a field after an inner
// operator ran on the same frame; each is checked against the core
// interpreter on random documents from two concurrent runs of the one
// compiled plan (run with -race: a run state shared between runs is what it
// would catch).
func TestBorrowedTuples(t *testing.T) {
	cases := []struct {
		name   string
		plan   algebra.Expr // nil: the optimized plan of oracle
		oracle string
		shape  []string // operator lines the lowered plan must show
	}{
		{
			// Rule (e)'s residual conjunct: a Select between two patterns
			// reads the lower one's output slot per tuple, and the upper
			// pattern reads that slot after the Select's TreeJoin ran. The
			// conjuncts' order does not change the plan.
			name:   "residual Select between patterns",
			oracle: `$d//person[boolean(emailaddress) and name = "John"]/name`,
			shape:  []string{"  Select\n", "[child::emailaddress]] in@0 out{out2@1}"},
		},
		{
			name:   "residual Select between patterns, conjuncts swapped",
			oracle: `$d//person[name = "John" and boolean(emailaddress)]/name`,
			shape:  []string{"  Select\n", "[child::emailaddress]] in@0 out{out2@1}"},
		},
		{
			// A pattern streaming tuples over a Selected multi-tuple input: its
			// consumer reads a field of the input tuple (p, kept per input
			// tuple and written back beside each binding) and an output field.
			name: "pattern keeps its input's fields",
			plan: &algebra.MapToItem{
				Dep: &algebra.Sequence{Items: []algebra.Expr{field("p"), field("n")}},
				Input: &algebra.TupleTreePattern{
					Pattern: pattern.New("p", outStep(xdm.AxisChild, "name", "n")),
					Input:   personsWithEmail(),
				},
			},
			oracle: `for $n in $d//person[emailaddress]/name return ($n/parent::person, $n)`,
			shape:  []string{"TupleTreePattern[IN#p/child::name{n}] in@0 out{n@1} alg=", "  Select\n"},
		},
		{
			// Positions count the tuples Select kept, and the position slot is
			// rewritten in place for every tuple.
			name: "MapIndex after Select",
			plan: &algebra.MapToItem{
				Dep:   &algebra.Sequence{Items: []algebra.Expr{field("i"), step(xdm.AxisChild, "name", field("p"))}},
				Input: &algebra.MapIndex{Field: "i", Input: personsWithEmail()},
			},
			oracle: `for $x at $i in (for $y in $d//person where $y/emailaddress return $y) return ($i, $x/name)`,
			shape:  []string{"MapIndex[i @1]\n    Select\n"},
		},
		{
			// Dependent patterns nested three deep, the innermost consumer
			// reading both outer tuples' fields after the inner patterns ran.
			name:   "dependent pattern in a dependent pattern",
			oracle: `for $x in $d//person return for $y in $x/person return for $z in $y/name return ($z, $x/name, $y/emailaddress)`,
			shape:  []string{"in@1 out{", "in@2 out{", "    IN\n"},
		},
		{
			// A positional filter inside the dependent expression: a dependent
			// pattern streaming tuples into MapIndex and Select, per outer tuple.
			name:   "positional dependent pattern",
			oracle: `for $b in $d//person where $b/person[2] return ($b/name, $b/person[2]/name)`,
			shape:  []string{"MapIndex[", "Select\n"},
		},
	}
	algs := []join.Algorithm{join.NestedLoop, join.Staircase, join.Twig, join.Auto}
	for _, tc := range cases {
		plan := tc.plan
		if plan == nil {
			plan = pipeline(t, tc.oracle, true)
		}
		nonEmpty := 0
		for _, alg := range algs {
			p, err := Compile(plan, alg)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for _, want := range tc.shape {
				if !strings.Contains(p.Explain(), want) {
					t.Fatalf("%s: lowered plan lacks %q:\n%s", tc.name, want, p.Explain())
				}
			}
			for seed := int64(0); seed < 10; seed++ {
				rng := rand.New(rand.NewSource(seed*31 + 5))
				tr := personDoc(rng, 30+rng.Intn(120))
				want, err := oracle(t, tc.oracle, tr)
				if err != nil {
					t.Fatalf("%s seed %d: oracle: %v", tc.name, seed, err)
				}
				if len(want) > 0 {
					nonEmpty++
				}
				c := collection.Single("", xmlstore.BuildIndex(tr))
				rt := &Runtime{Catalog: c.Catalog(), Preps: c, Vars: p.BindVars(engineVars(tr))}
				var outs [2]xdm.Sequence
				var errs [2]error
				var wg sync.WaitGroup
				for g := range outs {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						outs[g], errs[g] = runPlan(p, rt)
					}(g)
				}
				wg.Wait()
				for g := range outs {
					if errs[g] != nil {
						t.Fatalf("%s seed %d %v: %v", tc.name, seed, alg, errs[g])
					}
					if !seqEqual(want, outs[g]) {
						t.Fatalf("%s seed %d %v run %d:\n want %v\n got  %v", tc.name, seed, alg, g, want, outs[g])
					}
				}
			}
		}
		if nonEmpty < 8*len(algs) {
			t.Errorf("%s: only %d of %d documents gave a result", tc.name, nonEmpty, 10*len(algs))
		}
	}
}
