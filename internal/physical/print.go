package physical

import (
	"fmt"
	"strings"

	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
)

// ChoiceFn annotates a pattern operator's algorithm line, typically with
// what Auto's rule does for a concrete document (join.ChooseEstimate: the
// algorithm, or the emptiness skip). Returning "" leaves the line
// unannotated.
type ChoiceFn func(pat *pattern.Pattern) string

// Explain renders the physical plan: one operator per line with the slot
// numbers every dependent reference was compiled to, and each pattern
// operator's algorithm annotation.
func (p *Plan) Explain() string { return p.ExplainAnnotated(nil) }

// ExplainAnnotated renders the plan like Explain, appending choice's
// annotation (e.g. Auto's per-document decision) to every pattern operator
// line.
func (p *Plan) ExplainAnnotated(choice ChoiceFn) string {
	var b strings.Builder
	fmt.Fprintf(&b, "physical plan: %d slots", len(p.slotNames))
	if len(p.slotNames) > 0 {
		b.WriteString(" [")
		for i, n := range p.slotNames {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s@%d", n, i)
		}
		b.WriteString("]")
	}
	if len(p.varNames) > 0 {
		b.WriteString(", vars [")
		for i, n := range p.varNames {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "$%s@%d", n, i)
		}
		b.WriteString("]")
	}
	fmt.Fprintf(&b, ", algorithm %s\n", p.alg)
	p.write(&b, p.root, 0, choice)
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func (p *Plan) write(b *strings.Builder, o any, depth int, choice ChoiceFn) {
	indent(b, depth)
	switch x := o.(type) {
	case *opIn:
		b.WriteString("IN\n")
	case *opField:
		fmt.Fprintf(b, "IN#%s @%d\n", x.name, x.slot)
	case *opUnboundField:
		fmt.Fprintf(b, "IN#%s (unbound)\n", x.name)
	case *opVar:
		fmt.Fprintf(b, "$%s @v%d\n", x.name, x.slot)
	case *opConst:
		if len(x.seq) == 0 {
			b.WriteString("()\n")
		} else {
			fmt.Fprintf(b, "%s\n", xdm.ItemString(x.seq[0]))
		}
	case *opTreeJoin:
		fmt.Fprintf(b, "TreeJoin[%s::%s]\n", x.axis, x.test)
		p.write(b, x.input, depth+1, choice)
	case *opCall:
		if x.bindErr != nil {
			fmt.Fprintf(b, "fn:%s (error: %v)\n", x.name, x.bindErr)
		} else {
			fmt.Fprintf(b, "fn:%s\n", x.name)
		}
		for _, a := range x.args {
			p.write(b, a, depth+1, choice)
		}
	case *opDoc:
		b.WriteString("fn:doc\n")
		p.write(b, x.uri, depth+1, choice)
	case *opCollection:
		b.WriteString("fn:collection\n")
		if x.name != nil {
			p.write(b, x.name, depth+1, choice)
		}
	case *opCompare:
		fmt.Fprintf(b, "Compare[%s]\n", x.cmp)
		p.write(b, x.l, depth+1, choice)
		p.write(b, x.r, depth+1, choice)
	case *opArith:
		fmt.Fprintf(b, "Arith[%s]\n", x.ar)
		p.write(b, x.l, depth+1, choice)
		p.write(b, x.r, depth+1, choice)
	case *opAnd:
		b.WriteString("And\n")
		p.write(b, x.l, depth+1, choice)
		p.write(b, x.r, depth+1, choice)
	case *opOr:
		b.WriteString("Or\n")
		p.write(b, x.l, depth+1, choice)
		p.write(b, x.r, depth+1, choice)
	case *opIf:
		b.WriteString("If\n")
		p.write(b, x.cond, depth+1, choice)
		p.write(b, x.then, depth+1, choice)
		p.write(b, x.els, depth+1, choice)
	case *opSequence:
		b.WriteString("Sequence\n")
		for _, it := range x.parts {
			p.write(b, it, depth+1, choice)
		}
	case *opLet:
		fmt.Fprintf(b, "LetBind[%s @%d]\n", p.slotNames[x.slot], x.slot)
		p.write(b, x.value, depth+1, choice)
		p.write(b, x.body, depth+1, choice)
	case *opTypeSwitch:
		b.WriteString("TypeSwitch\n")
		p.write(b, x.input, depth+1, choice)
		for _, cs := range x.cases {
			indent(b, depth+1)
			fmt.Fprintf(b, "case %s [%s @%d]\n", cs.typ, p.slotNames[cs.slot], cs.slot)
			p.write(b, cs.body, depth+2, choice)
		}
		indent(b, depth+1)
		if x.defSlot >= 0 {
			fmt.Fprintf(b, "default [%s @%d]\n", p.slotNames[x.defSlot], x.defSlot)
		} else {
			b.WriteString("default\n")
		}
		p.write(b, x.deflt, depth+2, choice)
	case *opMapFromItem:
		fmt.Fprintf(b, "MapFromItem[%s @%d]\n", p.slotNames[x.slot], x.slot)
		p.write(b, x.input, depth+1, choice)
	case *opMapToItem:
		b.WriteString("MapToItem\n")
		indent(b, depth+1)
		b.WriteString("dep:\n")
		p.write(b, x.dep, depth+2, choice)
		p.write(b, x.input, depth+1, choice)
	case *opSelect:
		b.WriteString("Select\n")
		indent(b, depth+1)
		b.WriteString("pred:\n")
		p.write(b, x.pred, depth+2, choice)
		p.write(b, x.input, depth+1, choice)
	case *opMapIndex:
		fmt.Fprintf(b, "MapIndex[%s @%d]\n", p.slotNames[x.slot], x.slot)
		p.write(b, x.input, depth+1, choice)
	case *opHead:
		b.WriteString("Head\n")
		p.write(b, x.input, depth+1, choice)
	case *opTTP:
		fmt.Fprintf(b, "TupleTreePattern[%s]", x.pat)
		if x.inSlot >= 0 {
			fmt.Fprintf(b, " in@%d", x.inSlot)
		} else {
			b.WriteString(" in=unbound")
		}
		if len(x.outSlots) > 0 {
			b.WriteString(" out{")
			fields := x.pat.OutputFields()
			for i, slot := range x.outSlots {
				if i > 0 {
					b.WriteString(" ")
				}
				fmt.Fprintf(b, "%s@%d", fields[i], slot)
			}
			b.WriteString("}")
		}
		fmt.Fprintf(b, " alg=%s", x.alg)
		if choice != nil {
			if ann := choice(x.pat); ann != "" {
				fmt.Fprintf(b, "→%s", ann)
			}
		}
		if x.first {
			b.WriteString(" first-match")
		}
		if x.itemField >= 0 {
			fmt.Fprintf(b, " items{%s}", x.pat.OutputFields()[x.itemField])
		}
		b.WriteString("\n")
		p.write(b, x.input, depth+1, choice)
	default:
		fmt.Fprintf(b, "%T\n", o)
	}
}
