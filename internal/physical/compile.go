package physical

import (
	"fmt"
	"slices"

	"xqtp/internal/algebra"
	"xqtp/internal/funcs"
	"xqtp/internal/join"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
)

// env is the compile-time lexical environment: field name → frame slot,
// innermost binder first. It exists only during lowering; at run time every
// field access is a slot index.
type env struct {
	name   string
	slot   int
	parent *env
}

func (e *env) bind(name string, slot int) *env {
	return &env{name: name, slot: slot, parent: e}
}

func (e *env) lookup(name string) (int, bool) {
	for c := e; c != nil; c = c.parent {
		if c.name == name {
			return c.slot, true
		}
	}
	return -1, false
}

// Compile lowers an algebraic plan into a physical plan for evaluation
// under alg. The pass allocates one frame slot per binder occurrence
// (MapFromItem, LetBind, MapIndex, TypeSwitch cases, pattern output fields)
// — shadowing is resolved here, lexically — then resolves every dependent
// reference to its slot, binds builtin calls to their function pointers,
// and annotates each TupleTreePattern with its algorithm choice.
func Compile(e algebra.Expr, alg join.Algorithm) (*Plan, error) {
	p := &Plan{alg: alg}
	c := &compiler{p: p, varSlots: map[string]int{}}
	// One structural pass to size the slot and variable layouts.
	nBinders, nVarRefs := 0, 0
	algebra.Walk(e, func(e algebra.Expr) bool {
		switch x := e.(type) {
		case *algebra.MapFromItem, *algebra.LetBind, *algebra.MapIndex:
			nBinders++
		case *algebra.TypeSwitch:
			nBinders += len(x.Cases) + 1
		case *algebra.TupleTreePattern:
			nBinders += len(x.Pattern.OutputFields())
		case *algebra.VarRef:
			nVarRefs++
		}
		return true
	})
	p.slotNames = make([]string, 0, nBinders)
	p.varNames = make([]string, 0, nVarRefs)
	root, _, err := c.compile(e, nil)
	if err != nil {
		return nil, err
	}
	p.root = root
	return p, nil
}

type compiler struct {
	p        *Plan
	varSlots map[string]int
}

// newSlot allocates a frame slot for a binder of name.
func (c *compiler) newSlot(name string) int {
	c.p.slotNames = append(c.p.slotNames, name)
	return len(c.p.slotNames) - 1
}

// varSlot resolves a free variable to its slot, allocating on first use.
func (c *compiler) varSlot(name string) int {
	if s, ok := c.varSlots[name]; ok {
		return s
	}
	s := len(c.p.varNames)
	c.p.varNames = append(c.p.varNames, name)
	c.varSlots[name] = s
	return s
}

// compile lowers e under the lexical environment en. The returned env is
// the environment of the operator's output tuples: tuple producers extend
// it with their binders (so consumers of their tuple stream resolve those
// fields); item-valued operators return en unchanged.
func (c *compiler) compile(e algebra.Expr, en *env) (op, *env, error) {
	switch x := e.(type) {
	case *algebra.In:
		return &opIn{}, en, nil

	case *algebra.Field:
		if slot, ok := en.lookup(x.Name); ok {
			return &opField{slot: slot, name: x.Name}, en, nil
		}
		return &opUnboundField{name: x.Name}, en, nil

	case *algebra.VarRef:
		return &opVar{slot: c.varSlot(x.Name), name: x.Name}, en, nil

	case *algebra.Const:
		return &opConst{seq: xdm.Singleton(x.Item)}, en, nil

	case *algebra.EmptySeq:
		return &opConst{}, en, nil

	case *algebra.TreeJoin:
		in, _, err := c.compile(x.Input, en)
		if err != nil {
			return nil, nil, err
		}
		return &opTreeJoin{axis: x.Axis, test: x.Test, input: in}, en, nil

	case *algebra.Call:
		// The collection access functions read the runtime's document
		// resolver, which the generic builtin calling convention (a pure
		// function of evaluated arguments) cannot reach; they lower to
		// dedicated operators.
		switch x.Name {
		case "doc":
			if len(x.Args) != 1 {
				return nil, nil, fmt.Errorf("exec: doc() called with %d arguments", len(x.Args))
			}
			uri, _, err := c.compile(x.Args[0], en)
			if err != nil {
				return nil, nil, err
			}
			c.p.usesDocs = true
			return &opDoc{uri: uri}, en, nil
		case "collection":
			if len(x.Args) > 1 {
				return nil, nil, fmt.Errorf("exec: collection() called with %d arguments", len(x.Args))
			}
			o := &opCollection{}
			if len(x.Args) == 1 {
				name, _, err := c.compile(x.Args[0], en)
				if err != nil {
					return nil, nil, err
				}
				o.name = name
			}
			c.p.usesDocs = true
			return o, en, nil
		}
		o := &opCall{name: x.Name, args: make([]op, len(x.Args))}
		for i, a := range x.Args {
			arg, _, err := c.compile(a, en)
			if err != nil {
				return nil, nil, err
			}
			o.args[i] = arg
		}
		if err := funcs.CheckArity(x.Name, len(x.Args)); err != nil {
			o.bindErr = err
		} else if fn, ok := funcs.Resolve(x.Name); ok {
			o.fn = fn
		} else {
			o.bindErr = fmt.Errorf("unknown function %q", x.Name)
		}
		return o, en, nil

	case *algebra.Compare:
		l, _, err := c.compile(x.L, en)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := c.compile(x.R, en)
		if err != nil {
			return nil, nil, err
		}
		return &opCompare{cmp: x.Op, l: l, r: r}, en, nil

	case *algebra.Sequence:
		o := &opSequence{items: make([]op, len(x.Items))}
		for i, it := range x.Items {
			item, _, err := c.compile(it, en)
			if err != nil {
				return nil, nil, err
			}
			o.items[i] = item
		}
		return o, en, nil

	case *algebra.Arith:
		l, _, err := c.compile(x.L, en)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := c.compile(x.R, en)
		if err != nil {
			return nil, nil, err
		}
		return &opArith{ar: x.Op, l: l, r: r}, en, nil

	case *algebra.And:
		l, _, err := c.compile(x.L, en)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := c.compile(x.R, en)
		if err != nil {
			return nil, nil, err
		}
		return &opAnd{l: l, r: r}, en, nil

	case *algebra.Or:
		l, _, err := c.compile(x.L, en)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := c.compile(x.R, en)
		if err != nil {
			return nil, nil, err
		}
		return &opOr{l: l, r: r}, en, nil

	case *algebra.If:
		cond, _, err := c.compile(x.Cond, en)
		if err != nil {
			return nil, nil, err
		}
		then, _, err := c.compile(x.Then, en)
		if err != nil {
			return nil, nil, err
		}
		els, _, err := c.compile(x.Else, en)
		if err != nil {
			return nil, nil, err
		}
		return &opIf{cond: cond, then: then, els: els}, en, nil

	case *algebra.LetBind:
		val, _, err := c.compile(x.Value, en)
		if err != nil {
			return nil, nil, err
		}
		slot := c.newSlot(x.Name)
		body, bodyEnv, err := c.compile(x.Body, en.bind(x.Name, slot))
		if err != nil {
			return nil, nil, err
		}
		return &opLet{p: c.p, slot: slot, value: val, body: body}, bodyEnv, nil

	case *algebra.TypeSwitch:
		in, _, err := c.compile(x.Input, en)
		if err != nil {
			return nil, nil, err
		}
		o := &opTypeSwitch{p: c.p, input: in, defSlot: -1}
		for _, cs := range x.Cases {
			slot := c.newSlot(cs.Var)
			body, _, err := c.compile(cs.Body, en.bind(cs.Var, slot))
			if err != nil {
				return nil, nil, err
			}
			o.cases = append(o.cases, tsCase{typ: cs.Type, slot: slot, body: body})
		}
		defEnv := en
		if x.DefVar != "" {
			o.defSlot = c.newSlot(x.DefVar)
			defEnv = en.bind(x.DefVar, o.defSlot)
		}
		deflt, _, err := c.compile(x.Default, defEnv)
		if err != nil {
			return nil, nil, err
		}
		o.deflt = deflt
		return o, en, nil

	case *algebra.MapFromItem:
		in, _, err := c.compile(x.Input, en)
		if err != nil {
			return nil, nil, err
		}
		slot := c.newSlot(x.Bind)
		return &opMapFromItem{p: c.p, slot: slot, input: in}, en.bind(x.Bind, slot), nil

	case *algebra.MapToItem:
		in, inEnv, err := c.compile(x.Input, en)
		if err != nil {
			return nil, nil, err
		}
		dep, _, err := c.compile(x.Dep, inEnv)
		if err != nil {
			return nil, nil, err
		}
		if ttp, ok := in.(*opTTP); ok && ttp.itemField < 0 {
			// MapToItem{IN#f}(TupleTreePattern) with f an output field of the
			// pattern — the shape the rewrites leave a path or a FLWOR in —
			// is the pattern operator in items mode: the projection reads the
			// bindings' ranks directly and no tuple is built for it to take
			// apart.
			if f, ok := dep.(*opField); ok {
				if k := slices.Index(ttp.outSlots, f.slot); k >= 0 {
					ttp.itemField = k
					return ttp, en, nil
				}
			}
		}
		return &opMapToItem{dep: dep, input: in}, en, nil

	case *algebra.Select:
		in, inEnv, err := c.compile(x.Input, en)
		if err != nil {
			return nil, nil, err
		}
		pred, _, err := c.compile(x.Pred, inEnv)
		if err != nil {
			return nil, nil, err
		}
		return &opSelect{pred: pred, input: in}, inEnv, nil

	case *algebra.MapIndex:
		in, inEnv, err := c.compile(x.Input, en)
		if err != nil {
			return nil, nil, err
		}
		slot := c.newSlot(x.Field)
		return &opMapIndex{p: c.p, slot: slot, input: in}, inEnv.bind(x.Field, slot), nil

	case *algebra.Head:
		in, inEnv, err := c.compile(x.Input, en)
		if err != nil {
			return nil, nil, err
		}
		if ttp, ok := in.(*opTTP); ok && ttp.itemField < 0 {
			// Head(TupleTreePattern) is the first-match form: push the limit
			// into the pattern operator for the §5.3 early exit.
			ttp.first = true
			return ttp, inEnv, nil
		}
		return &opHead{input: in}, inEnv, nil

	case *algebra.TupleTreePattern:
		in, inEnv, err := c.compile(x.Input, en)
		if err != nil {
			return nil, nil, err
		}
		// Logical minimization runs once here, the choke point every entry
		// path compiles through: subsumed predicate branches and vacuous
		// self steps are gone before any algorithm sees the pattern.
		pat := pattern.Minimize(x.Pattern)
		o := &opTTP{p: c.p, input: in, pat: pat, alg: c.p.alg, inSlot: -1, itemField: -1,
			minimized: pat != x.Pattern}
		_, o.dependent = in.(*opIn)
		if slot, ok := inEnv.lookup(x.Pattern.Input); ok {
			o.inSlot = slot
		}
		outEnv := inEnv
		for _, f := range pat.OutputFields() {
			slot := c.newSlot(f)
			o.outSlots = append(o.outSlots, slot)
			outEnv = outEnv.bind(f, slot)
		}
		c.p.ttps = append(c.p.ttps, o)
		return o, outEnv, nil
	}
	return nil, nil, fmt.Errorf("exec: cannot evaluate %T", e)
}
