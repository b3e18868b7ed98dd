package physical

import (
	"fmt"
	"slices"

	"xqtp/internal/algebra"
	"xqtp/internal/funcs"
	"xqtp/internal/join"
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
// annotates each TupleTreePattern with its algorithm choice, decides every
// operator's sort, wires each tuple operator to its one consumer, and lays
// out the run state (scratch slots, singleton cells, pattern states).
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
	p.width = nBinders
	root, err := c.items(e, nil)
	if err != nil {
		return nil, err
	}
	// The root is the plan's last consumer: one that can deliver as it goes
	// hands its items to the run's sink itself.
	if d, ok := root.(interface{ deliverToSink() }); ok {
		d.deliverToSink()
	}
	for _, in := range c.inputs {
		// A pattern operator that streams tuples over a tuple stream keeps, per
		// input tuple, the slots of that stream read since it was lowered —
		// that is, by its consumers.
		if t := in.ttp; t.itemField < 0 {
			for i, slot := range in.slots {
				if c.reads[slot] > in.reads[i] {
					t.keep = append(t.keep, slot)
				}
			}
			t.cell = c.newCells(len(t.outSlots) + len(t.keep))
		}
	}
	if len(p.slotNames) > nBinders {
		return nil, fmt.Errorf("exec: %d frame slots allocated for %d binders", len(p.slotNames), nBinders)
	}
	p.root = root
	return p, nil
}

type compiler struct {
	p        *Plan
	varSlots map[string]int
	// reads counts the compiled reads of each frame slot; inputs records, per
	// pattern operator, the slots its input stream binds and their counts when
	// the operator was lowered.
	reads  []int
	inputs []ttpInput
}

type ttpInput struct {
	ttp          *opTTP
	slots, reads []int
}

// newSlot allocates a frame slot for a binder of name.
func (c *compiler) newSlot(name string) int {
	c.p.slotNames = append(c.p.slotNames, name)
	c.reads = append(c.reads, 0)
	return len(c.p.slotNames) - 1
}

// newTmps allocates n consecutive scratch slots of the frame, behind the
// named ones.
func (c *compiler) newTmps(n int) int {
	c.p.width += n
	return c.p.width - n
}

// tmpFor allocates the scratch slot an operand is evaluated into; a
// reference is read in place and needs none.
func (c *compiler) tmpFor(o itemOp) int {
	if _, ok := o.(refOp); ok {
		return -1
	}
	return c.newTmps(1)
}

// newCells allocates n consecutive singleton cells of the run state.
func (c *compiler) newCells(n int) int {
	c.p.cells += n
	return c.p.cells - n
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

// items lowers an item-sorted expression under the lexical environment en.
func (c *compiler) items(e algebra.Expr, en *env) (itemOp, error) {
	switch x := e.(type) {
	case *algebra.Field:
		if slot, ok := en.lookup(x.Name); ok {
			c.reads[slot]++
			return &opField{slot: slot, name: x.Name}, nil
		}
		return &opUnboundField{name: x.Name}, nil

	case *algebra.VarRef:
		return &opVar{slot: c.varSlot(x.Name), name: x.Name}, nil

	case *algebra.Const:
		return &opConst{seq: xdm.Singleton(x.Item)}, nil

	case *algebra.EmptySeq:
		return &opConst{}, nil

	case *algebra.TreeJoin:
		in, err := c.items(x.Input, en)
		if err != nil {
			return nil, err
		}
		return &opTreeJoin{axis: x.Axis, test: x.Test, input: in, tmp: c.tmpFor(in)}, nil

	case *algebra.Call:
		// The collection access functions read the runtime's document
		// resolver, which the generic builtin calling convention (a pure
		// function of evaluated arguments) cannot reach; they lower to
		// dedicated operators.
		switch x.Name {
		case "doc":
			if len(x.Args) != 1 {
				return nil, fmt.Errorf("exec: doc() called with %d arguments", len(x.Args))
			}
			uri, err := c.items(x.Args[0], en)
			if err != nil {
				return nil, err
			}
			c.p.usesDocs = true
			return &opDoc{uri: uri, tmp: c.tmpFor(uri)}, nil
		case "collection":
			if len(x.Args) > 1 {
				return nil, fmt.Errorf("exec: collection() called with %d arguments", len(x.Args))
			}
			o := &opCollection{}
			if len(x.Args) == 1 {
				name, err := c.items(x.Args[0], en)
				if err != nil {
					return nil, err
				}
				o.name, o.tmp = name, c.tmpFor(name)
			}
			c.p.usesDocs = true
			return o, nil
		}
		o := &opCall{name: x.Name, args: make([]itemOp, len(x.Args))}
		for i, a := range x.Args {
			arg, err := c.items(a, en)
			if err != nil {
				return nil, err
			}
			o.args[i] = arg
		}
		o.tmp = c.newTmps(len(x.Args))
		if err := funcs.CheckArity(x.Name, len(x.Args)); err != nil {
			o.bindErr = err
		} else if fn, ok := funcs.Resolve(x.Name); ok {
			o.fn = fn
		} else {
			o.bindErr = fmt.Errorf("unknown function %q", x.Name)
		}
		return o, nil

	case *algebra.Compare:
		l, r, err := c.pair(x.L, x.R, en)
		if err != nil {
			return nil, err
		}
		return &opCompare{cmp: x.Op, l: l, r: r, tmp: c.newTmps(2)}, nil

	case *algebra.Sequence:
		o := &opSequence{parts: make([]itemOp, len(x.Items))}
		for i, it := range x.Items {
			item, err := c.items(it, en)
			if err != nil {
				return nil, err
			}
			o.parts[i] = item
		}
		return o, nil

	case *algebra.Arith:
		l, r, err := c.pair(x.L, x.R, en)
		if err != nil {
			return nil, err
		}
		return &opArith{ar: x.Op, l: l, r: r, tmp: c.newTmps(2)}, nil

	case *algebra.And:
		l, r, err := c.pair(x.L, x.R, en)
		if err != nil {
			return nil, err
		}
		return &opAnd{l: l, r: r, tmp: c.newTmps(1)}, nil

	case *algebra.Or:
		l, r, err := c.pair(x.L, x.R, en)
		if err != nil {
			return nil, err
		}
		return &opOr{l: l, r: r, tmp: c.newTmps(1)}, nil

	case *algebra.If:
		cond, err := c.items(x.Cond, en)
		if err != nil {
			return nil, err
		}
		then, els, err := c.pair(x.Then, x.Else, en)
		if err != nil {
			return nil, err
		}
		return &opIf{cond: cond, then: then, els: els, tmp: c.newTmps(1)}, nil

	case *algebra.LetBind:
		val, err := c.items(x.Value, en)
		if err != nil {
			return nil, err
		}
		slot := c.newSlot(x.Name)
		body, err := c.items(x.Body, en.bind(x.Name, slot))
		if err != nil {
			return nil, err
		}
		return &opLet{slot: slot, value: val, body: body, tmp: c.tmpFor(val)}, nil

	case *algebra.TypeSwitch:
		in, err := c.items(x.Input, en)
		if err != nil {
			return nil, err
		}
		o := &opTypeSwitch{input: in, defSlot: -1, tmp: c.tmpFor(in)}
		for _, cs := range x.Cases {
			slot := c.newSlot(cs.Var)
			body, err := c.items(cs.Body, en.bind(cs.Var, slot))
			if err != nil {
				return nil, err
			}
			o.cases = append(o.cases, tsCase{typ: cs.Type, slot: slot, body: body})
		}
		defEnv := en
		if x.DefVar != "" {
			o.defSlot = c.newSlot(x.DefVar)
			defEnv = en.bind(x.DefVar, o.defSlot)
		}
		if o.deflt, err = c.items(x.Default, defEnv); err != nil {
			return nil, err
		}
		return o, nil

	case *algebra.MapToItem:
		in, inEnv, err := c.tuples(x.Input, en)
		if err != nil {
			return nil, err
		}
		dep, err := c.items(x.Dep, inEnv)
		if err != nil {
			return nil, err
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
					return ttp, nil
				}
			}
		}
		o := &opMapToItem{dep: dep, input: in, acc: c.newTmps(1), batch: c.batchOf(dep)}
		in.to(o)
		if ttp, ok := in.(*opTTP); ok && o.batch != nil {
			// The batch reads one output field of the pattern's bindings: it
			// takes them as ranks, and no tuple is built for it.
			if k := slices.Index(ttp.outSlots, o.batch.slot); k >= 0 {
				ttp.feed, ttp.feedField = o, k
			}
		}
		return o, nil

	case *algebra.In, *algebra.MapFromItem, *algebra.Select, *algebra.MapIndex, *algebra.Head, *algebra.TupleTreePattern:
		return &opMalformed{err: fmt.Errorf("exec: expected an item sequence, got the tuples of %T", e)}, nil
	}
	return nil, fmt.Errorf("exec: cannot evaluate %T", e)
}

// pair lowers two item-sorted operands.
func (c *compiler) pair(l, r algebra.Expr, en *env) (itemOp, itemOp, error) {
	lo, err := c.items(l, en)
	if err != nil {
		return nil, nil, err
	}
	ro, err := c.items(r, en)
	return lo, ro, err
}

// tuples lowers a tuple-sorted expression under the lexical environment en.
// The returned env is the environment of the operator's output tuples: en
// extended with the binders of the stream, so that its consumer resolves
// those fields. The caller wires the operator to that consumer (to).
func (c *compiler) tuples(e algebra.Expr, en *env) (tupleOp, *env, error) {
	switch x := e.(type) {
	case *algebra.In:
		return &opIn{unbound: en == nil}, en, nil

	case *algebra.MapFromItem:
		in, err := c.items(x.Input, en)
		if err != nil {
			return nil, nil, err
		}
		slot := c.newSlot(x.Bind)
		return &opMapFromItem{slot: slot, input: in, tmp: c.tmpFor(in)}, en.bind(x.Bind, slot), nil

	case *algebra.Select:
		in, inEnv, err := c.tuples(x.Input, en)
		if err != nil {
			return nil, nil, err
		}
		pred, err := c.items(x.Pred, inEnv)
		if err != nil {
			return nil, nil, err
		}
		o := &opSelect{pred: pred, input: in, tmp: c.newTmps(1)}
		in.to(o)
		return o, inEnv, nil

	case *algebra.MapIndex:
		in, inEnv, err := c.tuples(x.Input, en)
		if err != nil {
			return nil, nil, err
		}
		slot := c.newSlot(x.Field)
		o := &opMapIndex{slot: slot, input: in, cell: c.newCells(1)}
		in.to(o)
		return o, inEnv.bind(x.Field, slot), nil

	case *algebra.Head:
		in, inEnv, err := c.tuples(x.Input, en)
		if err != nil {
			return nil, nil, err
		}
		if ttp, ok := in.(*opTTP); ok {
			// Head(TupleTreePattern) is the first-match form: push the limit
			// into the pattern operator for the §5.3 early exit.
			ttp.first = true
			return ttp, inEnv, nil
		}
		o := &opHead{input: in, cell: c.newCells(1)}
		in.to(o)
		return o, inEnv, nil

	case *algebra.TupleTreePattern:
		in, inEnv, err := c.tuples(x.Input, en)
		if err != nil {
			return nil, nil, err
		}
		o := &opTTP{input: in, pat: x.Pattern, alg: c.p.alg, inSlot: -1, itemField: -1, id: len(c.p.ttps)}
		if i, ok := in.(*opIn); ok && !i.unbound {
			o.dependent = true
		} else {
			in.to(o)
		}
		if slot, ok := inEnv.lookup(x.Pattern.Input); ok {
			o.inSlot = slot
			c.reads[slot]++
		}
		scan := ttpInput{ttp: o}
		for b := inEnv; b != en; b = b.parent {
			scan.slots = append(scan.slots, b.slot)
			scan.reads = append(scan.reads, c.reads[b.slot])
		}
		c.inputs = append(c.inputs, scan)
		outEnv := inEnv
		for _, f := range x.Pattern.OutputFields() {
			slot := c.newSlot(f)
			o.outSlots = append(o.outSlots, slot)
			outEnv = outEnv.bind(f, slot)
		}
		c.p.ttps = append(c.p.ttps, o)
		return o, outEnv, nil
	}
	return &opMalformed{err: fmt.Errorf("exec: expected a tuple sequence, got the items of %T", e)}, en, nil
}
