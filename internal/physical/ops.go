package physical

import (
	"fmt"

	"xqtp/internal/funcs"
	"xqtp/internal/xdm"
)

// evalItems evaluates o and requires an item sequence.
func evalItems(o op, rt *Runtime, fr frame) (xdm.Sequence, error) {
	v, err := o.eval(rt, fr)
	if err != nil {
		return nil, err
	}
	return v.itemsVal()
}

// evalFrames evaluates o and requires a tuple sequence.
func evalFrames(o op, rt *Runtime, fr frame) ([]frame, error) {
	v, err := o.eval(rt, fr)
	if err != nil {
		return nil, err
	}
	return v.framesVal()
}

// evalBool evaluates o to its effective boolean value.
func evalBool(o op, rt *Runtime, fr frame) (bool, error) {
	v, err := evalItems(o, rt, fr)
	if err != nil {
		return false, err
	}
	return xdm.EffectiveBool(v)
}

// opIn is the per-tuple dependent context IN: the current frame as a
// single-tuple stream (tuple ops consume it as the one-row input relation).
type opIn struct{}

func (*opIn) eval(rt *Runtime, fr frame) (value, error) {
	if fr == nil {
		return value{}, fmt.Errorf("exec: IN used outside a dependent context")
	}
	return framesValue([]frame{fr}), nil
}

// opField reads the tuple field compiled to slot (IN#name).
type opField struct {
	slot int
	name string
}

func (o *opField) eval(rt *Runtime, fr frame) (value, error) {
	if fr == nil {
		return value{}, fmt.Errorf("exec: unbound field IN#%s", o.name)
	}
	return itemsValue(fr[o.slot]), nil
}

// opUnboundField is a Field reference outside any binder's scope: the
// lowering pass keeps it as a lazy run-time error, matching the
// interpreter's unbound-field behavior (plans only hit it when malformed).
type opUnboundField struct {
	name string
}

func (o *opUnboundField) eval(rt *Runtime, fr frame) (value, error) {
	return value{}, fmt.Errorf("exec: unbound field IN#%s", o.name)
}

// opVar reads the free variable compiled to slot.
type opVar struct {
	slot int
	name string
}

func (o *opVar) eval(rt *Runtime, fr frame) (value, error) {
	if v, ok := rt.varBinding(o.slot); ok {
		return itemsValue(v), nil
	}
	return value{}, fmt.Errorf("exec: unbound variable $%s", o.name)
}

// opConst is a literal (or the empty sequence), materialized at compile
// time.
type opConst struct {
	seq xdm.Sequence
}

func (o *opConst) eval(rt *Runtime, fr frame) (value, error) {
	return itemsValue(o.seq), nil
}

// opTreeJoin is the navigational axis step over items.
type opTreeJoin struct {
	axis  xdm.Axis
	test  xdm.NodeTest
	input op
}

func (o *opTreeJoin) eval(rt *Runtime, fr frame) (value, error) {
	in, err := evalItems(o.input, rt, fr)
	if err != nil {
		return value{}, err
	}
	var out xdm.Sequence
	for _, it := range in {
		n, ok := it.(*xdm.Node)
		if !ok {
			return value{}, fmt.Errorf("exec: TreeJoin applied to atomic value %T", it)
		}
		for _, m := range xdm.Step(n, o.axis, o.test) {
			out = append(out, m)
		}
	}
	return itemsValue(out), nil
}

// opCall invokes a builtin through the function pointer bound at compile
// time. Arity and resolution errors are checked at lowering but surface at
// evaluation time (bindErr), preserving the interpreter's error timing.
type opCall struct {
	name    string
	fn      funcs.Fn
	args    []op
	bindErr error
}

func (o *opCall) eval(rt *Runtime, fr frame) (value, error) {
	if o.bindErr != nil {
		return value{}, fmt.Errorf("exec: %v", o.bindErr)
	}
	args := make([]xdm.Sequence, len(o.args))
	for i, a := range o.args {
		v, err := evalItems(a, rt, fr)
		if err != nil {
			return value{}, err
		}
		args[i] = v
	}
	out, err := o.fn(args)
	if err != nil {
		return value{}, fmt.Errorf("exec: %w", err)
	}
	return itemsValue(out), nil
}

// opDoc is fn:doc($uri): it resolves a document URI against the runtime's
// corpus. Compiled from Call nodes at lowering time (like every builtin),
// but evaluated against per-run state — the plan itself stays corpus-free.
type opDoc struct {
	uri op
}

func (o *opDoc) eval(rt *Runtime, fr frame) (value, error) {
	if rt.Docs == nil {
		return value{}, fmt.Errorf("exec: doc(): no document collection bound to this evaluation")
	}
	arg, err := evalItems(o.uri, rt, fr)
	if err != nil {
		return value{}, err
	}
	uri, err := funcs.DocArg("doc", arg)
	if err != nil {
		return value{}, fmt.Errorf("exec: %w", err)
	}
	n, err := rt.Docs.ResolveDoc(uri)
	if err != nil {
		return value{}, fmt.Errorf("exec: %w", err)
	}
	return itemsValue(xdm.Singleton(n)), nil
}

// opCollection is fn:collection([$name]): the member document nodes of the
// runtime's corpus, in stable corpus order (ascending tree IDs, so the
// result is already in document order).
type opCollection struct {
	name op // nil: the default collection
}

func (o *opCollection) eval(rt *Runtime, fr frame) (value, error) {
	if rt.Docs == nil {
		return value{}, fmt.Errorf("exec: collection(): no document collection bound to this evaluation")
	}
	name := ""
	if o.name != nil {
		arg, err := evalItems(o.name, rt, fr)
		if err != nil {
			return value{}, err
		}
		name, err = funcs.DocArg("collection", arg)
		if err != nil {
			return value{}, fmt.Errorf("exec: %w", err)
		}
	}
	roots, err := rt.Docs.ResolveCollection(name)
	if err != nil {
		return value{}, fmt.Errorf("exec: %w", err)
	}
	return itemsValue(roots), nil
}

// opCompare is the general comparison.
type opCompare struct {
	cmp  xdm.CompareOp
	l, r op
}

func (o *opCompare) eval(rt *Runtime, fr frame) (value, error) {
	l, err := evalItems(o.l, rt, fr)
	if err != nil {
		return value{}, err
	}
	r, err := evalItems(o.r, rt, fr)
	if err != nil {
		return value{}, err
	}
	b, err := xdm.GeneralCompare(o.cmp, l, r)
	if err != nil {
		return value{}, err
	}
	return itemsValue(xdm.Singleton(xdm.Bool(b))), nil
}

// opArith is binary arithmetic.
type opArith struct {
	ar   xdm.ArithOp
	l, r op
}

func (o *opArith) eval(rt *Runtime, fr frame) (value, error) {
	l, err := evalItems(o.l, rt, fr)
	if err != nil {
		return value{}, err
	}
	r, err := evalItems(o.r, rt, fr)
	if err != nil {
		return value{}, err
	}
	out, err := xdm.Arithmetic(o.ar, l, r)
	if err != nil {
		return value{}, err
	}
	return itemsValue(out), nil
}

// opAnd is short-circuit conjunction of effective boolean values.
type opAnd struct {
	l, r op
}

func (o *opAnd) eval(rt *Runtime, fr frame) (value, error) {
	l, err := evalBool(o.l, rt, fr)
	if err != nil {
		return value{}, err
	}
	if !l {
		return itemsValue(xdm.Singleton(xdm.Bool(false))), nil
	}
	r, err := evalBool(o.r, rt, fr)
	if err != nil {
		return value{}, err
	}
	return itemsValue(xdm.Singleton(xdm.Bool(r))), nil
}

// opOr is short-circuit disjunction.
type opOr struct {
	l, r op
}

func (o *opOr) eval(rt *Runtime, fr frame) (value, error) {
	l, err := evalBool(o.l, rt, fr)
	if err != nil {
		return value{}, err
	}
	if l {
		return itemsValue(xdm.Singleton(xdm.Bool(true))), nil
	}
	r, err := evalBool(o.r, rt, fr)
	if err != nil {
		return value{}, err
	}
	return itemsValue(xdm.Singleton(xdm.Bool(r))), nil
}

// opIf is the conditional.
type opIf struct {
	cond, then, els op
}

func (o *opIf) eval(rt *Runtime, fr frame) (value, error) {
	c, err := evalBool(o.cond, rt, fr)
	if err != nil {
		return value{}, err
	}
	if c {
		return o.then.eval(rt, fr)
	}
	return o.els.eval(rt, fr)
}

// opSequence is sequence concatenation.
type opSequence struct {
	items []op
}

func (o *opSequence) eval(rt *Runtime, fr frame) (value, error) {
	var out xdm.Sequence
	for _, it := range o.items {
		v, err := evalItems(it, rt, fr)
		if err != nil {
			return value{}, err
		}
		out = append(out, v...)
	}
	return itemsValue(out), nil
}

// opLet binds a sequence value into its slot for the body.
type opLet struct {
	p     *Plan
	slot  int
	value op
	body  op
}

func (o *opLet) eval(rt *Runtime, fr frame) (value, error) {
	v, err := evalItems(o.value, rt, fr)
	if err != nil {
		return value{}, err
	}
	nf := o.p.newFrame(fr)
	nf[o.slot] = v
	return o.body.eval(rt, nf)
}

// opTypeSwitch is the residual runtime type dispatch.
type opTypeSwitch struct {
	p       *Plan
	input   op
	cases   []tsCase
	defSlot int // -1: no default variable
	deflt   op
}

type tsCase struct {
	typ  string
	slot int
	body op
}

func (o *opTypeSwitch) eval(rt *Runtime, fr frame) (value, error) {
	in, err := evalItems(o.input, rt, fr)
	if err != nil {
		return value{}, err
	}
	for _, c := range o.cases {
		if c.typ == "numeric" && len(in) == 1 && xdm.IsNumeric(in[0]) {
			nf := o.p.newFrame(fr)
			nf[c.slot] = in
			return c.body.eval(rt, nf)
		}
	}
	if o.defSlot >= 0 {
		nf := o.p.newFrame(fr)
		nf[o.defSlot] = in
		return o.deflt.eval(rt, nf)
	}
	return o.deflt.eval(rt, fr)
}

// opMapFromItem builds one tuple [slot: item] per input item. Frames come
// from a single backing arena and each singleton is a capped one-item view of
// the input sequence (sequences are values, never written in place), so n
// tuples cost two allocations.
type opMapFromItem struct {
	p     *Plan
	slot  int
	input op
}

func (o *opMapFromItem) eval(rt *Runtime, fr frame) (value, error) {
	in, err := evalItems(o.input, rt, fr)
	if err != nil {
		return value{}, err
	}
	w := len(o.p.slotNames)
	backing := make([]xdm.Sequence, len(in)*w)
	out := make([]frame, len(in))
	for i := range in {
		row := backing[i*w : (i+1)*w : (i+1)*w]
		copy(row, fr)
		row[o.slot] = in[i : i+1 : i+1]
		out[i] = row
	}
	return framesValue(out), nil
}

// opMapToItem evaluates the dependent item expression per input tuple and
// concatenates the results.
type opMapToItem struct {
	dep   op
	input op
}

func (o *opMapToItem) eval(rt *Runtime, fr frame) (value, error) {
	in, err := evalFrames(o.input, rt, fr)
	if err != nil {
		return value{}, err
	}
	var out xdm.Sequence
	for _, t := range in {
		if rt.EC != nil && rt.EC.Stopped() {
			return value{}, rt.EC.Err()
		}
		v, err := evalItems(o.dep, rt, t)
		if err != nil {
			return value{}, err
		}
		out = append(out, v...)
	}
	return itemsValue(out), nil
}

// opSelect filters input tuples by the dependent predicate.
type opSelect struct {
	pred  op
	input op
}

func (o *opSelect) eval(rt *Runtime, fr frame) (value, error) {
	in, err := evalFrames(o.input, rt, fr)
	if err != nil {
		return value{}, err
	}
	var out []frame
	for _, t := range in {
		if rt.EC != nil && rt.EC.Stopped() {
			return value{}, rt.EC.Err()
		}
		keep, err := evalBool(o.pred, rt, t)
		if err != nil {
			return value{}, err
		}
		if keep {
			out = append(out, t)
		}
	}
	return framesValue(out), nil
}

// opMapIndex extends each input tuple with its 1-based position. Input
// frames may be shared with the producer, so rows are copied into a fresh
// arena before the position slot is written.
type opMapIndex struct {
	p     *Plan
	slot  int
	input op
}

func (o *opMapIndex) eval(rt *Runtime, fr frame) (value, error) {
	in, err := evalFrames(o.input, rt, fr)
	if err != nil {
		return value{}, err
	}
	w := len(o.p.slotNames)
	backing := make([]xdm.Sequence, len(in)*w)
	out := make([]frame, len(in))
	for i, t := range in {
		row := backing[i*w : (i+1)*w : (i+1)*w]
		copy(row, t)
		row[o.slot] = xdm.Singleton(xdm.Integer(i + 1))
		out[i] = row
	}
	return framesValue(out), nil
}

// opHead passes through the first input tuple (first-match pattern inputs
// compile to opTTP{first: true} instead — see lowerHead).
type opHead struct {
	input op
}

func (o *opHead) eval(rt *Runtime, fr frame) (value, error) {
	in, err := evalFrames(o.input, rt, fr)
	if err != nil {
		return value{}, err
	}
	if len(in) == 0 {
		return framesValue(nil), nil
	}
	return framesValue(in[:1]), nil
}
