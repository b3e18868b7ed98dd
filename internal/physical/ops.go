package physical

import (
	"errors"
	"fmt"

	"xqtp/internal/execctx"
	"xqtp/internal/funcs"
	"xqtp/internal/xdm"
)

// refOp is an item operator whose result already exists as a sequence: a
// reader that only reads takes it in place instead of a copy (RunState.seq).
type refOp interface {
	ref(rs *RunState) (xdm.Sequence, error)
}

// opMalformed stands in for an operator of the wrong sort (tuples where items
// are expected, or the reverse): lowering keeps it as a lazy run-time error,
// like every other malformed-plan condition.
type opMalformed struct {
	stream
	err error
}

func (o *opMalformed) items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	return dst, o.err
}

func (o *opMalformed) run(rs *RunState) error { return o.err }

// opIn is the per-tuple dependent context IN as a tuple stream: the frame
// itself, handed on as the one input tuple.
type opIn struct {
	stream
	// unbound marks an IN outside any dependent context.
	unbound bool
}

func (o *opIn) run(rs *RunState) error {
	if o.unbound {
		return errors.New("exec: IN used outside a dependent context")
	}
	return o.out.tuple(rs)
}

// opField reads the tuple field compiled to slot (IN#name).
type opField struct {
	slot int
	name string
}

func (o *opField) ref(rs *RunState) (xdm.Sequence, error) { return rs.fr[o.slot], nil }

func (o *opField) items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	return append(dst, rs.fr[o.slot]...), nil
}

// opUnboundField is a Field reference outside any binder's scope: the
// lowering pass keeps it as a lazy run-time error, matching the
// interpreter's unbound-field behavior (plans only hit it when malformed).
type opUnboundField struct {
	name string
}

func (o *opUnboundField) items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	return dst, fmt.Errorf("exec: unbound field IN#%s", o.name)
}

// opVar reads the free variable compiled to slot.
type opVar struct {
	slot int
	name string
}

func (o *opVar) ref(rs *RunState) (xdm.Sequence, error) {
	if v, ok := rs.rt.varBinding(o.slot); ok {
		return v, nil
	}
	return nil, fmt.Errorf("exec: unbound variable $%s", o.name)
}

func (o *opVar) items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	v, err := o.ref(rs)
	return append(dst, v...), err
}

// opConst is a literal (or the empty sequence), materialized at compile
// time.
type opConst struct {
	seq xdm.Sequence
}

func (o *opConst) ref(rs *RunState) (xdm.Sequence, error) { return o.seq, nil }

func (o *opConst) items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	return append(dst, o.seq...), nil
}

// opTreeJoin is the navigational axis step over items.
type opTreeJoin struct {
	axis  xdm.Axis
	test  xdm.NodeTest
	input itemOp
	tmp   int
}

func (o *opTreeJoin) items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	in, err := rs.seq(o.input, o.tmp)
	if err != nil {
		return dst, err
	}
	for _, it := range in {
		n, ok := it.(*xdm.Node)
		if !ok {
			return dst, fmt.Errorf("exec: TreeJoin applied to atomic value %T", it)
		}
		dst = xdm.AppendStep(dst, n, o.axis, o.test)
	}
	return dst, nil
}

// opCall invokes a builtin through the function pointer bound at compile
// time. Arity and resolution errors are checked at lowering but surface at
// evaluation time (bindErr), preserving the interpreter's error timing. The
// argument array is the operator's scratch slots tmp, tmp+1, ….
type opCall struct {
	name    string
	fn      funcs.Fn
	args    []itemOp
	tmp     int
	bindErr error
}

func (o *opCall) items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	if o.bindErr != nil {
		return dst, fmt.Errorf("exec: %v", o.bindErr)
	}
	args := rs.fr[o.tmp : o.tmp+len(o.args)]
	for i, a := range o.args {
		var err error
		if args[i], err = rs.seq(a, o.tmp+i); err != nil {
			return dst, err
		}
	}
	out, err := o.fn(args)
	if err != nil {
		return dst, fmt.Errorf("exec: %w", err)
	}
	return append(dst, out...), nil
}

// docArg evaluates the URI or collection-name argument of a document access
// function.
func docArg(rs *RunState, fn string, arg itemOp, tmp int) (string, error) {
	v, err := rs.seq(arg, tmp)
	if err != nil {
		return "", err
	}
	s, err := funcs.DocArg(fn, v)
	if err != nil {
		return "", fmt.Errorf("exec: %w", err)
	}
	return s, nil
}

// opDoc is fn:doc($uri): it resolves a document URI against the runtime's
// corpus. Compiled from Call nodes at lowering time (like every builtin),
// but evaluated against per-run state — the plan itself stays corpus-free.
type opDoc struct {
	uri itemOp
	tmp int
}

func (o *opDoc) items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	if rs.rt.Docs == nil {
		return dst, errors.New("exec: doc(): no document collection bound to this evaluation")
	}
	uri, err := docArg(rs, "doc", o.uri, o.tmp)
	if err != nil {
		return dst, err
	}
	n, err := rs.rt.Docs.ResolveDoc(uri)
	if err != nil {
		return dst, fmt.Errorf("exec: %w", err)
	}
	return append(dst, n), nil
}

// opCollection is fn:collection([$name]): the member document nodes of the
// runtime's corpus, in stable corpus order (ascending tree IDs, so the
// result is already in document order).
type opCollection struct {
	name itemOp // nil: the default collection
	tmp  int
}

func (o *opCollection) items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	if rs.rt.Docs == nil {
		return dst, errors.New("exec: collection(): no document collection bound to this evaluation")
	}
	name := ""
	if o.name != nil {
		var err error
		if name, err = docArg(rs, "collection", o.name, o.tmp); err != nil {
			return dst, err
		}
	}
	roots, err := rs.rt.Docs.ResolveCollection(name)
	if err != nil {
		return dst, fmt.Errorf("exec: %w", err)
	}
	return append(dst, roots...), nil
}

// opCompare is the general comparison; its operands are scratch slots tmp and
// tmp+1.
type opCompare struct {
	cmp  xdm.CompareOp
	l, r itemOp
	tmp  int
}

func (o *opCompare) items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	l, err := rs.seq(o.l, o.tmp)
	if err != nil {
		return dst, err
	}
	r, err := rs.seq(o.r, o.tmp+1)
	if err != nil {
		return dst, err
	}
	b, err := xdm.GeneralCompare(o.cmp, l, r)
	if err != nil {
		return dst, err
	}
	return append(dst, xdm.Bool(b)), nil
}

// opArith is binary arithmetic; its operands are scratch slots tmp and tmp+1.
type opArith struct {
	ar   xdm.ArithOp
	l, r itemOp
	tmp  int
}

func (o *opArith) items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	l, err := rs.seq(o.l, o.tmp)
	if err != nil {
		return dst, err
	}
	r, err := rs.seq(o.r, o.tmp+1)
	if err != nil {
		return dst, err
	}
	out, err := xdm.Arithmetic(o.ar, l, r)
	if err != nil {
		return dst, err
	}
	return append(dst, out...), nil
}

// opAnd is short-circuit conjunction of effective boolean values.
type opAnd struct {
	l, r itemOp
	tmp  int
}

func (o *opAnd) items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	b, err := rs.ebv(o.l, o.tmp)
	if err == nil && b {
		b, err = rs.ebv(o.r, o.tmp)
	}
	if err != nil {
		return dst, err
	}
	return append(dst, xdm.Bool(b)), nil
}

// opOr is short-circuit disjunction.
type opOr struct {
	l, r itemOp
	tmp  int
}

func (o *opOr) items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	b, err := rs.ebv(o.l, o.tmp)
	if err == nil && !b {
		b, err = rs.ebv(o.r, o.tmp)
	}
	if err != nil {
		return dst, err
	}
	return append(dst, xdm.Bool(b)), nil
}

// opIf is the conditional.
type opIf struct {
	cond, then, els itemOp
	tmp             int
}

func (o *opIf) items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	c, err := rs.ebv(o.cond, o.tmp)
	if err != nil {
		return dst, err
	}
	if c {
		return o.then.items(rs, dst)
	}
	return o.els.items(rs, dst)
}

// opSequence is sequence concatenation.
type opSequence struct {
	parts []itemOp
}

func (o *opSequence) items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	for _, it := range o.parts {
		var err error
		if dst, err = it.items(rs, dst); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// opLet binds a sequence value into its slot for the body.
type opLet struct {
	slot  int
	value itemOp
	body  itemOp
	tmp   int
}

func (o *opLet) items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	v, err := rs.seq(o.value, o.tmp)
	if err != nil {
		return dst, err
	}
	rs.fr[o.slot] = v
	return o.body.items(rs, dst)
}

// opTypeSwitch is the residual runtime type dispatch.
type opTypeSwitch struct {
	input   itemOp
	cases   []tsCase
	defSlot int // -1: no default variable
	deflt   itemOp
	tmp     int
}

type tsCase struct {
	typ  string
	slot int
	body itemOp
}

func (o *opTypeSwitch) items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	in, err := rs.seq(o.input, o.tmp)
	if err != nil {
		return dst, err
	}
	for _, c := range o.cases {
		if c.typ == "numeric" && len(in) == 1 && xdm.IsNumeric(in[0]) {
			rs.fr[c.slot] = in
			return c.body.items(rs, dst)
		}
	}
	if o.defSlot >= 0 {
		rs.fr[o.defSlot] = in
	}
	return o.deflt.items(rs, dst)
}

// opMapFromItem streams one tuple per input item: its slot holds a capped
// one-item view of the evaluated input, which stays put for the whole stream.
type opMapFromItem struct {
	stream
	slot  int
	input itemOp
	tmp   int
}

func (o *opMapFromItem) run(rs *RunState) error {
	in, err := rs.seq(o.input, o.tmp)
	if err != nil {
		return err
	}
	for i := range in {
		rs.fr[o.slot] = in[i : i+1 : i+1]
		if err := o.out.tuple(rs); err != nil {
			return err
		}
	}
	return nil
}

// opMapToItem evaluates the dependent item expression per input tuple and
// concatenates the results in the scratch slot acc — the caller's dst for
// the length of one evaluation. At the plan root (toSink) each tuple's items
// go to the run's sink before the next tuple is produced, and acc is the run
// state's own buffer, kept with its capacity from one run to the next.
type opMapToItem struct {
	dep    itemOp
	input  tupleOp
	acc    int
	toSink bool
}

func (o *opMapToItem) items(rs *RunState, dst xdm.Sequence) (xdm.Sequence, error) {
	if o.toSink {
		rs.fr[o.acc] = rs.fr[o.acc][:0]
		return dst, o.input.run(rs)
	}
	rs.fr[o.acc] = dst
	err := o.input.run(rs)
	dst, rs.fr[o.acc] = rs.fr[o.acc], nil
	return dst, err
}

func (o *opMapToItem) tuple(rs *RunState) error {
	if ec := rs.rt.EC; ec != nil && ec.Stopped() {
		return ec.Err()
	}
	acc, err := o.dep.items(rs, rs.fr[o.acc])
	if err == nil && o.toSink {
		err = execctx.Deliver(rs.charge, rs.sink, acc)
		acc = acc[:0]
	}
	rs.fr[o.acc] = acc
	return err
}

func (o *opMapToItem) deliverToSink() { o.toSink = true }

// opSelect passes on the input tuples the dependent predicate keeps.
type opSelect struct {
	stream
	pred  itemOp
	input tupleOp
	tmp   int
}

func (o *opSelect) run(rs *RunState) error { return o.input.run(rs) }

func (o *opSelect) tuple(rs *RunState) error {
	if ec := rs.rt.EC; ec != nil && ec.Stopped() {
		return ec.Err()
	}
	keep, err := rs.ebv(o.pred, o.tmp)
	if err != nil || !keep {
		return err
	}
	return o.out.tuple(rs)
}

// opMapIndex extends each input tuple with its 1-based position, kept in the
// singleton cell behind its slot.
type opMapIndex struct {
	stream
	slot  int
	input tupleOp
	cell  int
}

func (o *opMapIndex) run(rs *RunState) error {
	rs.cells[o.cell] = xdm.Integer(0)
	return o.input.run(rs)
}

func (o *opMapIndex) tuple(rs *RunState) error {
	pos := rs.cells[o.cell : o.cell+1 : o.cell+1]
	pos[0] = pos[0].(xdm.Integer) + 1
	rs.fr[o.slot] = pos
	return o.out.tuple(rs)
}

// opHead passes on the first input tuple and drains the rest, as the
// interpreter evaluates the whole input (first-match pattern inputs compile
// to opTTP{first: true} instead — see the lowering of Head). Its cell is nil
// until that first tuple.
type opHead struct {
	stream
	input tupleOp
	cell  int
}

func (o *opHead) run(rs *RunState) error {
	rs.cells[o.cell] = nil
	return o.input.run(rs)
}

func (o *opHead) tuple(rs *RunState) error {
	if rs.cells[o.cell] != nil {
		return nil
	}
	rs.cells[o.cell] = xdm.Bool(true)
	return o.out.tuple(rs)
}
