// Package execctx carries the per-run execution context of a query
// evaluation: cancellation (a context.Context's done channel), row and byte
// budgets, and the streaming result sink. One *Ctx is threaded from the
// public entry points through the physical operators down into the join
// kernels, which poll it at bounded intervals with atomic loads only: the
// context's cancellation raises a flag of its own (context.AfterFunc).
//
// Every method is nil-receiver-safe: entry points without a deadline or
// budget thread a nil *Ctx, so the pre-existing Run paths pay exactly one
// nil-check branch per checkpoint and nothing per row.
package execctx

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"xqtp/internal/xdm"
)

// Sentinel abort reasons. Run errors match them through errors.Is.
var (
	// ErrCanceled reports that the run's context was canceled or its
	// deadline passed before evaluation finished.
	ErrCanceled = errors.New("execution canceled")
	// ErrBudgetExceeded reports that the run hit its MaxRows or MaxBytes
	// budget; the rows delivered before the stop are exactly the
	// document-order prefix of the uncancelled result.
	ErrBudgetExceeded = errors.New("execution budget exceeded")
)

// Error is the typed abort error a stopped run returns: the reason (one of
// the sentinels above), the partial-progress counters at the stop point, and
// the underlying cause (the context's error, so errors.Is also matches
// context.Canceled / context.DeadlineExceeded).
type Error struct {
	Reason error // ErrCanceled or ErrBudgetExceeded
	Rows   int64 // rows delivered to the sink before the stop
	Bytes  int64 // approximate bytes delivered (counted only under MaxBytes)
	Cause  error // the context's error, when the reason is a cancellation
}

func (e *Error) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("%s after %d rows: %v", e.Reason, e.Rows, e.Cause)
	}
	return fmt.Sprintf("%s after %d rows", e.Reason, e.Rows)
}

// Is matches the sentinel reason, so errors.Is(err, ErrCanceled) works on
// the wrapped form.
func (e *Error) Is(target error) bool { return target == e.Reason }

// Unwrap exposes the cause, so errors.Is also reaches context.Canceled and
// context.DeadlineExceeded.
func (e *Error) Unwrap() error { return e.Cause }

// state is the shared stop/progress state of one run. Cancel-only views of
// a Ctx (corpus member evaluations) alias it, so a budget stop observed at
// the merge point halts every in-flight member.
type state struct {
	stopped  atomic.Bool
	canceled atomic.Bool // raised once the context is done; stopped follows at the next check
	rows     atomic.Int64
	bytes    atomic.Int64

	mu  sync.Mutex
	err error // the first stop error; returned by every Err call after it
}

// Ctx is one run's execution context, built by From; a nil *Ctx is the
// valid "no limits" context.
type Ctx struct {
	ctx      context.Context // nil when done is
	done     <-chan struct{}
	raise    func()      // raises own.canceled; made once per pooled Ctx
	release  func() bool // unregisters raise from ctx (Release)
	maxRows  int64       // 0: unlimited
	maxBytes int64       // 0: unlimited
	st       *state
	own      state // st of a run's own context; a view points at its run's
	view     bool  // a CancelOnly view
}

// ctxPool recycles the contexts From builds together with their raise
// callbacks, so a run's context costs no allocation of its own.
var ctxPool = sync.Pool{New: func() any {
	ec := &Ctx{}
	ec.st = &ec.own
	ec.raise = func() { ec.own.canceled.Store(true) }
	return ec
}}

// From builds the execution context for one run. It returns nil — the
// zero-overhead context — when ctx can never be canceled and no budget is
// set, so the legacy entry points stay genuinely free wrappers. A context
// that can be canceled gets a callback that raises the run's canceled flag
// (context.AfterFunc); the run releases it when it ends (Release).
func From(ctx context.Context, maxRows, maxBytes int64) *Ctx {
	maxRows, maxBytes = max(maxRows, 0), max(maxBytes, 0)
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if done == nil && maxRows == 0 && maxBytes == 0 {
		return nil
	}
	ec := ctxPool.Get().(*Ctx)
	ec.maxRows, ec.maxBytes = maxRows, maxBytes
	if done != nil {
		ec.ctx, ec.done = ctx, done
		// The callback runs on a goroutine of its own; a context done
		// already is flagged here, before the run's first check.
		ec.release = context.AfterFunc(ctx, ec.raise)
		if ctx.Err() != nil {
			ec.own.canceled.Store(true)
		}
	}
	return ec
}

// Release ends the run's use of ec, which must not be used afterwards: it
// unregisters the cancellation callback and recycles ec — unless the
// callback has started, which may still raise the flag, and then ec is left
// to the collector. The run that called From calls it once, when it ends;
// views release nothing.
func (ec *Ctx) Release() {
	if ec == nil || ec.view || ec.release != nil && !ec.release() {
		return
	}
	*ec = Ctx{raise: ec.raise}
	ec.st = &ec.own
	ctxPool.Put(ec)
}

// CancelOnly returns a view sharing ec's cancellation and stop state that
// charges nothing: corpus member evaluations run under it, so only the
// corpus-order merge point counts rows and charges the budgets (the
// delivered prefix is then exactly the corpus-order prefix), while a stop
// recorded at the merge still halts every member through the shared state.
// Deliver and DeliverNodes under a view push as under the nil context.
func (ec *Ctx) CancelOnly() *Ctx {
	if ec == nil {
		return nil
	}
	return &Ctx{ctx: ec.ctx, done: ec.done, st: ec.st, view: true}
}

// charged is the context a delivery charges: ec, or nil for a view.
func (ec *Ctx) charged() *Ctx {
	if ec != nil && ec.view {
		return nil
	}
	return ec
}

// Stopped reports whether the run must abort: atomic loads of the sticky
// stop flag and of the canceled flag. The first call that sees the canceled
// flag records ErrCanceled with the progress counters of that moment.
// Kernels poll this at bounded intervals and bail out returning partial
// scratch results; the operator layer above converts the stop into the
// typed error, so partial kernel output is never observed by callers.
func (ec *Ctx) Stopped() bool {
	if ec == nil {
		return false
	}
	if ec.st.stopped.Load() {
		return true
	}
	if ec.st.canceled.Load() {
		ec.stopCanceled()
		return true
	}
	return false
}

// Err returns the run's stop error: nil while the run may continue, the
// first recorded abort error once it must stop. Unlike Stopped it also
// probes the done channel (without blocking) while both flags are clear:
// the callback that raises the canceled flag runs on a goroutine of its
// own, and a cancel issued on the run's own goroutine must still be seen
// at the next boundary (before a delivery, after a kernel), so no result
// computed after it reaches the sink.
func (ec *Ctx) Err() error {
	if ec == nil {
		return nil
	}
	if !ec.Stopped() {
		select {
		case <-ec.done: // a nil channel never fires
			ec.stopCanceled()
		default:
			return nil
		}
	}
	ec.st.mu.Lock()
	defer ec.st.mu.Unlock()
	return ec.st.err
}

// stopCanceled records the context's cancellation as the run's stop.
func (ec *Ctx) stopCanceled() {
	ec.stopWith(&Error{
		Reason: ErrCanceled,
		Rows:   ec.st.rows.Load(),
		Bytes:  ec.st.bytes.Load(),
		Cause:  ec.ctx.Err(),
	})
}

// Rows returns the number of rows delivered to the sink so far.
func (ec *Ctx) Rows() int64 {
	if ec == nil {
		return 0
	}
	return ec.st.rows.Load()
}

// Bytes returns the approximate bytes delivered so far (counted only when a
// MaxBytes budget is set).
func (ec *Ctx) Bytes() int64 {
	if ec == nil {
		return 0
	}
	return ec.st.bytes.Load()
}

// stopWith records the first stop error and raises the sticky flag. Later
// calls keep the first error (the reason the run actually aborted).
func (ec *Ctx) stopWith(err error) {
	ec.st.mu.Lock()
	if ec.st.err == nil {
		ec.st.err = err
	}
	ec.st.mu.Unlock()
	ec.st.stopped.Store(true)
}

// Sink receives result items as evaluation produces them. A Push error
// aborts the run, which returns that error.
type Sink interface {
	Push(it xdm.Item) error
}

// Collector is the default sink: it gathers pushed items into a Sequence.
// The materializing entry points (Run, RunParallel, …) are implemented as
// streaming runs into a Collector.
type Collector struct {
	Seq xdm.Sequence
}

// Push appends one item.
func (c *Collector) Push(it xdm.Item) error {
	c.Seq = append(c.Seq, it)
	return nil
}

// Deliver pushes items to the sink under ec's budget. Budget charging is
// per item and happens before the push, so under MaxRows = K item K+1 is
// never pushed: the sink sees exactly the length-K prefix, then Deliver
// stops the run with ErrBudgetExceeded and returns the typed error. A sink
// error stops the run and is returned as-is; the rows count only the items
// the sink accepted.
func Deliver(ec *Ctx, sink Sink, items xdm.Sequence) error {
	if len(items) == 0 {
		return nil
	}
	ec = ec.charged()
	if ec == nil {
		_, err := pushAll(sink, items)
		return err
	}
	if err := ec.Err(); err != nil {
		return err
	}
	if ec.maxRows == 0 && ec.maxBytes == 0 {
		// No budget: no per-item admission; count what the sink accepted.
		n, err := pushAll(sink, items)
		ec.st.rows.Add(int64(n))
		if err != nil {
			ec.stopWith(err)
		}
		return err
	}
	for _, it := range items {
		if err := ec.deliverOne(sink, it); err != nil {
			return err
		}
	}
	return nil
}

// deliverOne charges one item against the budgets and pushes it.
func (ec *Ctx) deliverOne(sink Sink, it xdm.Item) error {
	var weight int64
	if ec.maxBytes > 0 {
		weight = itemWeight(it)
	}
	if err := ec.admit(weight); err != nil {
		return err
	}
	if err := sink.Push(it); err != nil {
		ec.refuse(weight)
		ec.stopWith(err)
		return err
	}
	return nil
}

// admit counts one row of the given byte weight, or, when that would pass a
// budget, stops the run and returns the typed error.
func (ec *Ctx) admit(weight int64) error {
	rows := ec.st.rows.Add(1)
	if ec.maxRows > 0 && rows > ec.maxRows || ec.maxBytes > 0 && ec.st.bytes.Add(weight) > ec.maxBytes {
		ec.st.rows.Add(-1) // the item was not delivered
		ec.stopBudget()
		return ec.Err()
	}
	return nil
}

// refuse takes back the admission of an item the sink then refused.
func (ec *Ctx) refuse(weight int64) {
	ec.st.rows.Add(-1)
	if ec.maxBytes > 0 {
		ec.st.bytes.Add(-weight)
	}
}

// RankSink is the optional node fast path: a sink that renders a node from
// its tree's columns takes it as (tree, rank), and DeliverNodes builds no
// node for it.
type RankSink interface {
	PushRank(t *xdm.Tree, r int32) error
}

// DeliverNodes is Deliver for a producer that holds its result as preorder
// ranks of tree t: it delivers t.Node(ranks[i]) for i = first, first+stride,
// … — one output field of a table of stride-wide bindings — with Deliver's
// budget charging (a node weighs what itemWeight charges) and stop behavior,
// and without the result ever existing as a Sequence. A RankSink receives
// the ranks; for other sinks a node is built when it is first delivered. A
// Collector receives the nodes into a sequence grown once to the exact size.
func DeliverNodes(ec *Ctx, sink Sink, t *xdm.Tree, ranks []int32, first, stride int) error {
	if first >= len(ranks) {
		return nil
	}
	ec = ec.charged()
	budget := false
	if ec != nil {
		if err := ec.Err(); err != nil {
			return err
		}
		budget = ec.maxRows > 0 || ec.maxBytes > 0
	}
	if c, ok := sink.(*Collector); ok && !budget {
		n := (len(ranks) - first + stride - 1) / stride
		c.Seq = slices.Grow(c.Seq, n)
		for i := first; i < len(ranks); i += stride {
			c.Seq = append(c.Seq, t.Node(ranks[i]))
		}
		ec.count(n)
		return nil
	}
	rs, _ := sink.(RankSink)
	pushed := 0
	var err error
	for i := first; i < len(ranks); i += stride {
		r := ranks[i]
		var weight int64
		if budget {
			weight = (int64(t.Cols.Size[r]) + 1) * 16
			if err := ec.admit(weight); err != nil {
				return err
			}
		}
		if rs != nil {
			err = rs.PushRank(t, r)
		} else {
			err = sink.Push(t.Node(r))
		}
		if err != nil {
			if budget {
				ec.refuse(weight)
			}
			break
		}
		pushed++
	}
	if !budget {
		ec.count(pushed)
	}
	if err != nil && ec != nil {
		ec.stopWith(err)
	}
	return err
}

// count adds n rows delivered outside the budgets' per-item admission.
func (ec *Ctx) count(n int) {
	if ec != nil {
		ec.st.rows.Add(int64(n))
	}
}

func (ec *Ctx) stopBudget() {
	ec.stopWith(&Error{
		Reason: ErrBudgetExceeded,
		Rows:   ec.st.rows.Load(),
		Bytes:  ec.st.bytes.Load(),
	})
}

// pushAll pushes items to the sink until it refuses one, and returns how
// many it accepted.
func pushAll(sink Sink, items xdm.Sequence) (int, error) {
	if c, ok := sink.(*Collector); ok {
		c.Seq = append(c.Seq, items...)
		return len(items), nil
	}
	for i, it := range items {
		if err := sink.Push(it); err != nil {
			return i, err
		}
	}
	return len(items), nil
}

// itemWeight is the O(1) byte-budget charge of one item: nodes are charged
// by their subtree region size times a nominal per-node serialization cost
// (no serialization happens), atomics by their lexical length.
func itemWeight(it xdm.Item) int64 {
	if n, ok := it.(*xdm.Node); ok {
		return int64(n.Size+1) * 16
	}
	return int64(len(xdm.ItemString(it)))
}
