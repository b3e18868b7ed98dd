// Package execctx carries the per-run execution context of a query
// evaluation: cancellation (a context.Context's done channel), row and byte
// budgets, and the streaming result sink. One *Ctx is threaded from the
// public entry points through the physical operators down into the join
// kernels, which poll it at bounded intervals — a sticky-flag load on the
// hot path, a non-blocking channel probe only when the flag is still clear.
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
	stopped atomic.Bool
	rows    atomic.Int64
	bytes   atomic.Int64

	mu  sync.Mutex
	err error // the first stop error; returned by every Err call after it
}

// Ctx is one run's execution context. The zero-value-free constructor is
// From; a nil *Ctx is the valid "no limits" context.
type Ctx struct {
	done     <-chan struct{}
	ctxErr   func() error
	maxRows  int64 // 0: unlimited
	maxBytes int64 // 0: unlimited
	st       *state
}

// From builds the execution context for one run. It returns nil — the
// zero-overhead context — when ctx can never be canceled and no budget is
// set, so the legacy entry points stay genuinely free wrappers.
func From(ctx context.Context, maxRows, maxBytes int64) *Ctx {
	if maxRows < 0 {
		maxRows = 0
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if done == nil && maxRows == 0 && maxBytes == 0 {
		return nil
	}
	// Bound only past the nil return: the method value is an allocation.
	ctxErr := func() error { return nil }
	if ctx != nil {
		ctxErr = ctx.Err
	}
	return &Ctx{done: done, ctxErr: ctxErr, maxRows: maxRows, maxBytes: maxBytes, st: &state{}}
}

// CancelOnly returns a view sharing ec's cancellation and stop state but
// carrying no budget: corpus member evaluations run under it, so only the
// corpus-order merge point charges the budget (the delivered prefix is then
// exactly the document-order prefix), while a budget stop recorded at the
// merge still halts every member through the shared state.
func (ec *Ctx) CancelOnly() *Ctx {
	if ec == nil || (ec.maxRows == 0 && ec.maxBytes == 0) {
		return ec
	}
	return &Ctx{done: ec.done, ctxErr: ec.ctxErr, st: ec.st}
}

// Stopped reports whether the run must abort. The fast path is one atomic
// load of the sticky flag; the done channel is probed (without blocking)
// only while the flag is clear. Kernels poll this at bounded intervals and
// bail out returning partial scratch results; the operator layer above
// converts the stop into the typed error, so partial kernel output is never
// observed by callers.
func (ec *Ctx) Stopped() bool {
	if ec == nil {
		return false
	}
	if ec.st.stopped.Load() {
		return true
	}
	if ec.done != nil {
		select {
		case <-ec.done:
			ec.stopWith(&Error{
				Reason: ErrCanceled,
				Rows:   ec.st.rows.Load(),
				Bytes:  ec.st.bytes.Load(),
				Cause:  ec.ctxErr(),
			})
			return true
		default:
		}
	}
	return false
}

// Err returns the run's stop error: nil while the run may continue, the
// first recorded abort error once it must stop.
func (ec *Ctx) Err() error {
	if ec == nil || !ec.Stopped() {
		return nil
	}
	ec.st.mu.Lock()
	defer ec.st.mu.Unlock()
	return ec.st.err
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
