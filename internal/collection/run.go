package collection

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"xqtp/internal/execctx"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// Workers is the one meaning of a worker-count argument, for ingest and
// query fan-out alike: how many of n members are processed at once. workers
// <= 0 means one per available CPU; the count is capped at n and is never
// below 1.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, n), 1)
}

// A Member evaluates corpus members for FanOut, one at a time.
type Member interface {
	// Eval evaluates member d, delivering its results to sink under ec.
	Eval(d *Doc, ec *execctx.Ctx, sink execctx.Sink) error
	// Fork returns a Member with evaluation state of its own for one worker
	// goroutine; FanOut calls the fork's Release once that worker is done.
	Fork() Member
	Release()
}

// FanOut evaluates m against every member of c, delivering the results to
// sink in corpus order. skip, when non-nil, elides members without
// evaluating them (the caller's emptiness proof). A member's failure comes
// back wrapped with its URI, and a stopped ec ends the run with its typed
// error — also when the stop is what cut the failing member short.
//
// With Workers(workers, members) == 1, corpus order is evaluation order: m
// evaluates each admitted member on the calling goroutine straight into
// sink, under ec. With more, each worker goroutine evaluates through its own
// m.Fork() into a per-member collector, under ec.CancelOnly() — members
// observe the stop but never charge the budgets — and results stream back
// through a channel bounded at the worker count. The merger holds
// out-of-order arrivals until their corpus position comes up and delivers
// each member's items to sink with budget charging, so a stopped run's
// delivered items are exactly the corpus-order prefix however the pool
// interleaved. A failure ends admission past its position, and the run
// returns the failure of the earliest position in corpus order: a position
// claimed below the lowest failure so far is always evaluated. A stop or a
// sink error ends admission outright; in-flight members are cut short by
// the kernels' own checkpoints, and the merger drains the channel to its
// close, so no goroutine outlives the run.
func (c *Corpus) FanOut(ec *execctx.Ctx, workers int, skip func(doc int) bool, sink execctx.Sink, m Member) error {
	if err := c.closedErr(); err != nil {
		return err
	}
	n := len(c.docs)
	if workers = Workers(workers, n); workers == 1 {
		for i := range c.docs {
			if err := ec.Err(); err != nil {
				return err
			}
			if err := c.eval(m, i, skip, ec, sink); err != nil {
				return err
			}
		}
		return ec.Err()
	}
	mec := ec.CancelOnly()

	type docResult struct {
		pos int
		seq xdm.Sequence
		err error
	}
	results := make(chan docResult, workers)
	var next atomic.Int64
	var failAt atomic.Int64 // the lowest position that failed; n while none has
	failAt.Store(int64(n))
	var halt atomic.Bool // a sink error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wm := m.Fork()
			defer wm.Release()
			var col execctx.Collector
			for {
				pos := int(next.Add(1)) - 1
				if claimHook != nil {
					claimHook(pos)
				}
				if pos >= n || int64(pos) > failAt.Load() || halt.Load() || ec.Stopped() {
					return
				}
				col.Seq = nil
				err := c.eval(wm, pos, skip, mec, &col)
				if err != nil {
					lowerTo(&failAt, int64(pos))
				}
				results <- docResult{pos: pos, seq: col.Seq, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	pending := make(map[int]xdm.Sequence, workers)
	nextOut := 0
	var firstErr, sinkErr error
	errPos := n
	for r := range results {
		if r.err != nil {
			// An error after the stop is the stop cutting the member short,
			// not a member failure.
			if r.pos < errPos && !ec.Stopped() {
				errPos, firstErr = r.pos, r.err
			}
			continue
		}
		if firstErr != nil || sinkErr != nil || ec.Stopped() {
			continue // drain; the merged prefix is already settled
		}
		if r.pos != nextOut {
			pending[r.pos] = r.seq
			continue
		}
		for seq, ok := r.seq, true; ok; seq, ok = pending[nextOut] {
			delete(pending, nextOut)
			if sinkErr = execctx.Deliver(ec, sink, seq); sinkErr != nil {
				halt.Store(true)
				break
			}
			nextOut++
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if sinkErr != nil {
		return sinkErr
	}
	return ec.Err()
}

// lowerTo sets v to x unless v is already lower.
func lowerTo(v *atomic.Int64, x int64) {
	for cur := v.Load(); x < cur && !v.CompareAndSwap(cur, x); cur = v.Load() {
	}
}

// claimHook, when set, is called by a fan-out worker with each position it
// claims, before it decides whether to evaluate it: tests hold a claim
// there to force an interleaving.
var claimHook func(pos int)

// eval evaluates member i through m unless skip elides it, wrapping a
// failure with the member's URI unless ec has stopped, whose typed error
// then comes back instead.
func (c *Corpus) eval(m Member, i int, skip func(doc int) bool, ec *execctx.Ctx, sink execctx.Sink) error {
	d := c.docs[i]
	err := evalMember(m, d, i, skip, ec, sink)
	if err == nil {
		return nil
	}
	if stopErr := ec.Err(); stopErr != nil {
		return stopErr
	}
	return fmt.Errorf("collection: %s: %w", d.URI, err)
}

// evalMember is eval's skip probe and member run. Both may read a mapped
// member's pages, so both run under one fault guard: a member whose file was
// truncated under the mapping fails alone.
func evalMember(m Member, d *Doc, i int, skip func(doc int) bool, ec *execctx.Ctx, sink execctx.Sink) (err error) {
	defer xmlstore.CatchFault(xmlstore.ArmFaults(), &err)
	if skip != nil && skip(i) {
		return nil
	}
	return m.Eval(d, ec, sink)
}
