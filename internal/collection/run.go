package collection

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"xqtp/internal/execctx"
	"xqtp/internal/xdm"
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

// RunEachCtx evaluates eval against every member in corpus order on the
// calling goroutine: the one-worker fan-out, where corpus order is evaluation
// order and eval delivers its results itself. skip elides members as in
// RunAllCtx, a member's failure comes back wrapped with its URI, and a
// stopped ec ends the walk with its typed error — also when the stop is what
// cut the failing member short.
func (c *Corpus) RunEachCtx(ec *execctx.Ctx, skip func(doc int) bool, eval func(d *Doc) error) error {
	if err := c.closedErr(); err != nil {
		return err
	}
	for i, d := range c.docs {
		if err := ec.Err(); err != nil {
			return err
		}
		if skip != nil && skip(i) {
			continue
		}
		if err := eval(d); err != nil {
			if stopErr := ec.Err(); stopErr != nil {
				return stopErr
			}
			return fmt.Errorf("collection: %s: %w", d.URI, err)
		}
	}
	return ec.Err()
}

// RunAllCtx evaluates eval against every member on a pool of
// Workers(workers, members) goroutines, handing each member's result to emit
// in corpus order. skip, when non-nil, elides members without evaluating
// them (the caller's name-table pruning hook); a skipped member contributes
// nothing.
//
// Results stream back through a channel bounded at the worker count, and the
// merger holds out-of-order arrivals in a pending buffer until their corpus
// position comes up — so emit sees the corpus order no matter how the pool
// interleaves, and at most workers+len(pending) document results are in
// flight at once. The first failure (earliest corpus position among the
// documents that evaluated) cancels the remaining work.
//
// The execution context governs the fan-out's lifetime: once ec stops
// (cancellation, or a budget spent by emit's Deliver), workers admit no new
// member, in-flight members are cut short by the kernels' own checkpoints,
// and their abort errors are recognized as stop fallout rather than member
// failures. The merger always drains the channel to its close, so a
// canceled run leaks no goroutine; the function then returns ec.Err(). An
// emit error (budget exhaustion, a sink refusing an item) likewise stops
// admission, and the sequences already emitted are exactly the corpus-order
// prefix — emit is only ever called from the merger, in order.
func (c *Corpus) RunAllCtx(ec *execctx.Ctx, workers int, skip func(doc int) bool, eval func(d *Doc) (xdm.Sequence, error), emit func(seq xdm.Sequence) error) error {
	if err := c.closedErr(); err != nil {
		return err
	}
	n := len(c.docs)
	if n == 0 {
		return ec.Err()
	}
	workers = Workers(workers, n)

	type docResult struct {
		pos int
		seq xdm.Sequence
		err error
	}
	results := make(chan docResult, workers)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pos := int(next.Add(1)) - 1
				if pos >= n || failed.Load() || ec.Stopped() {
					return
				}
				if skip != nil && skip(pos) {
					results <- docResult{pos: pos}
					continue
				}
				seq, err := eval(c.docs[pos])
				if err != nil {
					failed.Store(true)
				}
				results <- docResult{pos: pos, seq: seq, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	pending := make(map[int]xdm.Sequence, workers)
	nextOut := 0
	var firstErr, emitErr error
	errPos := n
	for r := range results {
		if r.err != nil {
			if ec.Stopped() {
				// The stop cut this member short; its abort error is the
				// run-level stop, not a member failure.
				continue
			}
			if r.pos < errPos {
				errPos = r.pos
				firstErr = fmt.Errorf("collection: %s: %w", c.docs[r.pos].URI, r.err)
			}
			continue
		}
		if firstErr != nil || emitErr != nil || ec.Stopped() {
			continue // drain; the merged prefix is already settled
		}
		if r.pos != nextOut {
			pending[r.pos] = r.seq
			continue
		}
		if emitErr = emit(r.seq); emitErr != nil {
			continue
		}
		nextOut++
		for {
			seq, ok := pending[nextOut]
			if !ok {
				break
			}
			delete(pending, nextOut)
			if emitErr = emit(seq); emitErr != nil {
				break
			}
			nextOut++
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if emitErr != nil {
		return emitErr
	}
	return ec.Err()
}
