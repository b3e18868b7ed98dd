package join

import (
	"sync"

	"xqtp/internal/execctx"
	"xqtp/internal/xdm"
)

// nlState is one nested-loop evaluation's recursion state, for one context
// or a set of them. It lives in a pool, so a warm evaluation allocates only
// what it appends to dst.
type nlState struct {
	ec    *execctx.Ctx
	cols  *xdm.Cols
	tick  int
	first bool // stop at the first binding (§5.3's cursor)
	done  bool // the first binding is in, or ec has stopped
	// halted records that ec has stopped: done for every later context too.
	halted bool
	// outs holds the output ranks of the binding under construction,
	// root-to-leaf.
	outs []int32
	dst  []int32
}

var nlPool = sync.Pool{New: func() any { return new(nlState) }}

// nlAppend is the nested-loop (navigational) evaluation of the pattern from
// context rank ctx: rank-at-a-time recursion along the compiled spine through
// xdm.EachStepRank, which is held to the pointer data model's step (xdm's
// TestStepMatchesPointerReference), with existential early-exit checks for
// predicate branches. It appends each binding's output ranks to dst and
// builds no node. Bindings come out in lexical (context-major) order,
// duplicates included; the TupleTreePattern operator establishes the output
// order. A state taken with first set (AppendFirstFor) stops after the
// lexically first binding — the cursor-style evaluation that makes nested
// loops win on highly selective positional chains (§5.3).
//
// A stop of ec cuts the recursion short: the bindings found so far stay
// appended (AppendRanks' partial-result contract).
func (p *Prepared) nlAppend(ec *execctx.Ctx, ctx int32, dst []int32) []int32 {
	s := p.nl(ec, false)
	dst = s.from(ctx, p.spine, dst)
	s.release()
	return dst
}

// nl takes a recursion state for an evaluation of p from the pool.
func (p *Prepared) nl(ec *execctx.Ctx, first bool) *nlState {
	s := nlPool.Get().(*nlState)
	*s = nlState{ec: ec, cols: p.cols, first: first, outs: s.outs[:0]}
	return s
}

// release puts the state back, keeping only its binding buffer.
func (s *nlState) release() {
	*s = nlState{outs: s.outs}
	nlPool.Put(s)
}

// from appends the bindings of chain from context rank ctx to dst. The poll
// counter runs on from the previous context's.
func (s *nlState) from(ctx int32, chain []cstep, dst []int32) []int32 {
	if s.halted {
		return dst
	}
	s.dst, s.done = dst, false
	s.spine(ctx, chain)
	dst = s.dst
	s.dst = nil
	return dst
}

// stopped counts one candidate (an axis-step match fed through the predicate
// checks) and reports whether the evaluation is over. The execution context
// is polled once every 256 candidates, which bounds the time between polls
// without a channel probe per node; a nil context costs the increment and
// the mask test only.
func (s *nlState) stopped() bool {
	s.tick++
	if s.tick&255 == 0 && s.ec != nil && s.ec.Stopped() {
		s.done, s.halted = true, true
	}
	return s.done
}

// spine matches chain from rank r, appending every complete binding.
func (s *nlState) spine(r int32, chain []cstep) {
	c := &chain[0]
	xdm.EachStepRank(s.cols, r, c.axis, c.test, func(m int32) bool {
		if s.stopped() || !s.preds(m, c.preds) {
			return !s.done
		}
		if c.out {
			s.outs = append(s.outs, m)
		}
		if len(chain) > 1 {
			s.spine(m, chain[1:])
		} else if len(s.outs) > 0 {
			s.dst = append(s.dst, s.outs...)
			s.done = s.first
		}
		if c.out {
			s.outs = s.outs[:len(s.outs)-1]
		}
		return !s.done
	})
}

// preds checks every predicate branch from rank r existentially.
func (s *nlState) preds(r int32, preds [][]cstep) bool {
	for _, pr := range preds {
		if !s.exists(r, pr) {
			return false
		}
	}
	return true
}

// exists reports whether chain has at least one match from rank r, with
// early exit.
func (s *nlState) exists(r int32, chain []cstep) bool {
	c := &chain[0]
	found := false
	xdm.EachStepRank(s.cols, r, c.axis, c.test, func(m int32) bool {
		if s.stopped() {
			return false
		}
		found = s.preds(m, c.preds) && (len(chain) == 1 || s.exists(m, chain[1:]))
		return !found && !s.done
	})
	return found
}
