package collection

import (
	"xqtp/internal/join"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// memberPrepCap bounds one member's prepared-join table. serve_corpus's
// whole mix puts at most 8 (pattern, algorithm) pairs on a member; a full
// 256-entry plan cache could put hundreds, and then the oldest goes. A
// per-member bound grows with the corpus by construction, which a
// per-query or per-process count never did.
const memberPrepCap = 32

// prepEntry is one prepared join of a member. Patterns key by pointer: a
// compiled plan's pattern operators each own theirs for the plan's life.
type prepEntry struct {
	pat  *pattern.Pattern
	alg  join.Algorithm
	prep *join.Prepared
}

func findPrep(es *[]prepEntry, alg join.Algorithm, pat *pattern.Pattern) *join.Prepared {
	if es == nil {
		return nil
	}
	for i := range *es {
		if e := &(*es)[i]; e.pat == pat && e.alg == alg {
			return e.prep
		}
	}
	return nil
}

// Prepared implements physical.PrepSource on the member: the join prepared
// for (pat, alg) against this member's index, prepared on first use and
// kept in the member's table — so it is freed with the member, and shared by
// every corpus snapshot that shares the member. A hit is a linear scan of an
// immutable slice behind one atomic load: no lock, no allocation. A miss
// prepares outside any lock and publishes a copy of the table with the
// entry appended (dropping the oldest at the cap); when two goroutines miss
// on the same key the first store wins for both.
//
// An index other than the member's own is prepared and returned, never
// stored: the table is keyed by pattern alone.
func (d *Doc) Prepared(alg join.Algorithm, ix *xmlstore.Index, pat *pattern.Pattern) (*join.Prepared, error) {
	if ix != d.Index {
		return join.Prepare(alg, ix, pat)
	}
	if p := findPrep(d.preps.Load(), alg, pat); p != nil {
		d.prepHits.Add(1)
		return p, nil
	}
	d.prepMisses.Add(1)
	p, err := join.Prepare(alg, ix, pat)
	if err != nil {
		return nil, err
	}
	for {
		old := d.preps.Load()
		if won := findPrep(old, alg, pat); won != nil {
			return won, nil
		}
		var keep []prepEntry
		if old != nil {
			keep = *old
		}
		evict := len(keep) >= memberPrepCap
		if evict {
			keep = keep[1:]
		}
		next := make([]prepEntry, len(keep)+1)
		copy(next, keep)
		next[len(keep)] = prepEntry{pat: pat, alg: alg, prep: p}
		if d.preps.CompareAndSwap(old, &next) {
			if evict {
				d.prepEvictions.Add(1)
			}
			return p, nil
		}
	}
}

// PreparedFor is Prepared for the member's own tree, found without a catalog
// lookup; owned is false for any other tree.
func (d *Doc) PreparedFor(alg join.Algorithm, t *xdm.Tree, pat *pattern.Pattern) (p *join.Prepared, owned bool, err error) {
	if t != d.Index.Tree {
		return nil, false, nil
	}
	p, err = d.Prepared(alg, d.Index, pat)
	return p, true, err
}

// memberSymCap bounds a member's list of resolved names. serve_corpus's
// batched steps resolve one name per member; past the bound a name is looked
// up in the tree's symbol table each time.
const memberSymCap = 16

// nameSym is a name a step resolved against the member, and its symbol: an
// immutable list, newest first, that an insert extends at its head.
type nameSym struct {
	name string
	sym  xdm.Sym
	next *nameSym
}

// SymFor resolves a name to its symbol in the member's own tree (xdm.NoSym
// when the tree lacks it), for a step that runs over the member on every run
// of a plan (a batched TreeJoin): from the member's list of resolved names,
// which a string compare searches — a pointer compare for the plan's own name
// string — or else from the tree's symbol table, adding the name to the list
// as the prepared-join table adds a join. The list's cache lines are the
// member's, which the run has just read, where the tree's symbol map is cold.
// owned is false for any other tree.
func (d *Doc) SymFor(t *xdm.Tree, name string) (s xdm.Sym, owned bool) {
	if t != d.Index.Tree {
		return xdm.NoSym, false
	}
	head := d.syms.Load()
	n := 0
	for e := head; e != nil; e = e.next {
		if e.name == name {
			return e.sym, true
		}
		n++
	}
	s, _ = t.Syms.Lookup(name)
	if n < memberSymCap {
		// A lost race drops this entry only: a later run adds it again.
		d.syms.CompareAndSwap(head, &nameSym{name: name, sym: s, next: head})
	}
	return s, true
}

// SymFor is Doc.SymFor for the tree of a member, found by one map lookup on
// the tree; owned is false for a tree of no member.
func (c *Corpus) SymFor(t *xdm.Tree, name string) (xdm.Sym, bool) {
	i, ok := c.byTree[t]
	if !ok {
		return xdm.NoSym, false
	}
	return c.docs[i].SymFor(t, name)
}

// PreparedFor is Prepared for the tree of a member, found by one map lookup
// on the tree; owned is false for a tree of no member.
func (c *Corpus) PreparedFor(alg join.Algorithm, t *xdm.Tree, pat *pattern.Pattern) (p *join.Prepared, owned bool, err error) {
	i, ok := c.byTree[t]
	if !ok {
		return nil, false, nil
	}
	d := c.docs[i]
	p, err = d.Prepared(alg, d.Index, pat)
	return p, true, err
}

// Prepared implements physical.PrepSource on the corpus, for runs that reach
// several members at once (fn:doc, fn:collection, explicitly bound nodes):
// the join lives on the member that holds the index's tree. An index of no
// member is prepared and returned, never stored.
func (c *Corpus) Prepared(alg join.Algorithm, ix *xmlstore.Index, pat *pattern.Pattern) (*join.Prepared, error) {
	if i, ok := c.byTree[ix.Tree]; ok {
		return c.docs[i].Prepared(alg, ix, pat)
	}
	return join.Prepare(alg, ix, pat)
}

// PrepStats is a snapshot of the prepared joins held by corpus members.
type PrepStats struct {
	Size      int    // prepared joins currently held
	Capacity  int    // members × the per-member bound
	Hits      uint64 // lookups served from a member's table
	Misses    uint64 // lookups that prepared
	Evictions uint64 // entries dropped at the per-member bound
}

// PrepStats sums the members' prepared-join tables and counters. Members
// are shared across Extend, so the counters of a grown corpus continue its
// parent's.
func (c *Corpus) PrepStats() PrepStats {
	st := PrepStats{Capacity: len(c.docs) * memberPrepCap}
	for _, d := range c.docs {
		if es := d.preps.Load(); es != nil {
			st.Size += len(*es)
		}
		st.Hits += d.prepHits.Load()
		st.Misses += d.prepMisses.Load()
		st.Evictions += d.prepEvictions.Load()
	}
	return st
}
