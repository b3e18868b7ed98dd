package collection

import (
	"slices"

	"xqtp/internal/xdm"
)

// NameTable is the corpus-level name index: for every tag or attribute name
// interned by any member, the per-document symbol IDs it resolved to. It
// answers two questions in O(1) per document: "what is this query name's
// symbol in document i" (so per-document plan preparation skips the string
// hash), and "does document i contain this name at all" (so the fan-out
// executor can skip documents that cannot match a conjunctive pattern).
//
// The table is held as the snapshot stores it: the sorted names and one
// row-major cell array, name i's symbol in member m at cells[i*ndocs+m]
// (xdm.NoSym where the member never interned the name). A corpus opened from
// a snapshot installs both as read; only the name → row map is built.
type NameTable struct {
	names []string
	row   map[string]int
	cells []xdm.Sym
	ndocs int
}

// newNameTable wraps a table in its stored form: sorted names and their
// row-major cells.
func newNameTable(names []string, cells []xdm.Sym, ndocs int) *NameTable {
	nt := &NameTable{names: names, row: make(map[string]int, len(names)), cells: cells, ndocs: ndocs}
	for i, name := range names {
		nt.row[name] = i
	}
	return nt
}

// extend builds the table for a corpus of nt's members followed by added;
// the zero table extended by a corpus's members is that corpus's table. The
// rows stay sorted by name, so the saved bytes do not depend on how the
// corpus grew. Only the added members' symbol tables are walked, which keeps
// Corpus.Extend linear in the growth instead of rebuilding the table over
// every member each time.
func (nt *NameTable) extend(added []*Doc) *NameTable {
	row := make(map[string]int, len(nt.names))
	for _, name := range nt.names {
		row[name] = 0
	}
	for _, d := range added {
		syms := d.Tree().Syms
		for s := 0; s < syms.Len(); s++ {
			row[syms.Name(xdm.Sym(s))] = 0
		}
	}
	names := make([]string, 0, len(row))
	for name := range row {
		names = append(names, name)
	}
	slices.Sort(names)
	for i, name := range names {
		row[name] = i
	}
	ndocs := nt.ndocs + len(added)
	out := &NameTable{names: names, row: row, cells: make([]xdm.Sym, len(names)*ndocs), ndocs: ndocs}
	for i := range out.cells {
		out.cells[i] = xdm.NoSym
	}
	for i, name := range nt.names {
		copy(out.cells[row[name]*ndocs:], nt.cells[i*nt.ndocs:(i+1)*nt.ndocs])
	}
	for i, d := range added {
		syms := d.Tree().Syms
		for s := 0; s < syms.Len(); s++ {
			out.cells[row[syms.Name(xdm.Sym(s))]*ndocs+nt.ndocs+i] = xdm.Sym(s)
		}
	}
	return out
}

// Sym resolves a name to document doc's symbol ID (xdm.NoSym when the
// document never interned the name).
func (nt *NameTable) Sym(name string, doc int) xdm.Sym {
	col := nt.SymColumn(name)
	if doc < 0 || doc >= len(col) {
		return xdm.NoSym
	}
	return col[doc]
}

// Has reports whether document doc interned the name (as an element tag or
// attribute name).
func (nt *NameTable) Has(name string, doc int) bool {
	return nt.Sym(name, doc) != xdm.NoSym
}

// HasAll reports whether document doc interned every given name. A document
// missing any name of a conjunctive tree pattern cannot produce a binding,
// which is what makes HasAll a sound skip test for the fan-out executor.
func (nt *NameTable) HasAll(doc int, names []string) bool {
	for _, n := range names {
		if !nt.Has(n, doc) {
			return false
		}
	}
	return true
}

// SymColumn returns the per-member symbol column for a name, indexed by
// corpus position (nil when no member interned the name; xdm.NoSym entries
// mark members that didn't). The count-based skip test hoists this lookup
// out of its per-member loop. The column is the name's row of the table:
// callers must not modify it.
func (nt *NameTable) SymColumn(name string) []xdm.Sym {
	i, ok := nt.row[name]
	if !ok {
		return nil
	}
	return nt.cells[i*nt.ndocs : (i+1)*nt.ndocs : (i+1)*nt.ndocs]
}

// DocsWith counts the members that interned the name.
func (nt *NameTable) DocsWith(name string) int {
	n := 0
	for _, s := range nt.SymColumn(name) {
		if s != xdm.NoSym {
			n++
		}
	}
	return n
}

// Names returns every name in the table, sorted.
func (nt *NameTable) Names() []string { return slices.Clone(nt.names) }

// Len returns the number of distinct names across the corpus.
func (nt *NameTable) Len() int { return len(nt.names) }
