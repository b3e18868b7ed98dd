package xdm

import "fmt"

// Sym is an interned element/attribute name: a small integer assigned per
// tree as the tree is built. Symbol IDs index the per-tag stream tables of the
// store directly, so the join loops never hash name strings — the same
// access-structure trick native XML engines use for their label paths.
type Sym int32

// NoSym marks nodes without a name (document and text nodes) and lookups of
// names absent from the tree.
const NoSym Sym = -1

// Symbols is a tree's symbol table: a bijection between the element and
// attribute names occurring in the document and the dense ID range
// [0, Len()). The table is immutable once built, so concurrent readers need
// no synchronization.
type Symbols struct {
	byName map[string]Sym
	names  []string
	plain  bool // every name is plainName, set by symbolsOf
}

// NewSymbols builds a symbol table over an already-interned name list —
// the snapshot load path, where the dense ID assignment is part of the
// stored format. The slice is retained; duplicate names are rejected (they
// would break the name→ID bijection).
func NewSymbols(names []string) (*Symbols, error) {
	st := symbolsOf(names)
	for i, n := range names {
		if st.byName[n] != Sym(i) {
			return nil, fmt.Errorf("xdm: duplicate symbol name %q", n)
		}
	}
	return st, nil
}

// symbolsOf builds a table over names that are distinct by construction (a
// builder's tree symbols), sizing its map exactly. The slice is retained.
func symbolsOf(names []string) *Symbols {
	st := &Symbols{byName: make(map[string]Sym, len(names)), names: names, plain: true}
	for i, n := range names {
		st.byName[n] = Sym(i)
		st.plain = st.plain && plainName(n)
	}
	return st
}

// plainName reports whether every byte of name is printable ASCII other than
// the quote, the backslash and the three XML specials: a byte that an XML
// tag and a JSON string body both carry as itself.
func plainName(name string) bool {
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case c < 0x20, c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// Plain reports whether every name in the table is plain: printable ASCII
// (0x20-0x7e) other than '"', '\', '<', '>' and '&'. A serializer may then
// copy the names as they are in any of its output modes. It is fixed when
// the table is built.
func (st *Symbols) Plain() bool {
	return st != nil && st.plain
}

// Names returns the interned names indexed by symbol ID. The slice is shared
// and must not be modified.
func (st *Symbols) Names() []string {
	if st == nil {
		return nil
	}
	return st.names
}

// Lookup resolves a name to its symbol. Names that do not occur in the tree
// return (NoSym, false) — for a query name test this means the matching
// stream is empty, no fallback scan needed. A nil table (an unloaded shell
// tree) resolves nothing.
func (st *Symbols) Lookup(name string) (Sym, bool) {
	if st == nil {
		return NoSym, false
	}
	s, ok := st.byName[name]
	if !ok {
		return NoSym, false
	}
	return s, true
}

// Name returns the string for a symbol.
func (st *Symbols) Name(s Sym) string {
	if st == nil || s < 0 || int(s) >= len(st.names) {
		return ""
	}
	return st.names[s]
}

// Len returns the number of distinct interned names.
func (st *Symbols) Len() int {
	if st == nil {
		return 0
	}
	return len(st.names)
}
