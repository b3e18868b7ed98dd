package xdm

import (
	"fmt"
	"hash/maphash"
)

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
// [0, Len()). The name→ID direction is an open-addressing slot index over
// the names (slotIndex): no map, one pointer-free allocation. The table is
// immutable once built, so concurrent readers need no synchronization.
type Symbols struct {
	slots []int32 // slotIndex over names
	names []string
	plain bool // every name is plainName, set by NewSymbols
}

// NewSymbols builds a symbol table over an already-interned name list: the
// builder's tree symbols, or the snapshot load path, where the dense ID
// assignment is part of the stored format. The slice is retained; duplicate
// names are rejected (they would break the name→ID bijection).
func NewSymbols(names []string) (*Symbols, error) {
	slots, dup := slotIndex(names)
	if dup >= 0 {
		return nil, fmt.Errorf("xdm: duplicate symbol name %q", names[dup])
	}
	st := &Symbols{slots: slots, names: names, plain: true}
	for _, n := range names {
		st.plain = st.plain && plainName(n)
	}
	return st, nil
}

// symSeed seeds the name hash of every slot index in the process.
var symSeed = maphash.MakeSeed()

// slotIndex returns an open-addressing index over names: a power-of-two
// table of at least 2×len(names) slots, hashed with maphash and probed
// linearly, where a slot holds a name's position + 1 and 0 marks it empty.
// Half the slots stay empty, so every probe ends. dup is the position of
// the first name that repeats an earlier one (-1 if none); it is left out
// of the index.
func slotIndex(names []string) (slots []int32, dup int) {
	size := 1
	for size < 2*len(names) {
		size <<= 1
	}
	slots, dup = make([]int32, size), -1
	for i, n := range names {
		at, v := probe(slots, names, n)
		if v != 0 {
			if dup < 0 {
				dup = i
			}
			continue
		}
		slots[at] = int32(i + 1)
	}
	return slots, dup
}

// probe finds name in a slot index over names: it returns the slot holding
// name's position + 1 and that value, or the empty slot where name would go
// and 0.
func probe(slots []int32, names []string, name string) (at int, v int32) {
	mask := uint64(len(slots) - 1)
	for i := maphash.String(symSeed, name) & mask; ; i = (i + 1) & mask {
		if v = slots[i]; v == 0 || names[v-1] == name {
			return int(i), v
		}
	}
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
	if _, v := probe(st.slots, st.names, name); v != 0 {
		return Sym(v - 1), true
	}
	return NoSym, false
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
