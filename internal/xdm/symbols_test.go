package xdm

import (
	"fmt"
	"hash/maphash"
	"strings"
	"testing"
)

// lookupAgrees checks Lookup against a map over the table's names, for every
// name and for each of absent.
func lookupAgrees(t *testing.T, st *Symbols, absent []string) {
	t.Helper()
	want := make(map[string]Sym, st.Len())
	for i, n := range st.Names() {
		want[n] = Sym(i)
	}
	for _, n := range append(st.Names()[:st.Len():st.Len()], absent...) {
		w, wok := want[n]
		if !wok {
			w = NoSym
		}
		if got, ok := st.Lookup(n); got != w || ok != wok {
			t.Fatalf("Lookup(%q) = %d, %v; the map says %d, %v", n, got, ok, w, wok)
		}
	}
}

// homeNames returns k names whose hashes put them in slot home of a table
// of size slots.
func homeNames(k, slots, home int) []string {
	var out []string
	for i := 0; len(out) < k; i++ {
		n := fmt.Sprintf("h%d", i)
		if int(maphash.String(symSeed, n)&uint64(slots-1)) == home {
			out = append(out, n)
		}
	}
	return out
}

func TestSymbolsLookupAgreesWithMap(t *testing.T) {
	many := make([]string, 1000)
	for i := range many {
		many[i] = fmt.Sprintf("name%d", i)
	}
	absent := []string{"", "absent", "name1000", "name-1", strings.Repeat("x", 300)}
	for i := 0; i < 1000; i++ {
		absent = append(absent, fmt.Sprintf("other%d", i))
	}
	// A table of 8 names has 16 slots. Four names start at slot 14 and four
	// at 15: their probes collide and wrap around the end of the table.
	colliding := append(homeNames(4, 16, 14), homeNames(4, 16, 15)...)
	for _, tc := range []struct {
		name  string
		names []string
	}{
		{"empty", nil},
		{"one", []string{"a"}},
		{"only the empty name", []string{""}},
		{"the empty name among others", []string{"a", "", "b"}},
		{"colliding", colliding},
		{"thousand", many},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewSymbols(tc.names)
			if err != nil {
				t.Fatal(err)
			}
			if size := len(st.slots); size < 2*len(tc.names) || size&(size-1) != 0 {
				t.Fatalf("%d slots for %d names: want a power of two at least twice that", size, len(tc.names))
			}
			lookupAgrees(t, st, append(absent, homeNames(3, len(st.slots), len(st.slots)-1)...))
		})
	}
}

func TestNewSymbolsRejectsDuplicates(t *testing.T) {
	for _, names := range [][]string{{"a", "a"}, {"a", "b", "c", "b"}, {"", "x", ""}} {
		_, err := NewSymbols(names)
		if err == nil || !strings.Contains(err.Error(), "xdm: duplicate symbol name") {
			t.Errorf("NewSymbols(%q): %v, want the duplicate error", names, err)
		}
	}
}

// A builder's dictionary is rebuilt as it grows; every tree it finishes
// still resolves each of its names, a later tree's too.
func TestBuilderDictionaryGrows(t *testing.T) {
	b := NewTreeBuilder(0)
	for _, n := range []int{1, 3, 700, 1000} {
		b.OpenElement([]byte("root"))
		for i := 0; i < n; i++ {
			b.Attr([]byte(fmt.Sprintf("a%d", i)), "")
		}
		b.CloseElement()
		tr := b.Finish()
		if tr.Syms.Len() != n+1 {
			t.Fatalf("%d attributes: %d symbols", n, tr.Syms.Len())
		}
		lookupAgrees(t, tr.Syms, []string{"", "a-1", fmt.Sprintf("a%d", n)})
		for r := int32(2); r < int32(len(tr.Cols.Sym)); r++ {
			if want := fmt.Sprintf("a%d", r-2); tr.Syms.Name(Sym(tr.Cols.Sym[r])) != want {
				t.Fatalf("rank %d is named %q, want %q", r, tr.Syms.Name(Sym(tr.Cols.Sym[r])), want)
			}
		}
	}
}
