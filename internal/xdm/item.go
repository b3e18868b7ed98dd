// Package xdm implements the fragment of the XQuery Data Model (XDM) that
// the tree-pattern compiler operates on: documents, element/attribute/text
// nodes with node identity and document order, sequences of items, atomic
// values, effective boolean values, atomization and general comparisons.
//
// Every node carries a region encoding (pre, size) assigned at construction
// time; the staircase and twig join algorithms are built on top of that
// encoding.
package xdm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Item is a single XDM item: either a *Node or an atomic value (String,
// Float, Integer, Bool). A Sequence is an ordered list of items.
type Item interface {
	isItem()
}

// String is an xs:string (also used for untyped atomic values obtained by
// atomizing nodes).
type String string

// Float is an xs:double.
type Float float64

// Integer is an xs:integer.
type Integer int64

// Bool is an xs:boolean.
type Bool bool

func (String) isItem()  {}
func (Float) isItem()   {}
func (Integer) isItem() {}
func (Bool) isItem()    {}
func (*Node) isItem()   {}

// Sequence is an ordered sequence of items, the result type of every
// expression in the language.
type Sequence []Item

// Singleton wraps one item in a sequence.
func Singleton(it Item) Sequence { return Sequence{it} }

// Empty reports whether the sequence has no items.
func (s Sequence) Empty() bool { return len(s) == 0 }

// IsNumeric reports whether the item is an xs:double or xs:integer.
func IsNumeric(it Item) bool {
	switch it.(type) {
	case Float, Integer:
		return true
	}
	return false
}

// NumericValue returns the float64 value of a numeric item.
func NumericValue(it Item) (float64, bool) {
	switch v := it.(type) {
	case Float:
		return float64(v), true
	case Integer:
		return float64(v), true
	}
	return 0, false
}

// Atomize converts an item to its atomic value: nodes become untyped-atomic
// strings (their string value), atomics are returned unchanged.
func Atomize(it Item) Item {
	if n, ok := it.(*Node); ok {
		return String(n.StringValue())
	}
	return it
}

// AtomizeSequence atomizes every item of a sequence.
func AtomizeSequence(s Sequence) Sequence {
	out := make(Sequence, len(s))
	for i, it := range s {
		out[i] = Atomize(it)
	}
	return out
}

// EffectiveBool computes the XPath effective boolean value of a sequence:
// the empty sequence is false; a sequence whose first item is a node is
// true; a singleton boolean, string or number is converted; anything else
// is a type error.
func EffectiveBool(s Sequence) (bool, error) {
	if len(s) == 0 {
		return false, nil
	}
	if _, ok := s[0].(*Node); ok {
		return true, nil
	}
	if len(s) != 1 {
		return false, fmt.Errorf("xdm: effective boolean value of sequence of %d atomic items", len(s))
	}
	switch v := s[0].(type) {
	case Bool:
		return bool(v), nil
	case String:
		return len(v) > 0, nil
	case Float:
		return !math.IsNaN(float64(v)) && v != 0, nil
	case Integer:
		return v != 0, nil
	}
	return false, fmt.Errorf("xdm: effective boolean value of %T", s[0])
}

// CompareOp identifies a general comparison operator.
type CompareOp int

// General comparison operators.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator in XQuery surface syntax.
func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// GeneralCompare implements XPath general comparisons: both operands are
// atomized and the comparison holds if it holds for any pair of atomic
// values (existential semantics).
func GeneralCompare(op CompareOp, lhs, rhs Sequence) (bool, error) {
	// The right operand is atomized once, into a buffer that stays on the
	// stack for the usual short operand; the left one item by item.
	var buf [4]Item
	ra := buf[:0]
	for _, r := range rhs {
		ra = append(ra, Atomize(r))
	}
	for _, l := range lhs {
		la := Atomize(l)
		for _, r := range ra {
			ok, err := compareAtomic(op, la, r)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
	}
	return false, nil
}

// compareAtomic compares two atomic values under the value-comparison rules
// used by general comparisons: untyped values are cast to the type of the
// other operand (numbers win over strings).
func compareAtomic(op CompareOp, l, r Item) (bool, error) {
	// Boolean comparisons.
	if lb, ok := l.(Bool); ok {
		rb, ok := r.(Bool)
		if !ok {
			return false, fmt.Errorf("xdm: cannot compare boolean with %T", r)
		}
		return cmpOrdered(op, b2i(bool(lb)), b2i(bool(rb))), nil
	}
	if _, ok := r.(Bool); ok {
		return false, fmt.Errorf("xdm: cannot compare %T with boolean", l)
	}
	// Numeric comparison if either side is numeric: the other (untyped
	// string) side is cast to a number.
	ln, lIsNum := NumericValue(l)
	rn, rIsNum := NumericValue(r)
	switch {
	case lIsNum && rIsNum:
		return cmpOrdered(op, ln, rn), nil
	case lIsNum:
		rv, err := castNumber(r)
		if err != nil {
			return false, err
		}
		return cmpOrdered(op, ln, rv), nil
	case rIsNum:
		lv, err := castNumber(l)
		if err != nil {
			return false, err
		}
		return cmpOrdered(op, lv, rn), nil
	}
	// String comparison.
	ls, lok := l.(String)
	rs, rok := r.(String)
	if !lok || !rok {
		return false, fmt.Errorf("xdm: cannot compare %T with %T", l, r)
	}
	return cmpOrdered(op, string(ls), string(rs)), nil
}

func castNumber(it Item) (float64, error) {
	s, ok := it.(String)
	if !ok {
		return 0, fmt.Errorf("xdm: cannot cast %T to number", it)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(string(s)), 64)
	if err != nil {
		return 0, fmt.Errorf("xdm: cannot cast %q to number", string(s))
	}
	return v, nil
}

func cmpOrdered[T int | float64 | string](op CompareOp, l, r T) bool {
	switch op {
	case OpEq:
		return l == r
	case OpNe:
		return l != r
	case OpLt:
		return l < r
	case OpLe:
		return l <= r
	case OpGt:
		return l > r
	case OpGe:
		return l >= r
	}
	return false
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ItemString renders an item for display: nodes as their XML serialization
// header, atomics as their lexical value.
func ItemString(it Item) string {
	switch v := it.(type) {
	case *Node:
		return v.String()
	case String:
		return string(v)
	case Float:
		return strconv.FormatFloat(float64(v), 'g', -1, 64)
	case Integer:
		return strconv.FormatInt(int64(v), 10)
	case Bool:
		return strconv.FormatBool(bool(v))
	}
	return fmt.Sprintf("%v", it)
}
