package xdm

import (
	"testing"
)

func TestArithmeticBasics(t *testing.T) {
	cases := []struct {
		op   ArithOp
		l, r Item
		want Item
	}{
		{OpAdd, Integer(2), Integer(3), Integer(5)},
		{OpSub, Integer(2), Integer(5), Integer(-3)},
		{OpMul, Integer(4), Integer(3), Integer(12)},
		{OpAdd, Integer(2), Float(0.5), Float(2.5)},
		{OpDiv, Integer(7), Integer(2), Float(3.5)},
		{OpIDiv, Integer(7), Integer(2), Integer(3)},
		{OpMod, Integer(7), Integer(2), Integer(1)},
		{OpMod, Float(7.5), Integer(2), Float(1.5)},
		{OpAdd, String("2"), Integer(1), Float(3)},
	}
	for _, tc := range cases {
		got, err := Arithmetic(tc.op, Singleton(tc.l), Singleton(tc.r))
		if err != nil {
			t.Fatalf("%v %s %v: %v", tc.l, tc.op, tc.r, err)
		}
		if len(got) != 1 || got[0] != tc.want {
			t.Errorf("%v %s %v = %v, want %v", tc.l, tc.op, tc.r, got, tc.want)
		}
	}
}

func TestArithmeticEmptyAndErrors(t *testing.T) {
	// Empty operand propagates.
	if got, err := Arithmetic(OpAdd, nil, Singleton(Integer(1))); err != nil || len(got) != 0 {
		t.Errorf("() + 1 = %v, %v", got, err)
	}
	if got, err := Arithmetic(OpMul, Singleton(Integer(1)), nil); err != nil || len(got) != 0 {
		t.Errorf("1 * () = %v, %v", got, err)
	}
	// Multi-item operands are type errors.
	if _, err := Arithmetic(OpAdd, Sequence{Integer(1), Integer(2)}, Singleton(Integer(1))); err == nil {
		t.Error("2-item operand should fail")
	}
	// Non-numeric strings are cast errors.
	if _, err := Arithmetic(OpAdd, Singleton(String("x")), Singleton(Integer(1))); err == nil {
		t.Error("string cast should fail")
	}
	// Booleans cannot be operands.
	if _, err := Arithmetic(OpAdd, Singleton(Bool(true)), Singleton(Integer(1))); err == nil {
		t.Error("boolean operand should fail")
	}
	// Division by zero.
	if _, err := Arithmetic(OpDiv, Singleton(Integer(1)), Singleton(Integer(0))); err == nil {
		t.Error("integer div by zero should fail")
	}
	if _, err := Arithmetic(OpIDiv, Singleton(Integer(1)), Singleton(Integer(0))); err == nil {
		t.Error("idiv by zero should fail")
	}
	if _, err := Arithmetic(OpMod, Singleton(Integer(1)), Singleton(Integer(0))); err == nil {
		t.Error("mod by zero should fail")
	}
	// Float division by zero is IEEE infinity, not an error.
	got, err := Arithmetic(OpDiv, Singleton(Float(1)), Singleton(Integer(0)))
	if err != nil || len(got) != 1 {
		t.Errorf("1e0 div 0 = %v, %v", got, err)
	}
}

func TestArithmeticAtomizesNodes(t *testing.T) {
	b := NewTreeBuilder(0)
	b.OpenElement([]byte("price"))
	b.Text("10")
	b.CloseElement()
	n := b.Finish().DocElem()
	got, err := Arithmetic(OpMul, Singleton(n), Singleton(Integer(2)))
	if err != nil || len(got) != 1 || got[0] != Float(20) {
		t.Errorf("node * 2 = %v, %v", got, err)
	}
}
