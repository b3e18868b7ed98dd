// Package funcs implements the core function library shared by the XQuery
// Core reference interpreter and the algebraic plan executor: the special
// functions of the formal semantics (fs:distinct-doc-order), the boolean
// and cardinality functions used by normalization, and the value/string
// functions of the supported fragment.
package funcs

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"xqtp/internal/xdm"
)

// Signature describes one builtin.
type Signature struct {
	Name    string
	MinArgs int
	MaxArgs int
	// ContextArg: with zero arguments the function implicitly applies to
	// the context item (fn:string(), fn:number(), …); normalization
	// supplies it.
	ContextArg bool
	// DupSensitive: the result depends on duplicates/order of node
	// arguments (blocks set-tolerant ddo removal inside the argument).
	DupSensitive bool
}

// Table lists every builtin of the fragment.
var Table = map[string]Signature{
	"ddo":             {Name: "ddo", MinArgs: 1, MaxArgs: 1},
	"count":           {Name: "count", MinArgs: 1, MaxArgs: 1, DupSensitive: true},
	"boolean":         {Name: "boolean", MinArgs: 1, MaxArgs: 1},
	"not":             {Name: "not", MinArgs: 1, MaxArgs: 1},
	"empty":           {Name: "empty", MinArgs: 1, MaxArgs: 1},
	"exists":          {Name: "exists", MinArgs: 1, MaxArgs: 1},
	"root":            {Name: "root", MinArgs: 0, MaxArgs: 1, ContextArg: true, DupSensitive: true},
	"true":            {Name: "true", MinArgs: 0, MaxArgs: 0},
	"false":           {Name: "false", MinArgs: 0, MaxArgs: 0},
	"string":          {Name: "string", MinArgs: 0, MaxArgs: 1, ContextArg: true, DupSensitive: true},
	"data":            {Name: "data", MinArgs: 1, MaxArgs: 1, DupSensitive: true},
	"number":          {Name: "number", MinArgs: 0, MaxArgs: 1, ContextArg: true, DupSensitive: true},
	"concat":          {Name: "concat", MinArgs: 2, MaxArgs: -1, DupSensitive: true},
	"contains":        {Name: "contains", MinArgs: 2, MaxArgs: 2, DupSensitive: true},
	"starts-with":     {Name: "starts-with", MinArgs: 2, MaxArgs: 2, DupSensitive: true},
	"string-length":   {Name: "string-length", MinArgs: 0, MaxArgs: 1, ContextArg: true, DupSensitive: true},
	"normalize-space": {Name: "normalize-space", MinArgs: 0, MaxArgs: 1, ContextArg: true, DupSensitive: true},
	"substring":       {Name: "substring", MinArgs: 2, MaxArgs: 3, DupSensitive: true},
	"name":            {Name: "name", MinArgs: 0, MaxArgs: 1, ContextArg: true, DupSensitive: true},
	"sum":             {Name: "sum", MinArgs: 1, MaxArgs: 1, DupSensitive: true},
	"avg":             {Name: "avg", MinArgs: 1, MaxArgs: 1, DupSensitive: true},
	"min":             {Name: "min", MinArgs: 1, MaxArgs: 1},
	"max":             {Name: "max", MinArgs: 1, MaxArgs: 1},
	// The collection access functions. Their evaluation needs the run's
	// document resolver, so the core interpreter and the physical lowering
	// intercept them (evalCall / opDoc, opCollection); the table entries give
	// them names and arities like any other builtin.
	"doc":        {Name: "doc", MinArgs: 1, MaxArgs: 1},
	"collection": {Name: "collection", MinArgs: 0, MaxArgs: 1},
}

// Lookup resolves a builtin by name.
func Lookup(name string) (Signature, bool) {
	s, ok := Table[name]
	return s, ok
}

// CheckArity validates a call's argument count.
func CheckArity(name string, n int) error {
	sig, ok := Table[name]
	if !ok {
		return fmt.Errorf("unknown function %q", name)
	}
	if n < sig.MinArgs || (sig.MaxArgs >= 0 && n > sig.MaxArgs) {
		return fmt.Errorf("%s() called with %d arguments", name, n)
	}
	return nil
}

// Fn is the compiled form of a builtin: a direct function pointer over
// already-evaluated arguments. The physical plan compiler resolves every
// Call node to its Fn once at lowering time, so invocation performs no name
// dispatch.
type Fn func(args []xdm.Sequence) (xdm.Sequence, error)

// trueSeq and falseSeq are the results of the boolean builtins, shared by
// every call: a builtin's caller only reads its result. The physical opCall
// appends it to a sequence of its own, and the core interpreter writes into
// no sequence it did not build.
var trueSeq, falseSeq = xdm.Sequence{xdm.Bool(true)}, xdm.Sequence{xdm.Bool(false)}

func boolSeq(b bool) xdm.Sequence {
	if b {
		return trueSeq
	}
	return falseSeq
}

// impls binds every builtin of Table to its implementation.
var impls = map[string]Fn{
	"true": func(args []xdm.Sequence) (xdm.Sequence, error) {
		return boolSeq(true), nil
	},
	"false": func(args []xdm.Sequence) (xdm.Sequence, error) {
		return boolSeq(false), nil
	},
	"ddo": func(args []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.DDO(args[0])
	},
	"count": func(args []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.Singleton(xdm.Integer(len(args[0]))), nil
	},
	"boolean": func(args []xdm.Sequence) (xdm.Sequence, error) {
		b, err := xdm.EffectiveBool(args[0])
		if err != nil {
			return nil, err
		}
		return boolSeq(b), nil
	},
	"not": func(args []xdm.Sequence) (xdm.Sequence, error) {
		b, err := xdm.EffectiveBool(args[0])
		if err != nil {
			return nil, err
		}
		return boolSeq(!b), nil
	},
	"empty": func(args []xdm.Sequence) (xdm.Sequence, error) {
		return boolSeq(len(args[0]) == 0), nil
	},
	"exists": func(args []xdm.Sequence) (xdm.Sequence, error) {
		return boolSeq(len(args[0]) > 0), nil
	},
	"root": func(args []xdm.Sequence) (xdm.Sequence, error) {
		return invokeRoot(args[0])
	},
	"string": func(args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := stringValue(args[0])
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.String(s)), nil
	},
	"data": func(args []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.AtomizeSequence(args[0]), nil
	},
	"number": func(args []xdm.Sequence) (xdm.Sequence, error) {
		return invokeNumber(args[0])
	},
	"concat": func(args []xdm.Sequence) (xdm.Sequence, error) {
		var b strings.Builder
		for _, a := range args {
			s, err := stringValue(a)
			if err != nil {
				return nil, err
			}
			b.WriteString(s)
		}
		return xdm.Singleton(xdm.String(b.String())), nil
	},
	"contains": func(args []xdm.Sequence) (xdm.Sequence, error) {
		a, b, err := stringPair(args)
		if err != nil {
			return nil, err
		}
		return boolSeq(strings.Contains(a, b)), nil
	},
	"starts-with": func(args []xdm.Sequence) (xdm.Sequence, error) {
		a, b, err := stringPair(args)
		if err != nil {
			return nil, err
		}
		return boolSeq(strings.HasPrefix(a, b)), nil
	},
	"string-length": func(args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := stringValue(args[0])
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.Integer(len([]rune(s)))), nil
	},
	"normalize-space": func(args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := stringValue(args[0])
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.String(strings.Join(strings.Fields(s), " "))), nil
	},
	"substring": invokeSubstring,
	"name": func(args []xdm.Sequence) (xdm.Sequence, error) {
		return invokeName(args[0])
	},
	"sum": func(args []xdm.Sequence) (xdm.Sequence, error) {
		return invokeAggregate("sum", args[0])
	},
	"avg": func(args []xdm.Sequence) (xdm.Sequence, error) {
		return invokeAggregate("avg", args[0])
	},
	"min": func(args []xdm.Sequence) (xdm.Sequence, error) {
		return invokeAggregate("min", args[0])
	},
	"max": func(args []xdm.Sequence) (xdm.Sequence, error) {
		return invokeAggregate("max", args[0])
	},
	// doc and collection only reach these fallbacks when evaluated without a
	// document resolver in scope (the executors bind them to the run's
	// corpus); the error names the missing piece instead of the function.
	"doc": func(args []xdm.Sequence) (xdm.Sequence, error) {
		return nil, fmt.Errorf("doc(): no document collection bound to this evaluation")
	},
	"collection": func(args []xdm.Sequence) (xdm.Sequence, error) {
		return nil, fmt.Errorf("collection(): no document collection bound to this evaluation")
	},
}

// DocArg extracts the singleton string URI argument of fn:doc (and the
// optional collection-name argument of fn:collection) from an evaluated
// argument sequence.
func DocArg(fn string, arg xdm.Sequence) (string, error) {
	if len(arg) != 1 {
		return "", fmt.Errorf("%s(): URI argument has %d items", fn, len(arg))
	}
	s, ok := arg[0].(xdm.String)
	if !ok {
		return "", fmt.Errorf("%s(): URI argument is %T, not a string", fn, arg[0])
	}
	return string(s), nil
}

// Resolve returns the implementation of a builtin. Arity is the caller's
// responsibility (CheckArity); the returned Fn assumes a valid argument
// count.
func Resolve(name string) (Fn, bool) {
	fn, ok := impls[name]
	return fn, ok
}

// Invoke evaluates a builtin on already-evaluated arguments.
func Invoke(name string, args []xdm.Sequence) (xdm.Sequence, error) {
	fn, ok := impls[name]
	if !ok {
		return nil, fmt.Errorf("unknown function %q", name)
	}
	return fn(args)
}

// stringPair extracts the two singleton string arguments of the binary
// string predicates.
func stringPair(args []xdm.Sequence) (string, string, error) {
	a, err := stringValue(args[0])
	if err != nil {
		return "", "", err
	}
	b, err := stringValue(args[1])
	if err != nil {
		return "", "", err
	}
	return a, b, nil
}

func invokeRoot(arg xdm.Sequence) (xdm.Sequence, error) {
	if len(arg) == 0 {
		return nil, nil
	}
	if len(arg) != 1 {
		return nil, fmt.Errorf("root() requires at most one node, got %d items", len(arg))
	}
	n, ok := arg[0].(*xdm.Node)
	if !ok {
		return nil, fmt.Errorf("root() applied to atomic value")
	}
	return xdm.Singleton(n.Doc.RootNode()), nil
}

// stringValue implements fn:string on a sequence of at most one item.
func stringValue(s xdm.Sequence) (string, error) {
	if len(s) == 0 {
		return "", nil
	}
	if len(s) > 1 {
		return "", fmt.Errorf("string value of a sequence of %d items", len(s))
	}
	switch v := s[0].(type) {
	case *xdm.Node:
		return v.StringValue(), nil
	case xdm.String:
		return string(v), nil
	case xdm.Bool:
		return strconv.FormatBool(bool(v)), nil
	case xdm.Integer:
		return strconv.FormatInt(int64(v), 10), nil
	case xdm.Float:
		return formatFloat(float64(v)), nil
	}
	return "", fmt.Errorf("string value of %T", s[0])
}

func formatFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 && !math.IsInf(f, 0) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func invokeNumber(arg xdm.Sequence) (xdm.Sequence, error) {
	if len(arg) != 1 {
		return xdm.Singleton(xdm.Float(math.NaN())), nil
	}
	switch v := xdm.Atomize(arg[0]).(type) {
	case xdm.Integer:
		return xdm.Singleton(xdm.Float(float64(v))), nil
	case xdm.Float:
		return xdm.Singleton(v), nil
	case xdm.Bool:
		if v {
			return xdm.Singleton(xdm.Float(1)), nil
		}
		return xdm.Singleton(xdm.Float(0)), nil
	case xdm.String:
		f, err := strconv.ParseFloat(strings.TrimSpace(string(v)), 64)
		if err != nil {
			return xdm.Singleton(xdm.Float(math.NaN())), nil
		}
		return xdm.Singleton(xdm.Float(f)), nil
	}
	return xdm.Singleton(xdm.Float(math.NaN())), nil
}

// numArg extracts a required singleton numeric argument.
func numArg(s xdm.Sequence, fn string) (float64, error) {
	if len(s) != 1 {
		return 0, fmt.Errorf("%s(): numeric argument has %d items", fn, len(s))
	}
	if f, ok := xdm.NumericValue(s[0]); ok {
		return f, nil
	}
	return 0, fmt.Errorf("%s(): argument %v is not numeric", fn, s[0])
}

func invokeSubstring(args []xdm.Sequence) (xdm.Sequence, error) {
	s, err := stringValue(args[0])
	if err != nil {
		return nil, err
	}
	start, err := numArg(args[1], "substring")
	if err != nil {
		return nil, err
	}
	runes := []rune(s)
	// XPath substring: 1-based, rounding; simplified to the common case.
	from := int(math.Round(start)) - 1
	to := len(runes)
	if len(args) == 3 {
		length, err := numArg(args[2], "substring")
		if err != nil {
			return nil, err
		}
		to = from + int(math.Round(length))
	}
	if from < 0 {
		from = 0
	}
	if to > len(runes) {
		to = len(runes)
	}
	if from >= len(runes) || to <= from {
		return xdm.Singleton(xdm.String("")), nil
	}
	return xdm.Singleton(xdm.String(string(runes[from:to]))), nil
}

func invokeName(arg xdm.Sequence) (xdm.Sequence, error) {
	if len(arg) == 0 {
		return xdm.Singleton(xdm.String("")), nil
	}
	if len(arg) != 1 {
		return nil, fmt.Errorf("name() requires at most one node")
	}
	n, ok := arg[0].(*xdm.Node)
	if !ok {
		return nil, fmt.Errorf("name() applied to atomic value")
	}
	return xdm.Singleton(xdm.String(n.Name)), nil
}

func invokeAggregate(name string, arg xdm.Sequence) (xdm.Sequence, error) {
	if len(arg) == 0 {
		if name == "sum" {
			return xdm.Singleton(xdm.Integer(0)), nil
		}
		return nil, nil
	}
	nums := make([]float64, len(arg))
	allInt := true
	for i, it := range arg {
		a := xdm.Atomize(it)
		switch v := a.(type) {
		case xdm.Integer:
			nums[i] = float64(v)
		case xdm.Float:
			nums[i] = float64(v)
			allInt = false
		case xdm.String:
			f, err := strconv.ParseFloat(strings.TrimSpace(string(v)), 64)
			if err != nil {
				return nil, fmt.Errorf("%s(): cannot cast %q to a number", name, string(v))
			}
			nums[i] = f
			allInt = false
		default:
			return nil, fmt.Errorf("%s() over non-numeric item %T", name, a)
		}
	}
	out := nums[0]
	for _, f := range nums[1:] {
		switch name {
		case "sum", "avg":
			out += f
		case "min":
			out = math.Min(out, f)
		case "max":
			out = math.Max(out, f)
		}
	}
	if name == "avg" {
		out /= float64(len(nums))
		allInt = false
	}
	if allInt && out == math.Trunc(out) {
		return xdm.Singleton(xdm.Integer(int64(out))), nil
	}
	return xdm.Singleton(xdm.Float(out)), nil
}
