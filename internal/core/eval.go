package core

import (
	"fmt"

	"xqtp/internal/funcs"
	"xqtp/internal/xdm"
)

// Env is an immutable evaluation environment (a linked list of bindings).
type Env struct {
	name   string
	val    xdm.Sequence
	parent *Env
	// docs resolves fn:doc / fn:collection; usually set on the root link by
	// BindDocs and found by walking the chain.
	docs xdm.DocResolver
}

// Bind returns a new environment extending env with name ↦ val.
func (env *Env) Bind(name string, val xdm.Sequence) *Env {
	return &Env{name: name, val: val, parent: env}
}

// BindDocs returns a new environment extending env with a document resolver
// for fn:doc and fn:collection.
func (env *Env) BindDocs(docs xdm.DocResolver) *Env {
	return &Env{parent: env, docs: docs}
}

// resolver returns the innermost document resolver in scope.
func (env *Env) resolver() xdm.DocResolver {
	for e := env; e != nil; e = e.parent {
		if e.docs != nil {
			return e.docs
		}
	}
	return nil
}

// Lookup resolves a variable.
func (env *Env) Lookup(name string) (xdm.Sequence, bool) {
	for e := env; e != nil; e = e.parent {
		if e.name == name {
			return e.val, true
		}
	}
	return nil, false
}

// Eval evaluates a core expression under env with the naive reference
// semantics. It is the oracle that the rewriting and algebraic phases are
// differentially tested against.
func Eval(e Expr, env *Env) (xdm.Sequence, error) {
	switch x := e.(type) {
	case *Var:
		v, ok := env.Lookup(x.Name)
		if !ok {
			return nil, fmt.Errorf("core: unbound variable $%s", x.Name)
		}
		return v, nil
	case *StringLit:
		return xdm.Singleton(xdm.String(x.Value)), nil
	case *NumberLit:
		if x.IsInt {
			return xdm.Singleton(xdm.Integer(int64(x.Value))), nil
		}
		return xdm.Singleton(xdm.Float(x.Value)), nil
	case *EmptySeq:
		return nil, nil
	case *Step:
		return evalStep(x, env)
	case *For:
		return evalFor(x, env)
	case *Let:
		v, err := Eval(x.In, env)
		if err != nil {
			return nil, err
		}
		return Eval(x.Return, env.Bind(x.Var, v))
	case *If:
		c, err := Eval(x.Cond, env)
		if err != nil {
			return nil, err
		}
		b, err := xdm.EffectiveBool(c)
		if err != nil {
			return nil, err
		}
		if b {
			return Eval(x.Then, env)
		}
		return Eval(x.Else, env)
	case *TypeSwitch:
		return evalTypeSwitch(x, env)
	case *Call:
		return evalCall(x, env)
	case *Compare:
		l, err := Eval(x.L, env)
		if err != nil {
			return nil, err
		}
		r, err := Eval(x.R, env)
		if err != nil {
			return nil, err
		}
		b, err := xdm.GeneralCompare(x.Op, l, r)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.Bool(b)), nil
	case *Sequence:
		var out xdm.Sequence
		for _, it := range x.Items {
			v, err := Eval(it, env)
			if err != nil {
				return nil, err
			}
			out = append(out, v...)
		}
		return out, nil
	case *Arith:
		l, err := Eval(x.L, env)
		if err != nil {
			return nil, err
		}
		r, err := Eval(x.R, env)
		if err != nil {
			return nil, err
		}
		return xdm.Arithmetic(x.Op, l, r)
	case *And:
		l, err := evalBool(x.L, env)
		if err != nil {
			return nil, err
		}
		if !l {
			return xdm.Singleton(xdm.Bool(false)), nil
		}
		r, err := evalBool(x.R, env)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.Bool(r)), nil
	case *Or:
		l, err := evalBool(x.L, env)
		if err != nil {
			return nil, err
		}
		if l {
			return xdm.Singleton(xdm.Bool(true)), nil
		}
		r, err := evalBool(x.R, env)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.Bool(r)), nil
	}
	return nil, fmt.Errorf("core: cannot evaluate %T", e)
}

func evalBool(e Expr, env *Env) (bool, error) {
	v, err := Eval(e, env)
	if err != nil {
		return false, err
	}
	return xdm.EffectiveBool(v)
}

// evalStep maps the axis step over the input items, concatenating results
// per item (the input is a singleton context variable in normalized code).
func evalStep(s *Step, env *Env) (xdm.Sequence, error) {
	in, err := Eval(s.Input, env)
	if err != nil {
		return nil, err
	}
	var out xdm.Sequence
	for _, it := range in {
		n, ok := it.(*xdm.Node)
		if !ok {
			return nil, fmt.Errorf("core: axis step applied to atomic value %T", it)
		}
		out = xdm.AppendStep(out, n, s.Axis, s.Test)
	}
	return out, nil
}

func evalFor(f *For, env *Env) (xdm.Sequence, error) {
	in, err := Eval(f.In, env)
	if err != nil {
		return nil, err
	}
	var out xdm.Sequence
	for i, it := range in {
		bodyEnv := env.Bind(f.Var, xdm.Singleton(it))
		if f.Pos != "" {
			bodyEnv = bodyEnv.Bind(f.Pos, xdm.Singleton(xdm.Integer(i+1)))
		}
		if f.Where != nil {
			keep, err := evalBool(f.Where, bodyEnv)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
		}
		v, err := Eval(f.Return, bodyEnv)
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

// evalTypeSwitch matches the dynamic type of the input against each case in
// order; numeric() matches singleton numeric values.
func evalTypeSwitch(ts *TypeSwitch, env *Env) (xdm.Sequence, error) {
	in, err := Eval(ts.Input, env)
	if err != nil {
		return nil, err
	}
	for _, c := range ts.Cases {
		if matchesType(in, c.Type) {
			cEnv := env
			if c.Var != "" {
				cEnv = env.Bind(c.Var, in)
			}
			return Eval(c.Body, cEnv)
		}
	}
	dEnv := env
	if ts.DefVar != "" {
		dEnv = env.Bind(ts.DefVar, in)
	}
	return Eval(ts.Default, dEnv)
}

// matchesType implements the dynamic type test of the typeswitch cases.
func matchesType(s xdm.Sequence, t SeqType) bool {
	switch t {
	case TypeEmpty:
		return len(s) == 0
	case TypeNumeric:
		return len(s) == 1 && xdm.IsNumeric(s[0])
	case TypeBoolean:
		if len(s) != 1 {
			return false
		}
		_, ok := s[0].(xdm.Bool)
		return ok
	case TypeString:
		if len(s) != 1 {
			return false
		}
		_, ok := s[0].(xdm.String)
		return ok
	case TypeNodes:
		for _, it := range s {
			if _, ok := it.(*xdm.Node); !ok {
				return false
			}
		}
		return true
	}
	return true
}

func evalCall(c *Call, env *Env) (xdm.Sequence, error) {
	if err := funcs.CheckArity(c.Name, len(c.Args)); err != nil {
		return nil, fmt.Errorf("core: %v", err)
	}
	args := make([]xdm.Sequence, len(c.Args))
	for i, a := range c.Args {
		v, err := Eval(a, env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	// The collection access functions read the environment's document
	// resolver; everything else is a pure function of its arguments.
	switch c.Name {
	case "doc", "collection":
		if docs := env.resolver(); docs != nil {
			out, err := evalDocAccess(c.Name, args, docs)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			return out, nil
		}
	}
	out, err := funcs.Invoke(c.Name, args)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return out, nil
}

// evalDocAccess evaluates fn:doc / fn:collection against a resolver.
func evalDocAccess(name string, args []xdm.Sequence, docs xdm.DocResolver) (xdm.Sequence, error) {
	if name == "doc" {
		uri, err := funcs.DocArg("doc", args[0])
		if err != nil {
			return nil, err
		}
		n, err := docs.ResolveDoc(uri)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(n), nil
	}
	coll := ""
	if len(args) == 1 {
		c, err := funcs.DocArg("collection", args[0])
		if err != nil {
			return nil, err
		}
		coll = c
	}
	return docs.ResolveCollection(coll)
}
