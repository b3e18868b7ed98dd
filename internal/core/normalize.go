package core

import (
	"fmt"
	"strconv"

	"xqtp/internal/ast"
	"xqtp/internal/funcs"
	"xqtp/internal/xdm"
)

// Normalizer lowers surface syntax into the XQuery Core, generating
// globally unique variable names (dot_N, seq_N, pos_N, last_N, v_N).
type Normalizer struct {
	counter int
}

// nctx carries the names of the context bindings in scope: the context item
// ($dot), the context position ($position) and the context size ($last).
type nctx struct {
	dot, pos, last string
}

// Normalize lowers a surface expression to the core. contextVar, if
// non-empty, names the variable holding the initial context item (what "."
// and absolute paths resolve against).
func Normalize(e ast.Expr, contextVar string) (Expr, error) {
	n := &Normalizer{}
	return n.norm(e, nctx{dot: contextVar})
}

func (n *Normalizer) fresh(stem string) string {
	n.counter++
	return stem + "_" + strconv.Itoa(n.counter)
}

func (n *Normalizer) norm(e ast.Expr, ctx nctx) (Expr, error) {
	switch x := e.(type) {
	case *ast.VarRef:
		return &Var{Name: x.Name}, nil
	case *ast.StringLit:
		return &StringLit{Value: x.Value}, nil
	case *ast.NumberLit:
		return &NumberLit{Value: x.Value, IsInt: x.IsInt}, nil
	case *ast.EmptySeq:
		return &EmptySeq{}, nil
	case *ast.ContextItem:
		if ctx.dot == "" {
			return nil, fmt.Errorf("core: '.' used without a context item")
		}
		return &Var{Name: ctx.dot}, nil
	case *ast.Root:
		if ctx.dot == "" {
			return nil, fmt.Errorf("core: absolute path used without a context item")
		}
		return &Call{Name: "root", Args: []Expr{&Var{Name: ctx.dot}}}, nil
	case *ast.Step:
		if ctx.dot == "" {
			return nil, fmt.Errorf("core: axis step used without a context item")
		}
		base := Expr(&Step{Input: &Var{Name: ctx.dot}, Axis: x.Axis, Test: x.Test})
		return n.normPreds(base, x.Preds, ctx)
	case *ast.Filter:
		base, err := n.norm(x.Primary, ctx)
		if err != nil {
			return nil, err
		}
		return n.normPreds(base, x.Preds, ctx)
	case *ast.Path:
		return n.normPath(x, ctx)
	case *ast.FLWOR:
		return n.normFLWOR(x, ctx)
	case *ast.Compare:
		l, err := n.norm(x.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := n.norm(x.R, ctx)
		if err != nil {
			return nil, err
		}
		return &Compare{Op: x.Op, L: l, R: r}, nil
	case *ast.And:
		l, err := n.norm(x.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := n.norm(x.R, ctx)
		if err != nil {
			return nil, err
		}
		return &And{L: l, R: r}, nil
	case *ast.Or:
		l, err := n.norm(x.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := n.norm(x.R, ctx)
		if err != nil {
			return nil, err
		}
		return &Or{L: l, R: r}, nil
	case *ast.Call:
		return n.normCall(x, ctx)
	case *ast.SeqExpr:
		out := &Sequence{Items: make([]Expr, len(x.Items))}
		for i, it := range x.Items {
			ni, err := n.norm(it, ctx)
			if err != nil {
				return nil, err
			}
			out.Items[i] = ni
		}
		return out, nil
	case *ast.Arith:
		l, err := n.norm(x.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := n.norm(x.R, ctx)
		if err != nil {
			return nil, err
		}
		return &Arith{Op: x.Op, L: l, R: r}, nil
	case *ast.Neg:
		// -E normalizes to 0 - E.
		operand, err := n.norm(x.X, ctx)
		if err != nil {
			return nil, err
		}
		return &Arith{Op: xdm.OpSub, L: &NumberLit{Value: 0, IsInt: true}, R: operand}, nil
	case *ast.IfExpr:
		cond, err := n.norm(x.Cond, ctx)
		if err != nil {
			return nil, err
		}
		then, err := n.norm(x.Then, ctx)
		if err != nil {
			return nil, err
		}
		els, err := n.norm(x.Else, ctx)
		if err != nil {
			return nil, err
		}
		return &If{Cond: cond, Then: then, Else: els}, nil
	case *ast.Union:
		// E1 | E2 has distinct-document-order semantics over the combined
		// node sequences.
		l, err := n.norm(x.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := n.norm(x.R, ctx)
		if err != nil {
			return nil, err
		}
		return ddo(&Sequence{Items: []Expr{l, r}}), nil
	case *ast.Quantified:
		return n.normQuantified(x, ctx)
	}
	return nil, fmt.Errorf("core: cannot normalize %T", e)
}

// normQuantified lowers quantified expressions:
//
//	some  $x in E satisfies C  ⇒  fn:exists(for $x in E where C return $x)
//	every $x in E satisfies C  ⇒  fn:empty(for $x in E where fn:not(C) return $x)
func (n *Normalizer) normQuantified(q *ast.Quantified, ctx nctx) (Expr, error) {
	cond, err := n.norm(q.Satisfies, ctx)
	if err != nil {
		return nil, err
	}
	if q.Every {
		cond = &Call{Name: "not", Args: []Expr{cond}}
	}
	// Innermost body: the last binding's variable (any non-empty witness).
	last := q.Bindings[len(q.Bindings)-1]
	body := Expr(&For{
		Var:    last.Var,
		Where:  cond,
		Return: &Var{Name: last.Var},
	})
	in, err := n.norm(last.In, ctx)
	if err != nil {
		return nil, err
	}
	body.(*For).In = in
	for i := len(q.Bindings) - 2; i >= 0; i-- {
		b := q.Bindings[i]
		in, err := n.norm(b.In, ctx)
		if err != nil {
			return nil, err
		}
		body = &For{Var: b.Var, In: in, Return: body}
	}
	if q.Every {
		return &Call{Name: "empty", Args: []Expr{body}}, nil
	}
	return &Call{Name: "exists", Args: []Expr{body}}, nil
}

// normPath implements the normalization of E1/E2 (paper §2, Q1a-n lines
// 1-2, 18-20):
//
//	ddo( let $seq := ddo([E1]),
//	     let $last := fn:count($seq)
//	     for $dot at $position in $seq
//	     return [E2] )
func (n *Normalizer) normPath(p *ast.Path, ctx nctx) (Expr, error) {
	left, err := n.norm(p.Left, ctx)
	if err != nil {
		return nil, err
	}
	seq := n.fresh("seq")
	last := n.fresh("last")
	dot := n.fresh("dot")
	pos := n.fresh("pos")
	right, err := n.norm(p.Right, nctx{dot: dot, pos: pos, last: last})
	if err != nil {
		return nil, err
	}
	return ddo(&Let{
		Var: seq,
		In:  ddo(left),
		Return: &Let{
			Var: last,
			In:  &Call{Name: "count", Args: []Expr{&Var{Name: seq}}},
			Return: &For{
				Var:    dot,
				Pos:    pos,
				In:     &Var{Name: seq},
				Return: right,
			},
		},
	}), nil
}

// normPreds implements the normalization of E[P] (paper §2, Q1a-n lines
// 3, 8-17):
//
//	let $seq := ddo([E]),
//	let $last := fn:count($seq)
//	for $dot at $position in $seq
//	where typeswitch ([P])
//	      case $v as numeric() return $position = $v
//	      default $v' return fn:boolean($v')
//	return $dot
func (n *Normalizer) normPreds(base Expr, preds []ast.Expr, _ nctx) (Expr, error) {
	for _, p := range preds {
		seq := n.fresh("seq")
		last := n.fresh("last")
		dot := n.fresh("dot")
		pos := n.fresh("pos")
		pn, err := n.norm(p, nctx{dot: dot, pos: pos, last: last})
		if err != nil {
			return nil, err
		}
		vNum := n.fresh("v")
		vDef := n.fresh("v")
		ts := &TypeSwitch{
			Input: pn,
			Cases: []TSCase{{
				Type: TypeNumeric,
				Var:  vNum,
				Body: &Compare{Op: xdm.OpEq, L: &Var{Name: pos}, R: &Var{Name: vNum}},
			}},
			DefVar:  vDef,
			Default: &Call{Name: "boolean", Args: []Expr{&Var{Name: vDef}}},
		}
		base = &Let{
			Var: seq,
			In:  ddo(base),
			Return: &Let{
				Var: last,
				In:  &Call{Name: "count", Args: []Expr{&Var{Name: seq}}},
				Return: &For{
					Var:    dot,
					Pos:    pos,
					In:     &Var{Name: seq},
					Where:  ts,
					Return: &Var{Name: dot},
				},
			},
		}
	}
	return base, nil
}

// normFLWOR lowers a surface FLWOR. The where condition applies after all
// clauses: it becomes the Where of the last clause when that clause is a
// for, and an if-then-else around the return otherwise.
func (n *Normalizer) normFLWOR(f *ast.FLWOR, ctx nctx) (Expr, error) {
	body, err := n.norm(f.Return, ctx)
	if err != nil {
		return nil, err
	}
	var cond Expr
	if f.Where != nil {
		cond, err = n.norm(f.Where, ctx)
		if err != nil {
			return nil, err
		}
	}
	if cond != nil {
		if last := f.Clauses[len(f.Clauses)-1]; last.Kind != ast.ForClause {
			body = &If{Cond: cond, Then: body, Else: &EmptySeq{}}
			cond = nil
		}
	}
	for i := len(f.Clauses) - 1; i >= 0; i-- {
		cl := f.Clauses[i]
		in, err := n.norm(cl.Expr, ctx)
		if err != nil {
			return nil, err
		}
		switch cl.Kind {
		case ast.ForClause:
			fe := &For{Var: cl.Var, Pos: cl.At, In: in, Return: body}
			if i == len(f.Clauses)-1 && cond != nil {
				fe.Where = cond
			}
			body = fe
		case ast.LetClause:
			body = &Let{Var: cl.Var, In: in, Return: body}
		}
	}
	return body, nil
}

func (n *Normalizer) normCall(c *ast.Call, ctx nctx) (Expr, error) {
	switch c.Name {
	case "position":
		if len(c.Args) != 0 {
			return nil, fmt.Errorf("core: position() takes no arguments")
		}
		if ctx.pos == "" {
			return nil, fmt.Errorf("core: position() used outside a predicate")
		}
		return &Var{Name: ctx.pos}, nil
	case "last":
		if len(c.Args) != 0 {
			return nil, fmt.Errorf("core: last() takes no arguments")
		}
		if ctx.last == "" {
			return nil, fmt.Errorf("core: last() used outside a predicate")
		}
		return &Var{Name: ctx.last}, nil
	}
	sig, ok := funcs.Lookup(c.Name)
	if !ok {
		return nil, fmt.Errorf("core: unknown function %q", c.Name)
	}
	args := make([]Expr, 0, len(c.Args))
	for _, a := range c.Args {
		na, err := n.norm(a, ctx)
		if err != nil {
			return nil, err
		}
		args = append(args, na)
	}
	// Zero-argument context functions implicitly apply to the context item
	// (fn:string(), fn:number(), …).
	if len(args) == 0 && sig.ContextArg {
		if ctx.dot == "" {
			return nil, fmt.Errorf("core: %s() used without a context item", c.Name)
		}
		args = append(args, &Var{Name: ctx.dot})
	}
	if err := funcs.CheckArity(c.Name, len(args)); err != nil {
		return nil, fmt.Errorf("core: %v", err)
	}
	return &Call{Name: c.Name, Args: args}, nil
}

// ddo wraps an expression in a call to fs:distinct-doc-order, flattening
// directly nested calls.
func ddo(e Expr) Expr {
	if c, ok := e.(*Call); ok && c.Name == "ddo" {
		return c
	}
	return &Call{Name: "ddo", Args: []Expr{e}}
}
