package parser

import (
	"fmt"
	"strconv"
	"strings"

	"xqtp/internal/ast"
	"xqtp/internal/xdm"
)

// Parse parses an XQuery expression in the supported subset.
func Parse(src string) (ast.Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, p.errorf("unexpected %s after expression", p.cur().kind)
	}
	return e, nil
}

// MustParse parses src and panics on error; for tests and fixed query sets.
func MustParse(src string) ast.Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }
func (p *parser) advance()    { p.pos++ }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("parser: %s (at offset %d)", fmt.Sprintf(format, args...), p.cur().pos)
}

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.cur()
	if t.kind != k {
		return t, p.errorf("expected %s, found %s %q", k, t.kind, t.text)
	}
	p.advance()
	return t, nil
}

// parseExpr := FLWOR | IfExpr | QuantifiedExpr | OrExpr
func (p *parser) parseExpr() (ast.Expr, error) {
	if p.cur().kind == tokName {
		switch p.cur().text {
		case "for", "let":
			// Only a FLWOR keyword if followed by a variable.
			if p.peek().kind == tokVar {
				return p.parseFLWOR()
			}
		case "if":
			if p.peek().kind == tokLParen {
				return p.parseIf()
			}
		case "some", "every":
			if p.peek().kind == tokVar {
				return p.parseQuantified()
			}
		}
	}
	return p.parseOr()
}

// parseIf := "if" "(" Expr ")" "then" Expr "else" Expr
func (p *parser) parseIf() (ast.Expr, error) {
	p.advance() // if
	p.advance() // (
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if p.cur().kind != tokName || p.cur().text != "then" {
		return nil, p.errorf("expected 'then'")
	}
	p.advance()
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokName || p.cur().text != "else" {
		return nil, p.errorf("expected 'else'")
	}
	p.advance()
	els, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ast.IfExpr{Cond: cond, Then: then, Else: els}, nil
}

// parseQuantified := ("some"|"every") "$"x "in" Expr ("," "$"y "in" Expr)* "satisfies" Expr
func (p *parser) parseQuantified() (ast.Expr, error) {
	every := p.cur().text == "every"
	p.advance()
	q := &ast.Quantified{Every: every}
	for {
		v, err := p.expect(tokVar)
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tokName || p.cur().text != "in" {
			return nil, p.errorf("expected 'in' in quantified expression")
		}
		p.advance()
		in, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Bindings = append(q.Bindings, ast.QBinding{Var: v.text, In: in})
		if p.cur().kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	if p.cur().kind != tokName || p.cur().text != "satisfies" {
		return nil, p.errorf("expected 'satisfies'")
	}
	p.advance()
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	q.Satisfies = cond
	return q, nil
}

func (p *parser) parseFLWOR() (ast.Expr, error) {
	f := &ast.FLWOR{}
	for {
		kw := p.cur()
		if kw.kind != tokName || (kw.text != "for" && kw.text != "let") {
			break
		}
		p.advance()
		kind := ast.ForClause
		if kw.text == "let" {
			kind = ast.LetClause
		}
		for {
			v, err := p.expect(tokVar)
			if err != nil {
				return nil, err
			}
			cl := ast.Clause{Kind: kind, Var: v.text}
			if kind == ast.ForClause {
				if p.cur().kind == tokName && p.cur().text == "at" {
					p.advance()
					av, err := p.expect(tokVar)
					if err != nil {
						return nil, err
					}
					cl.At = av.text
				}
				if p.cur().kind != tokName || p.cur().text != "in" {
					return nil, p.errorf("expected 'in' in for clause")
				}
				p.advance()
			} else {
				if _, err := p.expect(tokAssign); err != nil {
					return nil, err
				}
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			cl.Expr = e
			f.Clauses = append(f.Clauses, cl)
			if p.cur().kind == tokComma {
				p.advance()
				continue
			}
			break
		}
	}
	if len(f.Clauses) == 0 {
		return nil, p.errorf("FLWOR without clauses")
	}
	if p.cur().kind == tokName && p.cur().text == "where" {
		p.advance()
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Where = w
	}
	if p.cur().kind != tokName || p.cur().text != "return" {
		return nil, p.errorf("expected 'return', found %q", p.cur().text)
	}
	p.advance()
	r, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	f.Return = r
	return f, nil
}

func (p *parser) parseOr() (ast.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokName && p.cur().text == "or" {
		p.advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &ast.Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (ast.Expr, error) {
	l, err := p.parseCompare()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokName && p.cur().text == "and" {
		p.advance()
		r, err := p.parseCompare()
		if err != nil {
			return nil, err
		}
		l = &ast.And{L: l, R: r}
	}
	return l, nil
}

var cmpOps = map[tokenKind]xdm.CompareOp{
	tokEq: xdm.OpEq, tokNe: xdm.OpNe, tokLt: xdm.OpLt,
	tokLe: xdm.OpLe, tokGt: xdm.OpGt, tokGe: xdm.OpGe,
}

func (p *parser) parseCompare() (ast.Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if op, ok := cmpOps[p.cur().kind]; ok {
		p.advance()
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &ast.Compare{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (ast.Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op xdm.ArithOp
		switch p.cur().kind {
		case tokPlus:
			op = xdm.OpAdd
		case tokMinus:
			op = xdm.OpSub
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &ast.Arith{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (ast.Expr, error) {
	l, err := p.parseUnionExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op xdm.ArithOp
		switch {
		case p.cur().kind == tokStar:
			op = xdm.OpMul
		case p.cur().kind == tokName && p.cur().text == "div":
			op = xdm.OpDiv
		case p.cur().kind == tokName && p.cur().text == "idiv":
			op = xdm.OpIDiv
		case p.cur().kind == tokName && p.cur().text == "mod":
			op = xdm.OpMod
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parseUnionExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.Arith{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnionExpr() (ast.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPipe || (p.cur().kind == tokName && p.cur().text == "union") {
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &ast.Union{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (ast.Expr, error) {
	switch p.cur().kind {
	case tokMinus:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.Neg{X: x}, nil
	case tokPlus:
		// Unary plus: 0 + E (enforces a numeric operand, like XPath).
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.Arith{Op: xdm.OpAdd, L: &ast.NumberLit{Value: 0, IsInt: true}, R: x}, nil
	}
	return p.parsePath()
}

// parsePath := ("/" RelStep?) | ("//" RelStep) | RelStep, then ("/"|"//") RelStep ...
func (p *parser) parsePath() (ast.Expr, error) {
	var left ast.Expr
	switch p.cur().kind {
	case tokSlash:
		p.advance()
		left = &ast.Root{}
		if !p.startsStepOrPrimary() {
			return left, nil
		}
		right, err := p.parseStepOrPrimary()
		if err != nil {
			return nil, err
		}
		left = &ast.Path{Left: left, Right: right}
	case tokSlashSlash:
		p.advance()
		right, err := p.parseStepOrPrimary()
		if err != nil {
			return nil, err
		}
		left = p.descend(&ast.Root{}, right)
	default:
		var err error
		left, err = p.parseStepOrPrimary()
		if err != nil {
			return nil, err
		}
	}
	for {
		switch p.cur().kind {
		case tokSlash:
			p.advance()
			right, err := p.parseStepOrPrimary()
			if err != nil {
				return nil, err
			}
			left = &ast.Path{Left: left, Right: right}
		case tokSlashSlash:
			p.advance()
			right, err := p.parseStepOrPrimary()
			if err != nil {
				return nil, err
			}
			left = p.descend(left, right)
		default:
			return left, nil
		}
	}
}

// descend implements the "//" abbreviation. Following the paper (§2,
// footnote 2), E//child::t is normalized directly to E/descendant::t; for
// any other right-hand side the general expansion
// E/descendant-or-self::node()/R is used.
func (p *parser) descend(left, right ast.Expr) ast.Expr {
	if st, ok := right.(*ast.Step); ok && st.Axis == xdm.AxisChild {
		st.Axis = xdm.AxisDescendant
		return &ast.Path{Left: left, Right: st}
	}
	dos := &ast.Step{Axis: xdm.AxisDescendantOrSelf, Test: xdm.AnyNodeTest()}
	return &ast.Path{Left: &ast.Path{Left: left, Right: dos}, Right: right}
}

func (p *parser) startsStepOrPrimary() bool {
	switch p.cur().kind {
	case tokName, tokVar, tokString, tokNumber, tokLParen, tokAt, tokDot, tokStar:
		return true
	}
	return false
}

// parseStepOrPrimary parses one path component: an axis step or a primary
// expression, with trailing predicates.
func (p *parser) parseStepOrPrimary() (ast.Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokAt:
		p.advance()
		test, err := p.parseNodeTest(xdm.AxisAttribute)
		if err != nil {
			return nil, err
		}
		st := &ast.Step{Axis: xdm.AxisAttribute, Test: test}
		return p.withPreds(st, &st.Preds)
	case tokStar:
		p.advance()
		st := &ast.Step{Axis: xdm.AxisChild, Test: xdm.StarTest()}
		return p.withPreds(st, &st.Preds)
	case tokDot:
		p.advance()
		return p.filtered(&ast.ContextItem{})
	case tokName:
		// axis::test
		if p.peek().kind == tokColonColon {
			axis, err := xdm.ParseAxis(t.text)
			if err != nil {
				return nil, p.errorf("%v", err)
			}
			p.advance()
			p.advance()
			test, err := p.parseNodeTest(axis)
			if err != nil {
				return nil, err
			}
			st := &ast.Step{Axis: axis, Test: test}
			return p.withPreds(st, &st.Preds)
		}
		// Kind test as an abbreviated child step: node(), text().
		if (t.text == "node" || t.text == "text") && p.peek().kind == tokLParen {
			test, err := p.parseNodeTest(xdm.AxisChild)
			if err != nil {
				return nil, err
			}
			st := &ast.Step{Axis: xdm.AxisChild, Test: test}
			return p.withPreds(st, &st.Preds)
		}
		// Function call.
		if p.peek().kind == tokLParen {
			return p.parseCall()
		}
		// Abbreviated child step with a name test.
		p.advance()
		st := &ast.Step{Axis: xdm.AxisChild, Test: xdm.NameTest(t.text)}
		return p.withPreds(st, &st.Preds)
	case tokVar:
		p.advance()
		return p.filtered(&ast.VarRef{Name: t.text})
	case tokString:
		p.advance()
		return &ast.StringLit{Value: t.text}, nil
	case tokNumber:
		p.advance()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return &ast.NumberLit{Value: v, IsInt: !strings.Contains(t.text, ".")}, nil
	case tokLParen:
		p.advance()
		if p.cur().kind == tokRParen {
			p.advance()
			return &ast.EmptySeq{}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.cur().kind == tokComma {
			// Sequence construction (E1, E2, …).
			seq := &ast.SeqExpr{Items: []ast.Expr{e}}
			for p.cur().kind == tokComma {
				p.advance()
				it, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				seq.Items = append(seq.Items, it)
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return p.filtered(seq)
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return p.filtered(e)
	}
	return nil, p.errorf("unexpected %s %q", t.kind, t.text)
}

// parseNodeTest parses a node test after an axis (or @).
func (p *parser) parseNodeTest(axis xdm.Axis) (xdm.NodeTest, error) {
	t := p.cur()
	switch t.kind {
	case tokStar:
		p.advance()
		return xdm.StarTest(), nil
	case tokName:
		p.advance()
		if t.text == "node" || t.text == "text" {
			if p.cur().kind == tokLParen {
				p.advance()
				if _, err := p.expect(tokRParen); err != nil {
					return xdm.NodeTest{}, err
				}
				if t.text == "node" {
					return xdm.AnyNodeTest(), nil
				}
				return xdm.TextTest(), nil
			}
		}
		return xdm.NameTest(t.text), nil
	}
	return xdm.NodeTest{}, p.errorf("expected node test, found %s %q", t.kind, t.text)
}

// withPreds attaches [pred] lists directly to a step.
func (p *parser) withPreds(st *ast.Step, preds *[]ast.Expr) (ast.Expr, error) {
	for p.cur().kind == tokLBracket {
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return nil, err
		}
		*preds = append(*preds, e)
	}
	return st, nil
}

// filtered wraps a primary expression in a Filter if predicates follow.
func (p *parser) filtered(e ast.Expr) (ast.Expr, error) {
	var preds []ast.Expr
	for p.cur().kind == tokLBracket {
		p.advance()
		pe, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return nil, err
		}
		preds = append(preds, pe)
	}
	if len(preds) == 0 {
		return e, nil
	}
	return &ast.Filter{Primary: e, Preds: preds}, nil
}

func (p *parser) parseCall() (ast.Expr, error) {
	name := p.cur().text
	p.advance() // name
	p.advance() // (
	var args []ast.Expr
	if p.cur().kind != tokRParen {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.cur().kind == tokComma {
				p.advance()
				continue
			}
			break
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	local := name
	for _, pfx := range []string{"fn:", "fs:"} {
		local = strings.TrimPrefix(local, pfx)
	}
	if local == "distinct-doc-order" {
		local = "ddo"
	}
	// fn:root() / fn:root(.) is the absolute-path root.
	if local == "root" {
		if len(args) == 0 {
			return &ast.Root{}, nil
		}
		if len(args) == 1 {
			if _, ok := args[0].(*ast.ContextItem); ok {
				return &ast.Root{}, nil
			}
		}
	}
	call := &ast.Call{Name: local, Args: args}
	return p.filtered(call)
}
