// Package parser implements a lexer and recursive-descent parser for the
// XQuery subset defined in package ast.
package parser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF        tokenKind = iota
	tokName                 // person, fn:count, node
	tokVar                  // $x (text holds "x")
	tokString               // "lit" or 'lit'
	tokNumber               // 1, 2.5
	tokSlash                // /
	tokSlashSlash           // //
	tokLBracket             // [
	tokRBracket             // ]
	tokLParen               // (
	tokRParen               // )
	tokComma                // ,
	tokAt                   // @
	tokDot                  // .
	tokStar                 // *
	tokColonColon           // ::
	tokAssign               // :=
	tokEq                   // =
	tokNe                   // !=
	tokLt                   // <
	tokLe                   // <=
	tokGt                   // >
	tokGe                   // >=
	tokPlus                 // +
	tokMinus                // -
	tokPipe                 // |
)

func (k tokenKind) String() string {
	names := map[tokenKind]string{
		tokEOF: "end of input", tokName: "name", tokVar: "variable", tokString: "string",
		tokNumber: "number", tokSlash: "/", tokSlashSlash: "//", tokLBracket: "[",
		tokRBracket: "]", tokLParen: "(", tokRParen: ")", tokComma: ",", tokAt: "@",
		tokDot: ".", tokStar: "*", tokColonColon: "::", tokAssign: ":=", tokEq: "=",
		tokNe: "!=", tokLt: "<", tokLe: "<=", tokGt: ">", tokGe: ">=",
		tokPlus: "+", tokMinus: "-", tokPipe: "|",
	}
	return names[k]
}

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src string
	pos int
}

// lex tokenizes the whole input up front.
func lex(src string) ([]token, error) {
	lx := &lexer{src: src}
	// About one token per three bytes of the paper's queries.
	toks := make([]token, 0, len(src)/3+2)
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			lx.pos++
			continue
		}
		// XQuery comments (: ... :), possibly nested.
		if c == '(' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == ':' {
			if err := lx.skipComment(); err != nil {
				return token{}, err
			}
			continue
		}
		break
	}
	start := lx.pos
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := lx.src[lx.pos]
	switch c {
	case '/':
		if lx.peekAt(1) == '/' {
			lx.pos += 2
			return token{tokSlashSlash, "//", start}, nil
		}
		lx.pos++
		return token{tokSlash, "/", start}, nil
	case '[':
		lx.pos++
		return token{tokLBracket, "[", start}, nil
	case ']':
		lx.pos++
		return token{tokRBracket, "]", start}, nil
	case '(':
		lx.pos++
		return token{tokLParen, "(", start}, nil
	case ')':
		lx.pos++
		return token{tokRParen, ")", start}, nil
	case ',':
		lx.pos++
		return token{tokComma, ",", start}, nil
	case '@':
		lx.pos++
		return token{tokAt, "@", start}, nil
	case '*':
		lx.pos++
		return token{tokStar, "*", start}, nil
	case '+':
		lx.pos++
		return token{tokPlus, "+", start}, nil
	case '-':
		// A leading '-' is the unary/binary minus token; inside names the
		// hyphen is a name character and never reaches this switch.
		lx.pos++
		return token{tokMinus, "-", start}, nil
	case '|':
		lx.pos++
		return token{tokPipe, "|", start}, nil
	case '=':
		lx.pos++
		return token{tokEq, "=", start}, nil
	case '!':
		if lx.peekAt(1) == '=' {
			lx.pos += 2
			return token{tokNe, "!=", start}, nil
		}
		return token{}, fmt.Errorf("parser: unexpected '!' at offset %d", start)
	case '<':
		if lx.peekAt(1) == '=' {
			lx.pos += 2
			return token{tokLe, "<=", start}, nil
		}
		lx.pos++
		return token{tokLt, "<", start}, nil
	case '>':
		if lx.peekAt(1) == '=' {
			lx.pos += 2
			return token{tokGe, ">=", start}, nil
		}
		lx.pos++
		return token{tokGt, ">", start}, nil
	case ':':
		if lx.peekAt(1) == ':' {
			lx.pos += 2
			return token{tokColonColon, "::", start}, nil
		}
		if lx.peekAt(1) == '=' {
			lx.pos += 2
			return token{tokAssign, ":=", start}, nil
		}
		return token{}, fmt.Errorf("parser: unexpected ':' at offset %d", start)
	case '$':
		lx.pos++
		name := lx.scanName()
		if name == "" {
			return token{}, fmt.Errorf("parser: '$' not followed by a name at offset %d", start)
		}
		return token{tokVar, name, start}, nil
	case '"', '\'':
		return lx.scanString(c)
	case '.':
		// Distinguish "." from ".5".
		if d := lx.peekAt(1); d < '0' || d > '9' {
			lx.pos++
			return token{tokDot, ".", start}, nil
		}
		return lx.scanNumber()
	}
	if c >= '0' && c <= '9' {
		return lx.scanNumber()
	}
	if isNameStart(rune(c)) {
		name := lx.scanName()
		// Allow one prefix, e.g. fn:count (but not ::, handled above).
		if lx.pos < len(lx.src) && lx.src[lx.pos] == ':' && lx.peekAt(1) != ':' && lx.peekAt(1) != '=' {
			lx.pos++
			local := lx.scanName()
			if local == "" {
				return token{}, fmt.Errorf("parser: dangling prefix %q at offset %d", name, start)
			}
			name = name + ":" + local
		}
		return token{tokName, name, start}, nil
	}
	return token{}, fmt.Errorf("parser: unexpected character %q at offset %d", c, start)
}

func (lx *lexer) peekAt(off int) byte {
	if lx.pos+off < len(lx.src) {
		return lx.src[lx.pos+off]
	}
	return 0
}

func (lx *lexer) skipComment() error {
	depth := 0
	for lx.pos < len(lx.src) {
		if strings.HasPrefix(lx.src[lx.pos:], "(:") {
			depth++
			lx.pos += 2
			continue
		}
		if strings.HasPrefix(lx.src[lx.pos:], ":)") {
			depth--
			lx.pos += 2
			if depth == 0 {
				return nil
			}
			continue
		}
		lx.pos++
	}
	return fmt.Errorf("parser: unterminated comment")
}

func (lx *lexer) scanName() string {
	start := lx.pos
	for lx.pos < len(lx.src) {
		r, size := utf8.DecodeRuneInString(lx.src[lx.pos:])
		if lx.pos == start && !isNameStart(r) {
			break
		}
		if lx.pos > start && !isNameChar(r) {
			break
		}
		lx.pos += size
	}
	return lx.src[start:lx.pos]
}

func (lx *lexer) scanString(quote byte) (token, error) {
	start := lx.pos
	lx.pos++
	var b strings.Builder
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == quote {
			// Doubled quote is an escaped quote.
			if lx.peekAt(1) == quote {
				b.WriteByte(quote)
				lx.pos += 2
				continue
			}
			lx.pos++
			return token{tokString, b.String(), start}, nil
		}
		b.WriteByte(c)
		lx.pos++
	}
	return token{}, fmt.Errorf("parser: unterminated string at offset %d", start)
}

func (lx *lexer) scanNumber() (token, error) {
	start := lx.pos
	seenDot := false
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c >= '0' && c <= '9' {
			lx.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			lx.pos++
			continue
		}
		break
	}
	return token{tokNumber, lx.src[start:lx.pos], start}, nil
}

func isNameStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isNameChar(r rune) bool {
	return r == '_' || r == '-' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
