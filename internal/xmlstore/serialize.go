// Package xmlstore loads XML documents into the XDM and maintains the index
// structures (per-tag and per-attribute streams sorted by preorder rank)
// that the set-at-a-time tree-pattern algorithms scan. Documents come in
// through a zero-copy scanner (Ingest, in ingest.go) or a snapshot (Open*,
// in snapshot.go), and go out through the column serializer below. The
// scanner is held to an encoding/xml reference parser that only the tests
// link (package xdmref).
package xmlstore

import (
	"encoding/json"
	"io"
	"unicode/utf8"

	"xqtp/internal/xdm"
)

// AppendXML appends the XML serialization of the subtree rooted at n to dst
// and returns the extended slice. The output round-trips through Ingest and
// through encoding/xml: text escapes &, <, > and carriage returns (which
// parsers would otherwise normalize to \n); attribute values additionally
// escape quotes, tabs, and newlines numerically. The node is rendered from
// its tree's columns (xmlWriter.scan), and no node is built.
func AppendXML(dst []byte, n *xdm.Node) []byte {
	return AppendRank(dst, n.Doc, int32(n.Pre), false)
}

// AppendRank appends what AppendXML appends for t.Node(r), without building
// the node; with asJSON, the body of the JSON string literal of that XML
// instead, byte-identical to what encoding/json writes, in the same one pass.
func AppendRank(dst []byte, t *xdm.Tree, r int32, asJSON bool) []byte {
	x := xmlWriter{buf: dst, json: asJSON}
	x.scan(t, r)
	return x.buf
}

func appendAttr(dst []byte, name, value string) []byte {
	dst = append(dst, name...)
	dst = append(dst, '=', '"')
	dst = appendEscaped(dst, value, true)
	return append(dst, '"')
}

func appendClose(dst []byte, name string) []byte {
	dst = append(dst, '<', '/')
	dst = append(dst, name...)
	return append(dst, '>')
}

// needsEscape classifies every byte for appendEscaped: escText bytes are
// escaped everywhere, escAttr bytes in attribute values only, where they are
// the delimiter quote and the whitespace attribute-value normalization would
// fold.
const (
	escText = 1
	escAttr = 2
)

var needsEscape = [256]uint8{
	'&': escText, '<': escText, '>': escText, '\r': escText,
	'"': escAttr, '\n': escAttr, '\t': escAttr,
}

// appendEscaped appends s with XML escaping. Most text has nothing to
// escape: the scan consults one table byte per input byte, and each run
// between two escapes is copied with one append.
func appendEscaped(dst []byte, s string, attr bool) []byte {
	clean := 0 // start of the run not yet copied
	for i := 0; i < len(s); i++ {
		class := needsEscape[s[i]]
		if class == 0 || class == escAttr && !attr {
			continue
		}
		dst = append(dst, s[clean:i]...)
		clean = i + 1
		switch s[i] {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		case '\r':
			dst = append(dst, "&#xD;"...)
		case '"':
			dst = append(dst, "&quot;"...)
		case '\n':
			dst = append(dst, "&#xA;"...)
		case '\t':
			dst = append(dst, "&#x9;"...)
		}
	}
	return append(dst, s[clean:]...)
}

// jsonEscape.ascii[b] is what encoding/json (HTML-safe escaping on) writes
// inside a string for the ASCII byte b, "" when b goes as itself; jsonText
// and jsonAttr the same for the XML escape of b in a text or attribute value.
var (
	jsonEscape = jsonTable(func(s string) string { return s })
	jsonText   = jsonTable(func(s string) string { return string(appendEscaped(nil, s, false)) })
	jsonAttr   = jsonTable(func(s string) string { return string(appendEscaped(nil, s, true)) })
)

// jsonEscapes is one escape table of appendJSONEscaped. special[b] is set
// for every byte that may not go as itself: an ASCII byte with an escape,
// and every byte of a multi-byte or invalid UTF-8 sequence, which is decoded.
type jsonEscapes struct {
	special [256]uint8
	ascii   [utf8.RuneSelf]string
}

func jsonTable(xml func(string) string) (t jsonEscapes) {
	for b := range t.special {
		if b >= utf8.RuneSelf {
			t.special[b] = 1
			continue
		}
		c := string(rune(b))
		q, _ := json.Marshal(xml(c))
		if e := string(q[1 : len(q)-1]); e != c {
			t.ascii[b], t.special[b] = e, 1
		}
	}
	return t
}

// AppendJSONString appends s as a JSON string literal, byte-identical to
// json.Marshal of the same string.
func AppendJSONString(dst []byte, s string) []byte {
	return append(appendJSONEscaped(append(dst, '"'), s, &jsonEscape), '"')
}

// appendJSONEscaped appends s as the body of a JSON string literal: each
// ASCII byte as esc gives it, U+2028 and U+2029 escaped, and each byte of
// invalid UTF-8 replaced by \ufffd, as encoding/json does. A byte that goes
// as itself costs one table load; each run of them is copied with one append.
func appendJSONEscaped(dst []byte, s string, esc *jsonEscapes) []byte {
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if esc.special[b] == 0 {
			i++
			continue
		}
		e, size := "", 1
		if b < utf8.RuneSelf {
			e = esc.ascii[b]
		} else {
			var c rune
			c, size = utf8.DecodeRuneInString(s[i:])
			if c == utf8.RuneError && size == 1 {
				e = `\ufffd`
			} else if c == '\u2028' || c == '\u2029' {
				e = [...]string{`\u2028`, `\u2029`}[c-'\u2028']
			}
		}
		if e != "" {
			dst = append(append(dst, s[start:i]...), e...)
			start = i + size
		}
		i += size
	}
	return append(dst, s[start:]...)
}

// runeSplit reports whether a ends in an incomplete UTF-8 sequence that b may
// continue: the one case where encoding/json reads a+b unlike a, then b.
func runeSplit(a, b string) bool {
	r, size := utf8.DecodeLastRuneInString(a)
	return r == utf8.RuneError && size == 1 && (b == "" || !utf8.RuneStart(b[0]))
}

// Serialize writes the subtree rooted at n as XML to w, streaming through a
// fixed-size buffer instead of materializing the whole serialization.
func Serialize(w io.Writer, n *xdm.Node) error {
	x := &xmlWriter{w: w, buf: make([]byte, 0, serializeBufSize)}
	x.scan(n.Doc, int32(n.Pre))
	x.flush()
	return x.err
}

const serializeBufSize = 32 << 10

// xmlWriter is the serializer's output: a buffer that AppendXML returns and
// Serialize flushes to w whenever it passes serializeBufSize.
type xmlWriter struct {
	w    io.Writer // nil: append only
	buf  []byte
	err  error
	json bool
}

func (x *xmlWriter) flush() {
	if len(x.buf) > 0 && x.err == nil {
		_, x.err = x.w.Write(x.buf)
	}
	x.buf = x.buf[:0]
}

// scan serializes the region of rank r in one preorder pass over the
// Kind/Sym/Size columns. An element's start tag takes its attribute run
// (the ranks directly after it); the end tags it owes are closed through the
// Parent column — the innermost open element's parent is the next one out —
// when the scan reaches a node outside its region, so no recursion and no
// stack is needed. In json mode each piece is written JSON-escaped: markup as
// constants, values through jsonText and jsonAttr, and names as they are when
// the tree's symbol table is plain, through jsonEscape when it is not. The
// scan meets the text-bearing ranks in preorder, so it counts its way
// through the text table from the index of the first one.
func (x *xmlWriter) scan(t *xdm.Tree, r int32) {
	c, asJSON, plain := t.Cols, x.json, t.Syms.Plain()
	name := func(p int32) string { return t.Syms.Name(xdm.Sym(c.Sym[p])) }
	off, blob := t.TextTable()
	ti := t.TextIndex(r) // the value of the next text-bearing rank
	next := func() string {
		ti++
		return blob[off[ti-1]:off[ti]]
	}
	if xdm.Kind(c.Kind[r]) == xdm.AttributeNode {
		if asJSON {
			x.jsonAttr(name(r), next(), plain)
		} else {
			x.buf = appendAttr(x.buf, name(r), next())
		}
		return
	}
	// floor is where closing stops: outside the node's region, or the
	// document node, which has no tags.
	floor, p := c.Parent[r], r
	if xdm.Kind(c.Kind[r]) == xdm.DocumentNode {
		floor, p = r, r+1
	}
	open := floor // innermost element whose end tag is owed
	for end := c.End(r); x.err == nil; {
		for open != floor && (p > end || open != c.Parent[p]) {
			if asJSON {
				x.buf = append(appendJSONName(append(x.buf, `\u003c/`...), name(open), plain), `\u003e`...)
			} else {
				x.buf = appendClose(x.buf, name(open))
			}
			open = c.Parent[open]
		}
		if p > end {
			return
		}
		if xdm.Kind(c.Kind[p]) == xdm.TextNode {
			s := next()
			if !asJSON {
				x.buf = appendEscaped(x.buf, s, false)
			} else {
				// encoding/json decodes a UTF-8 sequence cut between sibling
				// texts (by CDATA or a comment) whole.
				for p < end && xdm.Kind(c.Kind[p+1]) == xdm.TextNode && c.Parent[p+1] == open && runeSplit(s, blob[off[ti]:off[ti+1]]) {
					p++
					s += next()
				}
				x.buf = appendJSONEscaped(x.buf, s, &jsonText)
			}
			p++
		} else {
			if asJSON {
				x.buf = appendJSONName(append(x.buf, `\u003c`...), name(p), plain)
			} else {
				x.buf = append(append(x.buf, '<'), name(p)...)
			}
			q, last := p+1, c.End(p)
			for ; q <= last && xdm.Kind(c.Kind[q]) == xdm.AttributeNode; q++ {
				x.buf = append(x.buf, ' ')
				if asJSON {
					x.jsonAttr(name(q), next(), plain)
				} else {
					x.buf = appendAttr(x.buf, name(q), next())
				}
			}
			if q > last {
				x.buf = append(x.buf, '/')
			} else {
				open = p
			}
			if asJSON {
				x.buf = append(x.buf, `\u003e`...)
			} else {
				x.buf = append(x.buf, '>')
			}
			p = q
		}
		if x.w != nil && len(x.buf) >= serializeBufSize {
			x.flush()
		}
	}
}

func (x *xmlWriter) jsonAttr(name, value string, plain bool) {
	x.buf = appendJSONName(x.buf, name, plain)
	x.buf = append(appendJSONEscaped(append(x.buf, `=\"`...), value, &jsonAttr), `\"`...)
}

// appendJSONName appends an element or attribute name inside a JSON string
// body: as it is when its symbol table is plain (no byte of it has an
// escape), through jsonEscape when it is not.
func appendJSONName(dst []byte, name string, plain bool) []byte {
	if plain {
		return append(dst, name...)
	}
	return appendJSONEscaped(dst, name, &jsonEscape)
}

// SerializeString renders the subtree rooted at n as an XML string.
func SerializeString(n *xdm.Node) string {
	return string(AppendXML(nil, n))
}
