// Package xmlstore loads XML documents into the XDM and maintains the index
// structures (per-tag and per-attribute streams sorted by preorder rank)
// that the set-at-a-time tree-pattern algorithms scan. The serving entry
// point (Ingest, in ingest.go) runs a zero-copy scanner; ParseStd below
// keeps the encoding/xml path alive as the reference oracle for
// differential testing.
package xmlstore

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"xqtp/internal/xdm"
)

// ParseStd reads an XML document from r through encoding/xml and builds the
// tree via xdm.Finalize — the slow, well-understood reference path. The
// fast scanner must produce a bit-identical tree (nodes, symbols, columns)
// for every input this function accepts; the differential and fuzz suites
// in this package enforce that. Production callers use Ingest.
func ParseStd(r io.Reader) (*xdm.Tree, error) {
	dec := xml.NewDecoder(r)
	var stack []*xdm.Node
	var root *xdm.Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmlstore: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := xdm.NewElement(t.Name.Local)
			for _, a := range t.Attr {
				// Namespace declarations carry no attribute node: xmlns="..."
				// and xmlns:p="..." are dropped. An attribute whose *prefix*
				// resolves to the xmlns space covers both spellings; a plain
				// local name that merely ends in "xmlns" (e.g. p:xmlns) is a
				// real attribute and must be kept.
				if a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns") {
					continue
				}
				el.SetAttr(a.Name.Local, a.Value)
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmlstore: multiple root elements")
				}
				root = el
			} else {
				stack[len(stack)-1].AppendChild(el)
			}
			stack = append(stack, el)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmlstore: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue
			}
			text := string(t)
			if strings.TrimSpace(text) == "" {
				continue
			}
			stack[len(stack)-1].AppendChild(xdm.NewText(text))
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmlstore: no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmlstore: unexpected end of input inside <%s>", stack[len(stack)-1].Name)
	}
	return xdm.Finalize(root), nil
}

// AppendXML appends the XML serialization of the subtree rooted at n to dst
// and returns the extended slice. The output round-trips through both Ingest
// and ParseStd: text escapes &, <, > and carriage returns (which parsers
// would otherwise normalize to \n); attribute values additionally escape
// quotes, tabs, and newlines numerically.
func AppendXML(dst []byte, n *xdm.Node) []byte {
	switch n.Kind {
	case xdm.DocumentNode:
		for _, c := range n.Children {
			dst = AppendXML(dst, c)
		}
		return dst
	case xdm.TextNode:
		return appendEscaped(dst, n.Text, false)
	case xdm.AttributeNode:
		dst = append(dst, n.Name...)
		dst = append(dst, '=', '"')
		dst = appendEscaped(dst, n.Text, true)
		return append(dst, '"')
	}
	dst = append(dst, '<')
	dst = append(dst, n.Name...)
	for _, a := range n.Attrs {
		dst = append(dst, ' ')
		dst = AppendXML(dst, a)
	}
	if len(n.Children) == 0 {
		return append(dst, '/', '>')
	}
	dst = append(dst, '>')
	for _, c := range n.Children {
		dst = AppendXML(dst, c)
	}
	dst = append(dst, '<', '/')
	dst = append(dst, n.Name...)
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

// Serialize writes the subtree rooted at n as XML to w, streaming through a
// fixed-size buffer instead of materializing the whole serialization.
func Serialize(w io.Writer, n *xdm.Node) error {
	x := &xmlWriter{w: w, buf: make([]byte, 0, serializeBufSize)}
	x.emit(n)
	x.flush()
	return x.err
}

const serializeBufSize = 32 << 10

type xmlWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (x *xmlWriter) flush() {
	if len(x.buf) > 0 && x.err == nil {
		_, x.err = x.w.Write(x.buf)
	}
	x.buf = x.buf[:0]
}

func (x *xmlWriter) emit(n *xdm.Node) {
	if x.err != nil {
		return
	}
	switch n.Kind {
	case xdm.DocumentNode:
		for _, c := range n.Children {
			x.emit(c)
		}
		return
	case xdm.TextNode, xdm.AttributeNode:
		x.buf = AppendXML(x.buf, n)
	default:
		x.buf = append(x.buf, '<')
		x.buf = append(x.buf, n.Name...)
		for _, a := range n.Attrs {
			x.buf = append(x.buf, ' ')
			x.buf = AppendXML(x.buf, a)
		}
		if len(n.Children) == 0 {
			x.buf = append(x.buf, '/', '>')
		} else {
			x.buf = append(x.buf, '>')
			for _, c := range n.Children {
				x.emit(c)
			}
			x.buf = append(x.buf, '<', '/')
			x.buf = append(x.buf, n.Name...)
			x.buf = append(x.buf, '>')
		}
	}
	if len(x.buf) >= serializeBufSize {
		x.flush()
	}
}

// SerializeString renders the subtree rooted at n as an XML string.
func SerializeString(n *xdm.Node) string {
	return string(AppendXML(nil, n))
}
