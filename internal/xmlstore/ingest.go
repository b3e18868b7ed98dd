package xmlstore

// The ingest fast path: a non-validating, zero-copy streaming scan over the
// raw document bytes feeding the xdm.TreeBuilder. One walk over the input
// interns tag and attribute names in the loader's name dictionary and emits
// the size/parent/kind/sym columns plus the text blob into a Loader's
// reusable scratch; Finish copies them out at their exact size, and
// BuildIndex derives the rank streams from the kind/sym columns into one
// exactly-sized slab. No node is allocated — the tree builds a node from
// the columns when somebody asks for its rank.
//
// The scanner accepts a superset of what encoding/xml accepts (no UTF-8
// validation, no name-character checks, '<' allowed in attribute values,
// ']]>' allowed in text) but produces a bit-identical tree and index for
// every input the encoding/xml reference parser (xdmref.ParseStd, test
// only) accepts; the differential and fuzz suites enforce that contract. Structural errors — unbalanced or mismatched tags, stray
// end elements, multiple or missing roots — are rejected with xmlstore:-
// prefixed errors either way.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"unicode/utf8"

	"xqtp/internal/xdm"
)

// Ingest scans an XML document held in data and returns its tree (columns,
// symbols, text values) and index. Whitespace-only text between elements is
// dropped (data-oriented parsing); mixed content text is preserved. Nothing
// retains data after Ingest returns: names and text values are copied out,
// so the caller may reuse it. It is a fresh Loader used once.
func Ingest(data []byte) (*Index, error) { return new(Loader).Ingest(data) }

// Loader ingests documents one after another through one scratch: the
// builder's columns and text blob, the entity decode buffer and the
// attribute spans. Each tree is copied out of the scratch at its exact size,
// so a loader stops growing at its largest member. The builder's name
// dictionary lives as long as the loader: a name is copied to a string the
// first time the loader meets it, and every later member's symbol table
// shares that string. A Loader is not safe for concurrent use (the corpus
// ingest gives each worker its own); the zero value is ready to use.
type Loader struct {
	in ingester
}

// Ingest is the package-level Ingest on the loader's scratch. As there,
// nothing retains data after return: between calls — after a failure too —
// the scratch holds no reference into a document's bytes.
func (l *Loader) Ingest(data []byte) (*Index, error) {
	in := &l.in
	if in.b == nil {
		in.b = xdm.NewTreeBuilder(nodeHint(data))
	}
	in.data, in.pos, in.sawRoot = data, 0, false
	err := in.run()
	in.data = nil
	clear(in.nsBindings)
	in.nsBindings = in.nsBindings[:0]
	if err != nil {
		in.b.Reset()
		return nil, err
	}
	return BuildIndex(in.b.Finish()), nil
}

// IngestReader reads r to the end and ingests the document.
func IngestReader(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmlstore: %w", err)
	}
	return Ingest(data)
}

// IngestString ingests an XML document held in a string, scanning the
// string's bytes in place (the scanner never writes to its input).
func IngestString(s string) (*Index, error) { return Ingest(stringBytes(s)) }

// ParseString is IngestString for callers that want only the tree.
func ParseString(s string) (*xdm.Tree, error) {
	ix, err := IngestString(s)
	if err != nil {
		return nil, err
	}
	return ix.Tree, nil
}

// ingester is the scanner state; a Loader reuses its builder and buffers.
type ingester struct {
	data []byte
	pos  int
	b    *xdm.TreeBuilder

	sawRoot bool

	scratch   []byte     // reused decode buffer for entity-bearing character data
	attrSpans []attrSpan // reused per-tag attribute buffer

	// nsBindings tracks xmlns:p="..." declarations in scope, recording for
	// each whether the bound URI is the literal string "xmlns". encoding/xml
	// resolves a prefixed attribute to its namespace URI before the drop
	// decision, so an attribute whose prefix maps to the URI "xmlns" becomes
	// indistinguishable from a real declaration and encoding/xml drops it; the
	// scanner mirrors that by resolving prefixes against this stack. Empty
	// for documents without prefixed namespace declarations (the common
	// case), where it costs nothing.
	nsBindings []nsBinding
}

// attrSpan records the byte extents of one attribute in the current tag:
// its name and its raw (still encoded) value.
type attrSpan struct {
	ns, ne int
	vs, ve int
	colon  bool // the name holds a colon (scanName)
}

// nsBinding is one xmlns:prefix declaration in scope.
type nsBinding struct {
	prefix  []byte
	isXmlns bool // the bound URI is the literal string "xmlns"
	depth   int  // element depth of the declaring tag
}

// nodeHint estimates the node count of a document by counting its structural
// bytes: every tag owns one '<' (start and end tags both, so elements and the
// text runs between them are covered) and every attribute owns one '='. It
// sizes a Loader's cold scratch only — the first document a loader sees; the
// trees themselves are always copied out at their exact size. The '=' count
// alone is unreliable — '=' is an ordinary character inside text and
// attribute values, so an equation-heavy document would inflate the hint far
// past the real node count and the scratch would pre-allocate columns it
// never fills. Attributes live only inside tags, and a tag of a well-formed
// document holds at most a handful of them, so the '=' contribution is capped
// at twice the tag count; beyond that the excess is provably text. The two
// vectorized Count passes are noise next to the scan itself, and the capped
// estimate tracks the real node count within a few tens of percent for
// element-dense, data-heavy and '='-laden documents alike — where a bytes/16
// guess missed by 2-3x in either direction and paid for it in column
// over-allocation.
func nodeHint(data []byte) int {
	lt := bytes.Count(data, []byte{'<'})
	eq := bytes.Count(data, []byte{'='})
	if eq > 2*lt {
		eq = 2 * lt
	}
	return lt + eq + 16
}

func (in *ingester) run() error {
	data := in.data
	for in.pos < len(data) {
		if data[in.pos] != '<' {
			if err := in.text(); err != nil {
				return err
			}
			continue
		}
		if in.pos+1 >= len(data) {
			return in.errEOF()
		}
		var err error
		switch data[in.pos+1] {
		case '/':
			err = in.endTag()
		case '!':
			err = in.bang()
		case '?':
			err = in.procInst()
		default:
			err = in.startTag()
		}
		if err != nil {
			return err
		}
	}
	if in.b.Depth() > 0 {
		return fmt.Errorf("xmlstore: unexpected end of input inside <%s>", in.b.CurrentName())
	}
	if !in.sawRoot {
		return fmt.Errorf("xmlstore: no root element")
	}
	return nil
}

// errEOF reports input ending in the middle of a markup construct.
func (in *ingester) errEOF() error {
	if in.b.Depth() > 0 {
		return fmt.Errorf("xmlstore: unexpected end of input inside <%s>", in.b.CurrentName())
	}
	return fmt.Errorf("xmlstore: unexpected end of input")
}

// text scans the character-data run starting at pos (a non-'<' byte) and
// emits it as a text node unless it is whitespace-only or outside the root.
func (in *ingester) text() error {
	data := in.data
	start := in.pos
	i := start
	for i < len(data) && data[i] != '<' {
		i++
	}
	in.pos = i
	return in.segment(data[start:i], false)
}

// segment handles one character-data segment — a text run, or the contents
// of one CDATA section (cdata true: '&' is literal there). Segments are
// dropped when whitespace-only or outside the root, matching the reference
// parser.
func (in *ingester) segment(raw []byte, cdata bool) error {
	if in.b.Depth() == 0 || len(raw) == 0 {
		// Character data outside the root element carries no node. The
		// reference parser ignores it the same way (without even decoding its entities, which
		// makes the fast path strictly more lenient there).
		return nil
	}
	simple, wsOnly, hasHigh := scanSegment(raw, cdata)
	var s string
	if simple {
		if wsOnly {
			return nil
		}
		s = byteString(raw)
		if hasHigh && strings.TrimSpace(s) == "" {
			return nil // non-ASCII Unicode whitespace, e.g. NBSP
		}
	} else {
		var err error
		if s, err = in.decode(raw, cdata); err != nil {
			return err
		}
		if strings.TrimSpace(s) == "" {
			return nil
		}
	}
	if err := checkTextBytes(in.b.TextBytes(), len(s)); err != nil {
		return err
	}
	in.b.Text(s)
	return nil
}

// checkTextBytes rejects a text value of add bytes for a document already
// holding have bytes of text values when the sum would pass MaxUint32: the
// text table's offsets are u32 and would wrap.
func checkTextBytes(have, add int) error {
	if int64(have)+int64(add) > math.MaxUint32 {
		return fmt.Errorf("xmlstore: text values of one document exceed %d bytes", uint64(math.MaxUint32))
	}
	return nil
}

// scanSegment classifies a raw segment: simple (needs no decoding — no
// entity, no carriage return), whitespace-only so far as ASCII can tell,
// and whether any non-ASCII byte occurs.
func scanSegment(raw []byte, cdata bool) (simple, wsOnly, hasHigh bool) {
	simple, wsOnly = true, true
	for _, c := range raw {
		switch {
		case c == '\r' || (c == '&' && !cdata):
			simple = false
		case c == ' ' || c == '\t' || c == '\n':
		default:
			wsOnly = false
			if c >= 0x80 {
				hasHigh = true
			}
		}
	}
	return simple, wsOnly, hasHigh
}

// decode rewrites a segment with entities expanded (unless cdata) and line
// endings normalized ("\r\n" and "\r" become "\n", matching encoding/xml;
// decoded character references are exempt). The result aliases the decode
// scratch: it is valid until the next decode, and the builder copies it.
func (in *ingester) decode(raw []byte, cdata bool) (string, error) {
	buf := in.scratch[:0]
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '&' && !cdata:
			r, n, err := decodeEntity(raw[i:])
			if err != nil {
				return "", err
			}
			buf = utf8.AppendRune(buf, r)
			i += n
		case c == '\r':
			buf = append(buf, '\n')
			i++
			if i < len(raw) && raw[i] == '\n' {
				i++
			}
		default:
			buf = append(buf, c)
			i++
		}
	}
	in.scratch = buf
	return byteString(buf), nil
}

// startTag parses a start or empty-element tag at pos ('<'). Attribute
// spans are buffered until the whole tag is scanned because namespace
// resolution is order-independent: a declaration may follow the attributes
// it affects within the same tag.
func (in *ingester) startTag() error {
	data := in.data
	i := in.pos + 1
	e, colon := scanName(data, i)
	if e == i {
		return fmt.Errorf("xmlstore: expected element name after < at offset %d", in.pos)
	}
	local := data[i:e]
	if colon {
		_, local = splitName(local)
	}
	if in.b.Depth() == 0 {
		if in.sawRoot {
			return fmt.Errorf("xmlstore: multiple root elements")
		}
		in.sawRoot = true
	}
	in.b.OpenElement(local)
	attrs := in.attrSpans[:0]
	i = e
	selfClose := false
scan:
	for {
		i = skipWS(data, i)
		if i >= len(data) {
			return in.errEOF()
		}
		switch data[i] {
		case '>':
			in.pos = i + 1
			break scan
		case '/':
			if i+1 >= len(data) {
				return in.errEOF()
			}
			if data[i+1] != '>' {
				return fmt.Errorf("xmlstore: expected /> in element at offset %d", i)
			}
			selfClose = true
			in.pos = i + 2
			break scan
		}
		ae, acolon := scanName(data, i)
		if ae == i {
			return fmt.Errorf("xmlstore: expected attribute name in element at offset %d", i)
		}
		ns := i
		i = skipWS(data, ae)
		if i >= len(data) {
			return in.errEOF()
		}
		if data[i] != '=' {
			return fmt.Errorf("xmlstore: attribute name without = in element at offset %d", i)
		}
		i = skipWS(data, i+1)
		if i >= len(data) {
			return in.errEOF()
		}
		quote := data[i]
		if quote != '"' && quote != '\'' {
			return fmt.Errorf("xmlstore: unquoted or missing attribute value in element at offset %d", i)
		}
		i++
		vs := i
		for i < len(data) && data[i] != quote {
			i++
		}
		if i >= len(data) {
			return in.errEOF()
		}
		attrs = append(attrs, attrSpan{ns: ns, ne: ae, vs: vs, ve: i, colon: acolon})
		i++
	}
	in.attrSpans = attrs
	depth := in.b.Depth()
	// Pass 1: register this tag's prefixed namespace declarations so the
	// drop decisions below see them regardless of attribute order. Only a
	// name with a colon can have a prefix.
	for _, a := range attrs {
		if !a.colon {
			continue
		}
		prefix, plocal := splitName(data[a.ns:a.ne])
		if string(prefix) != "xmlns" {
			continue
		}
		uri, err := in.attrValue(data[a.vs:a.ve])
		if err != nil {
			return err
		}
		in.nsBindings = append(in.nsBindings, nsBinding{
			prefix:  plocal,
			isXmlns: uri == "xmlns",
			depth:   depth,
		})
	}
	// Pass 2: emit attribute nodes, dropping the namespace declarations (a
	// literal xmlns, or an xmlns: prefix that actually splits, as
	// encoding/xml drops them) and any attribute whose prefix resolves to
	// the xmlns space.
	for _, a := range attrs {
		alocal := data[a.ns:a.ne]
		if a.colon {
			var aprefix []byte
			if aprefix, alocal = splitName(alocal); string(aprefix) == "xmlns" || len(aprefix) > 0 && in.prefixIsXmlns(aprefix) {
				continue
			}
		} else if string(alocal) == "xmlns" {
			continue
		}
		value, err := in.attrValue(data[a.vs:a.ve])
		if err != nil {
			return err
		}
		if err := checkTextBytes(in.b.TextBytes(), len(value)); err != nil {
			return err
		}
		in.b.Attr(alocal, value)
	}
	if selfClose {
		in.popBindings(depth)
		in.b.CloseElement()
	}
	return nil
}

// prefixIsXmlns resolves a prefix against the innermost binding in scope
// and reports whether it maps to the literal URI "xmlns".
func (in *ingester) prefixIsXmlns(prefix []byte) bool {
	for j := len(in.nsBindings) - 1; j >= 0; j-- {
		if bytes.Equal(in.nsBindings[j].prefix, prefix) {
			return in.nsBindings[j].isXmlns
		}
	}
	return false
}

// popBindings drops the namespace bindings declared at or below depth (the
// element at that depth is closing, so its declarations leave scope).
func (in *ingester) popBindings(depth int) {
	for len(in.nsBindings) > 0 && in.nsBindings[len(in.nsBindings)-1].depth >= depth {
		in.nsBindings = in.nsBindings[:len(in.nsBindings)-1]
	}
}

// attrValue returns an attribute value, aliasing the input when no decoding
// is needed and the decode scratch (as decode does) when it is.
func (in *ingester) attrValue(raw []byte) (string, error) {
	for _, c := range raw {
		if c == '&' || c == '\r' {
			return in.decode(raw, false)
		}
	}
	return byteString(raw), nil
}

// endTag parses an end tag at pos ("</"). An end tag whose name bytes are
// the open element's (its local name) closes it at once; any other goes the
// general way, comparing local names. (The first implies the second: a name
// that splits has a colon-free local part.)
func (in *ingester) endTag() error {
	data := in.data
	i := in.pos + 2
	e, colon := scanName(data, i)
	if e == i {
		return fmt.Errorf("xmlstore: expected element name after </ at offset %d", in.pos)
	}
	name := data[i:e]
	i = skipWS(data, e)
	if i >= len(data) {
		return in.errEOF()
	}
	if data[i] != '>' || in.b.Depth() == 0 || in.b.CurrentName() != string(name) {
		local := name
		if colon {
			_, local = splitName(name)
		}
		if data[i] != '>' {
			return fmt.Errorf("xmlstore: invalid characters between </%s and > at offset %d", local, i)
		}
		if in.b.Depth() == 0 {
			return fmt.Errorf("xmlstore: unbalanced end element %s", local)
		}
		if open := in.b.CurrentName(); open != string(local) {
			return fmt.Errorf("xmlstore: element <%s> closed by </%s>", open, local)
		}
	}
	if len(in.nsBindings) > 0 {
		in.popBindings(in.b.Depth())
	}
	in.b.CloseElement()
	in.pos = i + 1
	return nil
}

var (
	commentOpen  = []byte("<!--")
	commentClose = []byte("-->")
	cdataOpen    = []byte("<![CDATA[")
	cdataClose   = []byte("]]>")
)

// bang dispatches the markup at pos ("<!"): comment, CDATA section, or
// directive (DOCTYPE and friends, skipped like encoding/xml's Directive
// tokens are by the reference parser).
func (in *ingester) bang() error {
	data := in.data
	rest := data[in.pos:]
	switch {
	case bytes.HasPrefix(rest, commentOpen):
		end := bytes.Index(rest[len(commentOpen):], commentClose)
		if end < 0 {
			return fmt.Errorf("xmlstore: unterminated comment")
		}
		in.pos += len(commentOpen) + end + len(commentClose)
		return nil
	case bytes.HasPrefix(rest, cdataOpen):
		end := bytes.Index(rest[len(cdataOpen):], cdataClose)
		if end < 0 {
			return fmt.Errorf("xmlstore: unterminated CDATA section")
		}
		raw := rest[len(cdataOpen) : len(cdataOpen)+end]
		in.pos += len(cdataOpen) + end + len(cdataClose)
		// A CDATA section is its own character-data segment: adjacent text
		// produces separate text nodes, exactly as the std tokenizer emits
		// separate CharData tokens around it.
		return in.segment(raw, true)
	default:
		return in.directive()
	}
}

// directive skips a <! ... > construct, tracking quotes, nested angle
// brackets (internal DTD subsets), and embedded comments the way
// encoding/xml's directive reader does. Like that reader, the first byte
// after "<!" is consumed without interpretation — no quote, bracket, or
// terminator significance — so <!"> is a complete directive while <!"x">
// opens a quote at the second quote character.
func (in *ingester) directive() error {
	data := in.data
	if in.pos+2 >= len(data) {
		return fmt.Errorf("xmlstore: unterminated directive")
	}
	i := in.pos + 3
	depth := 1
	for i < len(data) {
		switch c := data[i]; c {
		case '"', '\'':
			j := i + 1
			for j < len(data) && data[j] != c {
				j++
			}
			if j >= len(data) {
				return fmt.Errorf("xmlstore: unterminated directive")
			}
			i = j + 1
		case '<':
			if bytes.HasPrefix(data[i:], commentOpen) {
				end := bytes.Index(data[i+len(commentOpen):], commentClose)
				if end < 0 {
					return fmt.Errorf("xmlstore: unterminated comment")
				}
				i += len(commentOpen) + end + len(commentClose)
			} else {
				depth++
				i++
			}
		case '>':
			depth--
			i++
			if depth == 0 {
				in.pos = i
				return nil
			}
		default:
			i++
		}
	}
	return fmt.Errorf("xmlstore: unterminated directive")
}

// procInst skips a processing instruction (including the XML declaration).
func (in *ingester) procInst() error {
	end := bytes.Index(in.data[in.pos+2:], []byte("?>"))
	if end < 0 {
		return fmt.Errorf("xmlstore: unterminated processing instruction")
	}
	in.pos += 2 + end + 2
	return nil
}
