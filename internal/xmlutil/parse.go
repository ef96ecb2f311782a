package xmlutil

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"unicode/utf8"
)

// The parser reads the whole (size-bounded) document into a byte slice and
// builds the tree in one pass over it. It accepts exactly what a strict
// encoding/xml decoder accepts, and builds the same tree as the reference
// parser on top of one that the package's tests compare it against:
//
//   - names are XML 1.0 names with at most one ':'; a prefix is dropped,
//     and xmlns / xmlns:* attributes are not kept;
//   - an end tag must repeat its start tag's name, prefix included;
//   - character data and attribute values must be valid UTF-8 in the XML
//     character range; the five predefined entities and decimal or
//     hexadecimal character references are decoded, any other '&' is an
//     error; CR and CRLF become LF; "]]>" may not appear in content;
//   - CDATA sections add their text; comments (which may not contain
//     "--"), processing instructions and <!DOCTYPE …> directives are
//     skipped; an <?xml …?> declaration must name version 1.0 and, if it
//     names one, the UTF-8 encoding;
//   - the document has one root element; text outside it is checked but
//     dropped.
//
// No string in the tree aliases the input: names are interned, every text
// and attribute value is its own allocation. The input buffer is pooled
// and overwritten by the next parse, and callers keep decoded values long
// after the envelope is gone: an 8-byte name must not pin a 16 MiB body.

const unexpectedEOF = "unexpected EOF"

// Parse reads one XML document (or fragment with a single root) into a tree.
func Parse(r io.Reader) (*Node, error) {
	p := parsers.Get().(*parser)
	defer p.release()
	if err := p.read(r); err != nil {
		return nil, fmt.Errorf("xmlutil: parse: %w", err)
	}
	return p.parse()
}

// ParseString parses XML from a string.
func ParseString(s string) (*Node, error) {
	p := parsers.Get().(*parser)
	defer p.release()
	p.in = append(p.in[:0], s...)
	return p.parse()
}

// MustParse parses XML and panics on error. For use with literals in tests
// and examples.
func MustParse(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

// parser is the scratch state of one parse. Parsers are pooled: the
// input buffer, the stacks and the name table are reused across parses.
type parser struct {
	in    []byte
	pos   int
	text  []byte  // decoded character data of the open elements, innermost last
	open  []frame // open elements, innermost last
	kids  []*Node // finished children of the open elements, innermost last
	attrs []Attr  // attributes of the start tag being read
	names [256]string
}

// frame is one open element: its node, its raw qualified name (which the
// end tag must repeat) and where its text and children start on the
// shared stacks.
type frame struct {
	n                  *Node
	nameStart, nameEnd int
	text, kids         int
}

var parsers = sync.Pool{New: func() any { return new(parser) }}

// maxPooledBuf bounds the buffers a pooled parser keeps, so one 16 MiB
// envelope does not stay resident for the life of the process.
const maxPooledBuf = 256 << 10

func (p *parser) release() {
	clear(p.open[:cap(p.open)])
	clear(p.kids[:cap(p.kids)])
	clear(p.attrs[:cap(p.attrs)])
	p.open, p.kids, p.attrs = p.open[:0], p.kids[:0], p.attrs[:0]
	if cap(p.in) > maxPooledBuf {
		p.in = nil
	}
	if cap(p.text) > maxPooledBuf {
		p.text = nil
	}
	parsers.Put(p)
}

// read fills p.in with everything r yields.
func (p *parser) read(r io.Reader) error {
	b := bytes.NewBuffer(p.in[:0])
	_, err := b.ReadFrom(r)
	p.in = b.Bytes()
	return err
}

func (p *parser) syntaxError(msg string) error {
	line := 1 + bytes.Count(p.in[:min(p.pos, len(p.in))], []byte{'\n'})
	return fmt.Errorf("xmlutil: parse: line %d: %s", line, msg)
}

func (p *parser) parse() (*Node, error) {
	p.pos, p.text = 0, p.text[:0]
	var root *Node
	in := p.in
	for p.pos < len(in) {
		var err error
		switch {
		case in[p.pos] != '<':
			err = p.charData(0)
		case p.pos+1 >= len(in):
			err = p.syntaxError(unexpectedEOF)
		case in[p.pos+1] == '/':
			err = p.endTag()
		case in[p.pos+1] == '?':
			err = p.procInst()
		case in[p.pos+1] == '!':
			err = p.bang()
		default:
			var n *Node
			if n, err = p.startTag(); err == nil && n != nil {
				if root != nil {
					return nil, fmt.Errorf("xmlutil: multiple root elements")
				}
				root = n
			}
		}
		if err != nil {
			return nil, err
		}
		if len(p.open) == 0 {
			p.text = p.text[:0] // text outside the root: checked, dropped
		}
	}
	if len(p.open) != 0 {
		return nil, p.syntaxError(unexpectedEOF)
	}
	if root == nil {
		return nil, fmt.Errorf("xmlutil: empty document")
	}
	return root, nil
}

// startTag reads <name attr="value" …> or <name …/> at p.pos. It returns
// the new node when it is a root element (opened with no element open).
func (p *parser) startTag() (*Node, error) {
	in := p.in
	p.pos++ // '<'
	nameStart := p.pos
	_, local, err := p.qname("expected element name after <")
	if err != nil {
		return nil, err
	}
	nameEnd := p.pos
	n := &Node{Name: local}
	p.attrs = p.attrs[:0]
	empty := false
	for {
		p.space()
		if p.pos >= len(in) {
			return nil, p.syntaxError(unexpectedEOF)
		}
		c := in[p.pos]
		if c == '/' {
			p.pos++
			if p.pos >= len(in) {
				return nil, p.syntaxError(unexpectedEOF)
			}
			if in[p.pos] != '>' {
				return nil, p.syntaxError("expected /> in element")
			}
			p.pos++
			empty = true
			break
		}
		if c == '>' {
			p.pos++
			break
		}
		if err := p.attr(); err != nil {
			return nil, err
		}
	}
	if len(p.attrs) > 0 {
		n.Attrs = make([]Attr, len(p.attrs))
		copy(n.Attrs, p.attrs)
	}
	var root *Node
	if len(p.open) == 0 {
		root = n
	} else {
		p.kids = append(p.kids, n)
	}
	if !empty {
		p.open = append(p.open, frame{n: n, nameStart: nameStart, nameEnd: nameEnd, text: len(p.text), kids: len(p.kids)})
	}
	return root, nil
}

// attr reads one name="value" pair and records it the way SetAttr does:
// a repeated local name replaces the earlier value in place.
func (p *parser) attr() error {
	prefix, local, err := p.qname("expected attribute name in element")
	if err != nil {
		return err
	}
	p.space()
	if p.pos >= len(p.in) {
		return p.syntaxError(unexpectedEOF)
	}
	if p.in[p.pos] != '=' {
		return p.syntaxError("attribute name without = in element")
	}
	p.pos++
	p.space()
	if p.pos >= len(p.in) {
		return p.syntaxError(unexpectedEOF)
	}
	q := p.in[p.pos]
	if q != '"' && q != '\'' {
		return p.syntaxError("unquoted or missing attribute value in element")
	}
	p.pos++
	mark := len(p.text)
	if err := p.charData(q); err != nil {
		return err
	}
	p.pos++ // closing quote
	val := p.text[mark:]
	p.text = p.text[:mark]
	if string(prefix) == "xmlns" || local == "xmlns" {
		return nil // a namespace declaration, not data
	}
	value := string(val)
	for i := range p.attrs {
		if p.attrs[i].Name == local {
			p.attrs[i].Value = value
			return nil
		}
	}
	p.attrs = append(p.attrs, Attr{Name: local, Value: value})
	return nil
}

// endTag reads </name> and closes the innermost open element.
func (p *parser) endTag() error {
	in := p.in
	p.pos += 2 // "</"
	start := p.pos
	for p.pos < len(in) && nameByte[in[p.pos]] {
		p.pos++
	}
	name := in[start:p.pos]
	if p.pos >= len(in) {
		return p.syntaxError(unexpectedEOF)
	}
	if len(p.open) == 0 {
		return p.syntaxError("unexpected end element </" + string(name) + ">")
	}
	f := p.open[len(p.open)-1]
	if !bytes.Equal(name, in[f.nameStart:f.nameEnd]) {
		return p.syntaxError("element <" + string(in[f.nameStart:f.nameEnd]) + "> closed by </" + string(name) + ">")
	}
	p.space()
	if p.pos >= len(in) {
		return p.syntaxError(unexpectedEOF)
	}
	if in[p.pos] != '>' {
		return p.syntaxError("invalid characters between </" + string(name) + " and >")
	}
	p.pos++
	p.open = p.open[:len(p.open)-1]
	n := f.n
	if t := bytes.TrimSpace(p.text[f.text:]); len(t) > 0 {
		n.Text = string(t)
	}
	p.text = p.text[:f.text]
	if kids := p.kids[f.kids:]; len(kids) > 0 {
		n.Children = make([]*Node, len(kids))
		copy(n.Children, kids)
		p.kids = p.kids[:f.kids]
	}
	return nil
}

// qname reads an element or attribute name at p.pos and returns its
// prefix and its local part, interned. A name with two or more colons is
// rejected; "p:l" yields "p" and "l", and a name with an empty prefix or
// local part is all local part.
func (p *parser) qname(missing string) (prefix []byte, local string, err error) {
	in := p.in
	start := p.pos
	colon := -1
	for p.pos < len(in) && nameByte[in[p.pos]] {
		if in[p.pos] == ':' {
			if colon >= 0 {
				return nil, "", p.syntaxError(missing)
			}
			colon = p.pos
		}
		p.pos++
	}
	b := in[start:p.pos]
	if p.pos >= len(in) {
		return nil, "", p.syntaxError(unexpectedEOF)
	}
	if len(b) == 0 {
		return nil, "", p.syntaxError(missing)
	}
	if !validName(b) {
		return nil, "", p.syntaxError("invalid XML name: " + string(b))
	}
	if colon > start && colon < p.pos-1 {
		prefix, b = in[start:colon], in[colon+1:p.pos]
	}
	return prefix, p.intern(b), nil
}

// intern returns b as a string, reusing the string from an earlier name
// with the same bytes when the direct-mapped table still holds it.
func (p *parser) intern(b []byte) string {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &p.names[h%uint32(len(p.names))]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}

// space skips XML white space.
func (p *parser) space() {
	for p.pos < len(p.in) {
		switch p.in[p.pos] {
		case ' ', '\r', '\n', '\t':
			p.pos++
		default:
			return
		}
	}
}

// plainByte marks the bytes charData copies without a second look: ASCII
// from the XML character range other than the markup and quote bytes and
// CR.
var plainByte = func() (t [256]bool) {
	for c := 0; c < utf8.RuneSelf; c++ {
		t[c] = c >= 0x20 || c == '\t' || c == '\n'
	}
	for _, c := range "<&>\"'\r" {
		t[c] = false
	}
	return t
}()

// charData decodes character data at p.pos and appends it to p.text. With
// quote == 0 it reads element content up to the next '<' (or the end of
// input); otherwise an attribute value up to the closing quote, which is
// left at p.pos.
func (p *parser) charData(quote byte) error {
	in := p.in
	start, i := p.pos, p.pos
	run := i // first byte not yet copied to p.text
	for {
		for i < len(in) && plainByte[in[i]] {
			i++
		}
		if i >= len(in) {
			if quote != 0 {
				p.pos = i
				return p.syntaxError(unexpectedEOF)
			}
			break
		}
		c := in[i]
		if c == '<' {
			if quote != 0 {
				p.pos = i
				return p.syntaxError("unescaped < inside quoted string")
			}
			break
		}
		if c == quote && quote != 0 {
			break
		}
		switch {
		case c == '&':
			p.text = append(p.text, in[run:i]...)
			var err error
			if i, err = p.ref(i); err != nil {
				return err
			}
			run = i
		case c == '\r':
			p.text = append(append(p.text, in[run:i]...), '\n')
			i++
			if i < len(in) && in[i] == '\n' {
				i++
			}
			run = i
		case c == '>':
			if quote == 0 && i-start >= 2 && in[i-1] == ']' && in[i-2] == ']' {
				p.pos = i
				return p.syntaxError("unescaped ]]> not in CDATA section")
			}
			i++
		case c == '"' || c == '\'':
			i++
		case c < utf8.RuneSelf:
			p.pos = i
			return p.syntaxError(fmt.Sprintf("illegal character code %U", rune(c)))
		default:
			r, size := utf8.DecodeRune(in[i:])
			if r == utf8.RuneError && size == 1 {
				p.pos = i
				return p.syntaxError("invalid UTF-8")
			}
			if !isInCharacterRange(r) {
				p.pos = i
				return p.syntaxError(fmt.Sprintf("illegal character code %U", r))
			}
			i += size
		}
	}
	p.text = append(p.text, in[run:i]...)
	p.pos = i
	return nil
}

// ref decodes the entity or character reference starting at in[i] == '&',
// appends its character to p.text and returns the index after the ';'.
func (p *parser) ref(i int) (int, error) {
	in := p.in
	start := i
	i++
	if i < len(in) && in[i] == '#' {
		i++
		base := rune(10)
		if i < len(in) && in[i] == 'x' {
			base = 16
			i++
		}
		digits := i
		var r rune
		for ; i < len(in); i++ {
			d := digitVal(in[i], base)
			if d < 0 {
				break
			}
			if r <= utf8.MaxRune {
				r = r*base + d
			}
		}
		if i >= len(in) || in[i] != ';' || i == digits || r > utf8.MaxRune {
			return 0, p.badRef(start, i)
		}
		if 0xD800 <= r && r <= 0xDFFF {
			r = utf8.RuneError // what string(rune(r)) yields for a surrogate
		}
		if !isInCharacterRange(r) {
			p.pos = start
			return 0, p.syntaxError(fmt.Sprintf("illegal character code %U", r))
		}
		p.text = utf8.AppendRune(p.text, r)
		return i + 1, nil
	}
	name := i
	for i < len(in) && nameByte[in[i]] {
		i++
	}
	if i >= len(in) || in[i] != ';' {
		return 0, p.badRef(start, i)
	}
	var c byte
	switch string(in[name:i]) {
	case "lt":
		c = '<'
	case "gt":
		c = '>'
	case "amp":
		c = '&'
	case "apos":
		c = '\''
	case "quot":
		c = '"'
	default:
		return 0, p.badRef(start, i)
	}
	p.text = append(p.text, c)
	return i + 1, nil
}

func (p *parser) badRef(start, i int) error {
	p.pos = start
	if i >= len(p.in) {
		return p.syntaxError(unexpectedEOF)
	}
	return p.syntaxError("invalid character entity " + string(p.in[start:i+1]))
}

func digitVal(c byte, base rune) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case base == 16 && 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case base == 16 && 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return -1
}

// isInCharacterRange reports whether r is an XML 1.0 Char.
func isInCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// bang reads a markup declaration at p.pos: a comment, a CDATA section
// (whose text joins the open element's) or a directive such as DOCTYPE,
// which is skipped.
func (p *parser) bang() error {
	in := p.in
	i := p.pos + 2 // "<!"
	if i >= len(in) {
		return p.syntaxError(unexpectedEOF)
	}
	switch in[i] {
	case '-':
		if i+1 >= len(in) {
			return p.syntaxError(unexpectedEOF)
		}
		if in[i+1] != '-' {
			return p.syntaxError("invalid sequence <!- not part of <!--")
		}
		body := i + 2
		j := bytes.Index(in[body:], []byte("--"))
		if j < 0 || body+j+2 >= len(in) {
			p.pos = len(in)
			return p.syntaxError(unexpectedEOF)
		}
		if in[body+j+2] != '>' {
			p.pos = body + j
			return p.syntaxError(`invalid sequence "--" not allowed in comments`)
		}
		p.pos = body + j + 3
		return nil
	case '[':
		for k := 0; k < len("CDATA["); k++ {
			if i+1+k >= len(in) {
				return p.syntaxError(unexpectedEOF)
			}
			if in[i+1+k] != "CDATA["[k] {
				return p.syntaxError("invalid <![ sequence")
			}
		}
		body := i + 1 + len("CDATA[")
		j := bytes.Index(in[body:], []byte("]]>"))
		if j < 0 {
			p.pos = len(in)
			return p.syntaxError("unexpected EOF in CDATA section")
		}
		p.pos = body + j + 3
		return p.cdata(in[body : body+j])
	}
	return p.directive(i)
}

// cdata checks a CDATA section's text and appends it with line ends
// normalized.
func (p *parser) cdata(b []byte) error {
	run := 0
	for i := 0; i < len(b); {
		c := b[i]
		switch {
		case plainByte[c] || c == '<' || c == '&' || c == '>' || c == '"' || c == '\'':
			i++
		case c == '\r':
			p.text = append(append(p.text, b[run:i]...), '\n')
			i++
			if i < len(b) && b[i] == '\n' {
				i++
			}
			run = i
		case c < utf8.RuneSelf:
			return p.syntaxError(fmt.Sprintf("illegal character code %U", rune(c)))
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return p.syntaxError("invalid UTF-8")
			}
			if !isInCharacterRange(r) {
				return p.syntaxError(fmt.Sprintf("illegal character code %U", r))
			}
			i += size
		}
	}
	p.text = append(p.text, b[run:]...)
	return nil
}

// directive skips <!…> up to its closing '>'. Angle brackets nest, except
// inside quotes, and <!-- … --> inside is skipped whole. The byte right
// after "<!" is taken as is, as encoding/xml does.
func (p *parser) directive(i int) error {
	in := p.in
	i++
	var inquote byte
	depth := 0
	var b byte
	pending := false // b was read by the comment matcher and is still to be handled
	for {
		if !pending {
			if i >= len(in) {
				p.pos = i
				return p.syntaxError(unexpectedEOF)
			}
			b = in[i]
			i++
			if inquote == 0 && b == '>' && depth == 0 {
				break
			}
		}
		pending = false
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for k := 0; k < len("!--"); k++ {
				if i >= len(in) {
					p.pos = i
					return p.syntaxError(unexpectedEOF)
				}
				b = in[i]
				i++
				if b != "!--"[k] {
					depth++
					pending = true
					break
				}
			}
			if pending {
				continue
			}
			j := bytes.Index(in[i:], []byte("-->"))
			if j < 0 {
				p.pos = len(in)
				return p.syntaxError(unexpectedEOF)
			}
			i += j + 3
		}
	}
	p.pos = i
	return nil
}

// procInst skips a processing instruction at p.pos, checking the XML
// declaration's version and encoding.
func (p *parser) procInst() error {
	in := p.in
	p.pos += 2 // "<?"
	start := p.pos
	for p.pos < len(in) && nameByte[in[p.pos]] {
		p.pos++
	}
	target := in[start:p.pos]
	if p.pos >= len(in) {
		return p.syntaxError(unexpectedEOF)
	}
	if len(target) == 0 {
		return p.syntaxError("expected target name after <?")
	}
	if !validName(target) {
		return p.syntaxError("invalid XML name: " + string(target))
	}
	p.space()
	body := p.pos
	j := bytes.Index(in[body:], []byte("?>"))
	if j < 0 {
		p.pos = len(in)
		return p.syntaxError(unexpectedEOF)
	}
	p.pos = body + j + 2
	if string(target) != "xml" {
		return nil
	}
	content := string(in[body : body+j])
	if ver := declParam("version", content); ver != "" && ver != "1.0" {
		return fmt.Errorf("xmlutil: parse: unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := declParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return fmt.Errorf("xmlutil: parse: unsupported encoding %q; only UTF-8 is supported", enc)
	}
	return nil
}

// declParam returns the quoted value of param in an XML declaration's
// content, or "". It reads the declaration as encoding/xml does: the first
// `param=` directly followed by a quote counts, and each `param=` that is
// not is skipped together with the byte after its '='.
func declParam(param, s string) string {
	param += "="
	for i := 0; i < len(s); {
		k := strings.Index(s[i:], param)
		if k < 0 || i+k+len(param) >= len(s) {
			return ""
		}
		i += k + len(param)
		q := s[i]
		i++
		if q == '\'' || q == '"' {
			if j := strings.IndexByte(s[i:], q); j >= 0 {
				return s[i : i+j]
			}
			return ""
		}
	}
	return ""
}
