// Package xmlutil implements the property-document tree shared by the
// WSRF resource layer, the XPath engine and the MDS index.
//
// A WS-Resource exposes its state as a resource property document: an XML
// element tree. GLARE's registries aggregate many such documents and query
// them either by name (hash table) or by XPath. This package provides the
// mutable tree, XML (de)serialization, and deep-copy/equality helpers.
package xmlutil

import (
	"sort"
	"strings"
	"unicode/utf8"
)

// Attr is a single XML attribute. Attributes keep insertion order so that
// serialization is deterministic.
type Attr struct {
	Name  string
	Value string
}

// Node is one element of a property document.
type Node struct {
	Name     string
	Attrs    []Attr
	Children []*Node
	Text     string // character data directly inside this element
}

// NewNode creates an element with the given name and optional text.
func NewNode(name string, text ...string) *Node {
	n := &Node{Name: name}
	if len(text) > 0 {
		n.Text = strings.Join(text, "")
	}
	return n
}

// Elem creates a child element with the given name and text, appends it and
// returns the child (for chaining further construction).
func (n *Node) Elem(name string, text ...string) *Node {
	c := NewNode(name, text...)
	n.Children = append(n.Children, c)
	return c
}

// Add appends existing child nodes and returns the receiver.
func (n *Node) Add(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// SetAttr sets (or replaces) an attribute and returns the receiver.
func (n *Node) SetAttr(name, value string) *Node {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return n
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
	return n
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrOr returns the named attribute or a default.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// First returns the first direct child with the given name, or nil.
func (n *Node) First(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// All returns every direct child with the given name.
func (n *Node) All(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// ChildText returns the text of the first child with the given name, or "".
func (n *Node) ChildText(name string) string {
	if c := n.First(name); c != nil {
		return strings.TrimSpace(c.Text)
	}
	return ""
}

// Remove deletes the first direct child equal (by pointer) to target and
// reports whether it was found.
func (n *Node) Remove(target *Node) bool {
	for i, c := range n.Children {
		if c == target {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			return true
		}
	}
	return false
}

// Walk visits n and all descendants in document order. Returning false from
// fn prunes the subtree below the visited node.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Descendants returns every descendant (excluding n) with the given name;
// "*" matches all element names.
func (n *Node) Descendants(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		c.Walk(func(d *Node) bool {
			if name == "*" || d.Name == name {
				out = append(out, d)
			}
			return true
		})
	}
	return out
}

// Clone returns a deep copy of the subtree rooted at n.
func (n *Node) Clone() *Node {
	c := &Node{Name: n.Name, Text: n.Text}
	if len(n.Attrs) > 0 {
		c.Attrs = make([]Attr, len(n.Attrs))
		copy(c.Attrs, n.Attrs)
	}
	for _, ch := range n.Children {
		c.Children = append(c.Children, ch.Clone())
	}
	return c
}

// Equal reports deep structural equality, ignoring attribute order.
func (n *Node) Equal(o *Node) bool {
	if n == nil || o == nil {
		return n == o
	}
	if n.Name != o.Name || strings.TrimSpace(n.Text) != strings.TrimSpace(o.Text) ||
		len(n.Attrs) != len(o.Attrs) || len(n.Children) != len(o.Children) {
		return false
	}
	am, bm := map[string]string{}, map[string]string{}
	for _, a := range n.Attrs {
		am[a.Name] = a.Value
	}
	for _, a := range o.Attrs {
		bm[a.Name] = a.Value
	}
	for k, v := range am {
		if bm[k] != v {
			return false
		}
	}
	for i := range n.Children {
		if !n.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// String serializes the subtree as compact XML.
func (n *Node) String() string { return n.render(-1) }

// Indent serializes the subtree as indented XML.
func (n *Node) Indent() string { return n.render(0) }

func (n *Node) render(indent int) string {
	var b strings.Builder
	size := n.size()
	b.Grow(size + size/16) // escapes and indentation rarely need more
	n.write(&b, indent, 0)
	return b.String()
}

// size is the length of the compact serialization before escaping.
func (n *Node) size() int {
	s := 2*len(n.Name) + 5 + len(n.Text)
	for _, a := range n.Attrs {
		s += len(a.Name) + len(a.Value) + 4
	}
	for _, c := range n.Children {
		s += c.size()
	}
	return s
}

func (n *Node) write(b *strings.Builder, indent, depth int) {
	if indent >= 0 {
		writePad(b, depth)
	}
	b.WriteByte('<')
	b.WriteString(n.Name)
	for _, a := range n.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Name)
		b.WriteString(`="`)
		escapeAttr(b, a.Value)
		b.WriteByte('"')
	}
	if len(n.Children) == 0 && n.Text == "" {
		b.WriteString("/>")
		if indent >= 0 {
			b.WriteByte('\n')
		}
		return
	}
	b.WriteByte('>')
	escapeText(b, n.Text)
	if len(n.Children) > 0 {
		if indent >= 0 {
			b.WriteByte('\n')
		}
		for _, c := range n.Children {
			c.write(b, indent, depth+1)
		}
		if indent >= 0 {
			writePad(b, depth)
		}
	}
	b.WriteString("</")
	b.WriteString(n.Name)
	b.WriteByte('>')
	if indent >= 0 {
		b.WriteByte('\n')
	}
}

func writePad(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

// textEscapes holds the replacement of each ASCII byte that needs one in
// character data, following encoding/xml's EscapeText: the markup and
// quote bytes and tab, newline and carriage return as references, and the
// other C0 controls, which are not XML characters, as U+FFFD.
var textEscapes = func() (t [utf8.RuneSelf]string) {
	for c := range t[:0x20] {
		t[c] = "\uFFFD"
	}
	t['"'], t['\''], t['&'], t['<'], t['>'] = "&#34;", "&#39;", "&amp;", "&lt;", "&gt;"
	t['\t'], t['\n'], t['\r'] = "&#x9;", "&#xA;", "&#xD;"
	return t
}()

// attrEscapes holds the replacement of each ASCII byte that needs one in
// an attribute value. Tab, newline and carriage return are written as
// character references: a parser normalizes them when they appear
// literally, so only the references round-trip.
var attrEscapes = [utf8.RuneSelf]string{
	'&': "&amp;", '<': "&lt;", '>': "&gt;", '"': "&quot;",
	'\t': "&#x9;", '\n': "&#xA;", '\r': "&#xD;",
}

// escapeText writes s as character data. A byte sequence that is not
// valid UTF-8, or a rune outside the XML character range, is written as
// U+FFFD.
func escapeText(b *strings.Builder, s string) {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if esc := textEscapes[c]; esc != "" {
				b.WriteString(s[last:i])
				b.WriteString(esc)
				last = i + 1
			}
			i++
			continue
		}
		r, width := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && width == 1 || !isInCharacterRange(r) {
			b.WriteString(s[last:i])
			b.WriteString("\uFFFD")
			last = i + width
		}
		i += width
	}
	b.WriteString(s[last:])
}

// escapeAttr writes s as an attribute value. Bytes other than the escaped
// ASCII ones are copied as they are.
func escapeAttr(b *strings.Builder, s string) {
	last := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < utf8.RuneSelf && attrEscapes[c] != "" {
			b.WriteString(s[last:i])
			b.WriteString(attrEscapes[c])
			last = i + 1
		}
	}
	b.WriteString(s[last:])
}

// SortChildrenByName orders direct children by element name then text; used
// where deterministic aggregation output is needed.
func (n *Node) SortChildrenByName() {
	sort.SliceStable(n.Children, func(i, j int) bool {
		a, b := n.Children[i], n.Children[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Text < b.Text
	})
}
