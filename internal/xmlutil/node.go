// Package xmlutil implements the property-document tree shared by the
// WSRF resource layer, the XPath engine and the MDS index.
//
// A WS-Resource exposes its state as a resource property document: an XML
// element tree. GLARE's registries aggregate many such documents and query
// them either by name (hash table) or by XPath. This package provides the
// mutable tree, XML (de)serialization, and deep-copy/equality helpers.
package xmlutil

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
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
func (n *Node) String() string {
	var b bytes.Buffer
	n.write(&b, -1, 0)
	return b.String()
}

// Indent serializes the subtree as indented XML.
func (n *Node) Indent() string {
	var b bytes.Buffer
	n.write(&b, 0, 0)
	return b.String()
}

func (n *Node) write(b *bytes.Buffer, indent, depth int) {
	pad := ""
	if indent >= 0 {
		pad = strings.Repeat("  ", depth)
		b.WriteString(pad)
	}
	b.WriteByte('<')
	b.WriteString(n.Name)
	for _, a := range n.Attrs {
		fmt.Fprintf(b, " %s=\"%s\"", a.Name, escapeAttr(a.Value))
	}
	if len(n.Children) == 0 && n.Text == "" {
		b.WriteString("/>")
		if indent >= 0 {
			b.WriteByte('\n')
		}
		return
	}
	b.WriteByte('>')
	if n.Text != "" {
		b.WriteString(escapeText(n.Text))
	}
	if len(n.Children) > 0 {
		if indent >= 0 {
			b.WriteByte('\n')
		}
		for _, c := range n.Children {
			c.write(b, indent, depth+1)
		}
		if indent >= 0 {
			b.WriteString(pad)
		}
	}
	b.WriteString("</")
	b.WriteString(n.Name)
	b.WriteByte('>')
	if indent >= 0 {
		b.WriteByte('\n')
	}
}

func escapeText(s string) string {
	var b bytes.Buffer
	if err := xml.EscapeText(&b, []byte(s)); err != nil {
		return s
	}
	return b.String()
}

// attrEscaper escapes attribute values. Tab, newline and carriage return
// are written as character references: a parser normalizes them when
// they appear literally, so only the references round-trip.
var attrEscaper = strings.NewReplacer(
	"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;",
	"\t", "&#x9;", "\n", "&#xA;", "\r", "&#xD;",
)

func escapeAttr(s string) string { return attrEscaper.Replace(s) }

// Parse reads one XML document (or fragment with a single root) into a tree.
func Parse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var stack []*Node
	var root *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmlutil: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := NewNode(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				n.SetAttr(a.Name.Local, a.Value)
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmlutil: multiple root elements")
				}
				root = n
			} else {
				top := stack[len(stack)-1]
				top.Children = append(top.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmlutil: unbalanced end element %q", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				top.Text += string(t)
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmlutil: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmlutil: unterminated document")
	}
	trimWhitespace(root)
	return root, nil
}

// ParseString parses XML from a string.
func ParseString(s string) (*Node, error) { return Parse(strings.NewReader(s)) }

// MustParse parses XML and panics on error. For use with literals in tests
// and examples.
func MustParse(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

// trimWhitespace removes pure-formatting whitespace text from elements that
// have children (mixed content is preserved only when non-blank).
func trimWhitespace(n *Node) {
	if strings.TrimSpace(n.Text) == "" {
		n.Text = ""
	} else {
		n.Text = strings.TrimSpace(n.Text)
	}
	for _, c := range n.Children {
		trimWhitespace(c)
	}
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
