package xmlutil

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// The reference implementations the differential tests and fuzz targets
// compare the package against: a parser on encoding/xml's strict token
// decoder, and the writer built on fmt and encoding/xml's escaping. The
// package's own parser and writer must agree with them byte for byte.

func refParse(r io.Reader) (*Node, error) {
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
	refTrimWhitespace(root)
	return root, nil
}

func refParseString(s string) (*Node, error) { return refParse(strings.NewReader(s)) }

func refTrimWhitespace(n *Node) {
	if strings.TrimSpace(n.Text) == "" {
		n.Text = ""
	} else {
		n.Text = strings.TrimSpace(n.Text)
	}
	for _, c := range n.Children {
		refTrimWhitespace(c)
	}
}

func refString(n *Node) string {
	var b bytes.Buffer
	refWrite(n, &b, -1, 0)
	return b.String()
}

func refIndent(n *Node) string {
	var b bytes.Buffer
	refWrite(n, &b, 0, 0)
	return b.String()
}

func refWrite(n *Node, b *bytes.Buffer, indent, depth int) {
	pad := ""
	if indent >= 0 {
		pad = strings.Repeat("  ", depth)
		b.WriteString(pad)
	}
	b.WriteByte('<')
	b.WriteString(n.Name)
	for _, a := range n.Attrs {
		fmt.Fprintf(b, " %s=\"%s\"", a.Name, refAttrEscaper.Replace(a.Value))
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
		var t bytes.Buffer
		if err := xml.EscapeText(&t, []byte(n.Text)); err != nil {
			b.WriteString(n.Text)
		} else {
			b.WriteString(t.String())
		}
	}
	if len(n.Children) > 0 {
		if indent >= 0 {
			b.WriteByte('\n')
		}
		for _, c := range n.Children {
			refWrite(c, b, indent, depth+1)
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

var refAttrEscaper = strings.NewReplacer(
	"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;",
	"\t", "&#x9;", "\n", "&#xA;", "\r", "&#xD;",
)

// sameTree reports exact structural identity: names, text and attributes
// in order, children in order. Stricter than Equal, which trims text and
// ignores attribute order.
func sameTree(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Name != b.Name || a.Text != b.Text || len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	for i := range a.Children {
		if !sameTree(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}
