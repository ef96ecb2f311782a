package xmlutil

import (
	"sync"
	"testing"
	"unsafe"
)

// parityCases are inputs on the edges of what the parser accepts. Each
// must get the reference parser's verdict and tree; they also seed the
// differential fuzz targets.
var parityCases = []string{
	// Names and prefixes.
	`<a></A:a>`, `<A:a></a>`, `<A:a></A:a>`, `<A:a></B:a>`, `<a:b:c/>`, `<:a/>`, `<a:/>`,
	`<:a></:a>`, `<a x:y:z="1"/>`, `<1a/>`, `<a1.-_/>`, `<_/>`, `<é/>`, `<aé/>`, `<a` + "\u00a0" + `/>`,
	`<` + "\xc3" + `/>`, `<a ` + "\xff" + `="1"/>`, `<-a/>`, `<.a/>`, `</a>`, `<a></b>`, `<a></a >`, `<a></a x>`,
	// Attributes.
	`<a x="1" x="2" y='3'/>`, `<a p:x="1" q:x="2"/>`, `<a x="1"y="2"/>`, `<a x=1/>`, `<a x/>`,
	`<a x = "1" />`, `<a x="<"/>`, `<a x=">]]>"/>`, `<a x="&#9;&#10;&#13;"/>`, "<a x=\"\t\n\r\n\"/>",
	`<a xmlns="u" xmlns:p="v" p:xmlns="w" xmlns:="z" :xmlns="k"/>`, `<a x="&bogus;"/>`, `<a x="1`,
	`<a/ >`, `<a / >`, `<a x="'"/>`,
	// Character data and references.
	`<a>&lt;&gt;&amp;&apos;&quot;</a>`, `<a>&#65;&#x41;&#0065;&#x0041;</a>`, `<a>&#X41;</a>`, `<a>&#;</a>`,
	`<a>&#x;</a>`, `<a>&#0;</a>`, `<a>&#xD800;</a>`, `<a>&#xFFFE;</a>`, `<a>&#x10FFFF;</a>`, `<a>&#x110000;</a>`,
	`<a>&#99999999999999999999999;</a>`, `<a>&amp</a>`, `<a>& b</a>`, `<a>&nbsp;</a>`, `<a>&` + "é" + `;</a>`,
	`<a>]]></a>`, `<a>]]&gt;</a>`, `<a>]&amp;]></a>`, `<a>]] ></a>`, "<a>x\r\ny\rz\r\r\nw</a>",
	"<a>\x00</a>", "<a>\x01</a>", "<a>\x7f</a>", "<a>\xff</a>", "<a>\xed\xa0\x80</a>", "<a>\xef\xbf\xbe</a>",
	"<a>\xef\xbf\xbd</a>", "<a>\u2028 x \u00a0</a>", "<a>\u0085</a>",
	`<a> x <b/> y </a>`, `<a>x<b>y</b>z</a>`, `<a>   </a>`,
	// CDATA, comments, processing instructions, directives.
	`<a><![CDATA[<&>]]></a>`, "<a><![CDATA[x\r\ny]]></a>", `<a><![CDATA[]]]></a>`, `<a><![CDATA[x]]`,
	`<a><![cdata[x]]></a>`, "<a><![CDATA[\x01]]></a>", `<![CDATA[x]]><a/>`,
	`<a><!-- c --></a>`, `<a><!-- a -- b --></a>`, `<a><!-- x ---></a>`, `<a><!----></a>`, `<a><!---></a>`,
	`<a><!- x --></a>`, `<a><!--x`, "<a><!-- \x00\xff --></a>",
	`<?xml version="1.0"?><a/>`, `<?xml version="1.1"?><a/>`, `<?xml version='1.0' encoding='UTF-8'?><a/>`,
	`<?xml version="1.0" encoding="latin1"?><a/>`, `<?xml encoding="utf-8"?><a/>`, `<?xml version=version="1.1"?><a/>`,
	`<a><?xml version="2"?></a>`, `<?XML version="2"?><a/>`, `<?pi anything <>&?><a/>`, `<?1pi?><a/>`, `<? pi?><a/>`,
	`<?xml?><a/>`, `<?a:b:c x?><a/>`, `<?pi`, `<?xml version="1.0"`,
	`<!DOCTYPE a><a/>`, `<!DOCTYPE a [<!ENTITY e "x">]><a/>`, `<!DOCTYPE a "<>"><a/>`, `<!DOCTYPE a [<!-- > -->]><a/>`,
	`<!DOCTYPE a <x><a/>`, `<!>><a/>`, `<!"><a/>`, `<!DOCTYPE a '<'><a/>`, `<!DOCTYPE <<!-x>>><a/>`, `<!DOCTYPE`,
	// Document structure.
	``, `   `, `text`, `text<a/>text`, `<a/><b/>`, `<a/><!-- after -->`, `<a/>&bogus;`, `<a/>]]>`, `<a>`, `<a><b></a>`,
	`<a/></a>`, `<`, `<a`, `<a x="1"`, `<a></a`, "\ufeff<a/>", `<a/>` + "\x00",
	// Envelopes as the program writes them.
	`<Envelope><Operation>GetDeployments</Operation><Trace trace="t1" span="s2"/><HLC t="2026-01-02T03:04:05.123456789Z" site="site-a"/><Deadline budget_ms="142.512"/><Body><Type>JPOVray</Type></Body></Envelope>`,
	`<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body><x:Get xmlns:x="urn:x" x:id="1">v</x:Get></soap:Body></soap:Envelope>`,
}

func TestParseMatchesReference(t *testing.T) {
	for _, s := range parityCases {
		got, err := ParseString(s)
		want, refErr := refParseString(s)
		if (err == nil) != (refErr == nil) {
			t.Errorf("verdicts differ on %q:\n parser: %v\n   ref: %v", s, err, refErr)
			continue
		}
		if err == nil && !sameTree(got, want) {
			t.Errorf("trees differ on %q:\n parser: %s\n   ref: %s", s, refString(got), refString(want))
		}
	}
}

// TestNameTablesMatchReference checks every rune of the Basic
// Multilingual Plane, and a sample above it, as the first and as a later
// character of an element name.
func TestNameTablesMatchReference(t *testing.T) {
	for r := rune(0x80); r <= 0x10FFFF; r++ {
		if r > 0xFFFF && r%251 != 0 || r >= 0xD800 && r <= 0xDFFF {
			continue
		}
		for _, s := range []string{"<" + string(r) + "/>", "<a" + string(r) + "/>"} {
			_, err := ParseString(s)
			_, refErr := refParseString(s)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("verdicts differ on %q: parser %v, ref %v", s, err, refErr)
			}
		}
	}
}

// TestParsedStringsDoNotAliasInput: no string in a parsed tree points into
// the buffer the parser read. A registry keeps decoded names for as long
// as a deployment lives, and a slice of the envelope would keep the whole
// envelope alive with it.
func TestParsedStringsDoNotAliasInput(t *testing.T) {
	doc := `<?xml version="1.0"?><p:Envelope xmlns:p="urn:p" id="e1"><Operation>GetDeployments</Operation>` +
		`<Body><List><Deployment name="d1" host="h1">  /opt/app  </Deployment>` +
		`<Deployment name="d2" host="h&amp;2">x&lt;y<![CDATA[z]]></Deployment><Empty a=""/></List></Body></p:Envelope>`
	p := new(parser)
	p.in = []byte(doc)
	root, err := p.parse()
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(p.in)))
	hi := lo + uintptr(len(p.in))
	check := func(what, s string) {
		if s == "" {
			return
		}
		if at := uintptr(unsafe.Pointer(unsafe.StringData(s))); at >= lo && at < hi {
			t.Errorf("%s %q aliases the input buffer", what, s)
		}
	}
	count := 0
	root.Walk(func(n *Node) bool {
		check("name", n.Name)
		check("text", n.Text)
		for _, a := range n.Attrs {
			check("attribute name", a.Name)
			check("attribute value", a.Value)
		}
		count++
		return true
	})
	if count != 7 {
		t.Fatalf("walked %d elements, want 7", count)
	}
}

// The writer escapes into its output: a tree of plain names and text
// renders with a single allocation, the string itself.
func TestStringAllocations(t *testing.T) {
	n := MustParse(`<Envelope><Body><List><D name="a" host="h">/opt/a</D><D name="b" host="h">/opt/b</D></List></Body></Envelope>`)
	if allocs := testing.AllocsPerRun(100, func() { _ = n.String() }); allocs > 1 {
		t.Fatalf("String allocated %.0f times, want 1", allocs)
	}
}

// Parsers are pooled and share nothing while in use: goroutines parsing
// different documents at once each get their own tree.
func TestParseConcurrent(t *testing.T) {
	docs := parityCases[len(parityCases)-2:]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := docs[(g+i)%len(docs)]
				got, err := ParseString(s)
				want, _ := refParseString(s)
				if err != nil || !sameTree(got, want) {
					t.Errorf("goroutine %d: parse of %q differs from the reference (err %v)", g, s, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
