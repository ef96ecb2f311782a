package xmlutil

import "testing"

// FuzzParse: Parse never panics, and a parsed tree written back out with
// String re-parses to an Equal tree — what the registries, the store and
// the replicas rely on when a document crosses the wire or the disk.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseString(s)
		if err != nil {
			return
		}
		out := n.String()
		again, err := ParseString(out)
		if err != nil {
			t.Fatalf("re-parse of %q: %v", out, err)
		}
		if !n.Equal(again) {
			t.Fatalf("round trip changed the tree:\n first %s\nsecond %s", out, again)
		}
	})
}

// FuzzParseMatchesReference: on every input the single-pass parser and
// the encoding/xml reference give the same verdict, and on accepted input
// the same tree, attribute order and untrimmed spacing included.
func FuzzParseMatchesReference(f *testing.F) {
	for _, c := range parityCases {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseString(s)
		want, refErr := refParseString(s)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("verdicts differ on %q:\n parser: %v\n   ref: %v", s, err, refErr)
		}
		if err == nil && !sameTree(got, want) {
			t.Fatalf("trees differ on %q:\n parser: %s\n   ref: %s", s, refString(got), refString(want))
		}
	})
}

// FuzzWriterMatchesReference: String and Indent are byte-identical to the
// reference writer, on every tree the parser accepts and on a tree whose
// text and attribute value are the raw input (which may be any bytes).
func FuzzWriterMatchesReference(f *testing.F) {
	for _, c := range parityCases {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, s string) {
		raw := NewNode("Raw", s)
		raw.SetAttr("v", s)
		raw.Elem("Child", s)
		trees := []*Node{raw}
		if n, err := ParseString(s); err == nil {
			trees = append(trees, n)
		}
		for _, n := range trees {
			if got, want := n.String(), refString(n); got != want {
				t.Fatalf("String differs:\n   got %q\n  want %q", got, want)
			}
			if got, want := n.Indent(), refIndent(n); got != want {
				t.Fatalf("Indent differs:\n   got %q\n  want %q", got, want)
			}
		}
	})
}
