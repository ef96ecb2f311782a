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
