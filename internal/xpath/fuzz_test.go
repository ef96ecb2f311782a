package xpath

import "testing"

// FuzzCompile: any source either fails to compile or compiles to an
// expression that selects on a small registry document without
// panicking. The seed corpus holds the registry and MDS queries the
// program issues.
func FuzzCompile(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Compile(src)
		if err != nil {
			return
		}
		e.Select(doc)
		e.SelectFirst(doc)
	})
}
