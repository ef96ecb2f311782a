package atr

import (
	"reflect"
	"testing"

	"glare/internal/xmlutil"
)

// FuzzEntryFromXML: the type-resource decoder Restore and Adopt run on
// documents from disk and from peers never panics, and for any input that
// decodes, encoding the entry to XML text and decoding that again yields
// the same entry.
func FuzzEntryFromXML(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		n, err := xmlutil.ParseString(s)
		if err != nil {
			return
		}
		e, err := entryFromXML(n)
		if err != nil {
			return
		}
		doc := e.toXML().String()
		n2, err := xmlutil.ParseString(doc)
		if err != nil {
			t.Fatalf("encoded %q does not parse: %v", doc, err)
		}
		e2, err := entryFromXML(n2)
		if err != nil {
			t.Fatalf("encoded %q does not decode: %v", doc, err)
		}
		if !reflect.DeepEqual(e, e2) {
			t.Fatalf("not a fixed point:\n first %+v\nsecond %+v\n   via %s", e, e2, doc)
		}
	})
}
