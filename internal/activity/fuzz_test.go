package activity

import (
	"reflect"
	"testing"

	"glare/internal/xmlutil"
)

// fuzzDecoder checks one document decoder: it never panics, and for any
// input that decodes, encoding the value to XML text and decoding that
// again yields the same value — so a value survives the journal, the
// replicas and the wire unchanged.
func fuzzDecoder[V any](f *testing.F, decode func(*xmlutil.Node) (V, error), encode func(V) *xmlutil.Node) {
	f.Fuzz(func(t *testing.T, s string) {
		n, err := xmlutil.ParseString(s)
		if err != nil {
			return
		}
		v, err := decode(n)
		if err != nil {
			return
		}
		doc := encode(v).String()
		n2, err := xmlutil.ParseString(doc)
		if err != nil {
			t.Fatalf("encoded %q does not parse: %v", doc, err)
		}
		v2, err := decode(n2)
		if err != nil {
			t.Fatalf("encoded %q does not decode: %v", doc, err)
		}
		if !reflect.DeepEqual(v, v2) {
			t.Fatalf("not a fixed point:\n first %+v\nsecond %+v\n   via %s", v, v2, doc)
		}
	})
}

func FuzzTypeFromXML(f *testing.F) {
	fuzzDecoder(f, TypeFromXML, (*Type).ToXML)
}

func FuzzDeploymentFromXML(f *testing.F) {
	fuzzDecoder(f, DeploymentFromXML, (*Deployment).ToXML)
}
