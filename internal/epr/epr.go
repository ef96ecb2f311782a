// Package epr implements WS-Addressing-style Endpoint References as used
// throughout GLARE (paper Fig. 6).
//
// An EPR names a WS-Resource: the service Address plus a resource key
// carried in ReferenceProperties. GLARE deployment EPRs additionally carry
// a LastUpdateTime (LUT) reference property that the Cache Refresher uses
// to revive cached deployment resources.
package epr

import (
	"fmt"
	"time"

	"glare/internal/xmlutil"
)

// TimeLayout is the wire format of LastUpdateTime values.
const TimeLayout = time.RFC3339Nano

// EPR is an endpoint reference to a WS-Resource.
type EPR struct {
	// Address is the service URL, e.g.
	// https://138.232.1.2:8084/wsrf/services/ActivityDeploymentRegistry.
	Address string
	// KeyName is the reference-property element naming the resource key,
	// e.g. "ActivityDeploymentKey" or "ActivityTypeKey".
	KeyName string
	// Key is the resource key value, e.g. "jpovray".
	Key string
	// LastUpdateTime is refreshed by the Deployment Status Monitor; zero
	// means the property is absent.
	LastUpdateTime time.Time
	// Extra holds any additional reference properties.
	Extra map[string]string
}

// New builds an EPR for a resource at the given service address.
func New(address, keyName, key string) EPR {
	return EPR{Address: address, KeyName: keyName, Key: key}
}

// IsZero reports whether the EPR is unset.
func (e EPR) IsZero() bool { return e.Address == "" && e.Key == "" }

// String renders a short human-readable form.
func (e EPR) String() string {
	return fmt.Sprintf("%s#%s=%s", e.Address, e.KeyName, e.Key)
}

// Touch returns a copy with LastUpdateTime set to now.
func (e EPR) Touch(now time.Time) EPR {
	e.LastUpdateTime = now
	return e
}

// ToXML renders the EPR as a property-document node with the given element
// name (e.g. "DeploymentEPR").
func (e EPR) ToXML(elem string) *xmlutil.Node {
	n := xmlutil.NewNode(elem)
	n.Elem("Address", e.Address)
	rp := n.Elem("ReferenceProperties")
	if e.KeyName != "" {
		rp.Elem(e.KeyName, e.Key)
	}
	if !e.LastUpdateTime.IsZero() {
		rp.Elem("LastUpdateTime", e.LastUpdateTime.Format(TimeLayout))
	}
	for k, v := range e.Extra {
		rp.Elem(k, v)
	}
	n.Elem("ReferenceParameters")
	return n
}

// FromXML parses an EPR from a node produced by ToXML. keyName selects
// which reference property is the resource key; when empty, the first
// property other than LastUpdateTime is used.
func FromXML(n *xmlutil.Node, keyName string) (EPR, error) {
	if n == nil {
		return EPR{}, fmt.Errorf("epr: nil node")
	}
	e := EPR{Address: n.ChildText("Address"), KeyName: keyName}
	if e.Address == "" {
		return EPR{}, fmt.Errorf("epr: missing Address")
	}
	rp := n.First("ReferenceProperties")
	if rp == nil {
		return e, nil
	}
	for _, c := range rp.Children {
		switch {
		case c.Name == "LastUpdateTime":
			t, err := time.Parse(TimeLayout, c.Text)
			if err != nil {
				return EPR{}, fmt.Errorf("epr: bad LastUpdateTime %q: %w", c.Text, err)
			}
			e.LastUpdateTime = t.UTC()
		case keyName != "" && c.Name == keyName:
			e.Key = c.Text
		case keyName == "" && e.Key == "":
			e.KeyName = c.Name
			e.Key = c.Text
		default:
			if e.Extra == nil {
				e.Extra = map[string]string{}
			}
			e.Extra[c.Name] = c.Text
		}
	}
	if e.Key == "" {
		return EPR{}, fmt.Errorf("epr: missing resource key %q", keyName)
	}
	return e, nil
}
