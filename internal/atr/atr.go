// Package atr implements the Activity Type Registry: the GLARE component
// that "maintains a set of named activity types in the form of
// WS-Resources organized in a hierarchy" (paper §3.1).
//
// Two query paths exist, and their difference is the paper's headline
// performance result (Figs. 10 and 11):
//
//   - Named lookups go through a hash table ("In order to answer queries
//     for named resources faster, the registry services use hash tables to
//     access named resources. This eliminates XPath-based search
//     requirements ... and significantly improves the performance.")
//   - Non-named discovery uses the same XPath mechanism as the Index
//     Service, over a WSRF service-group document aggregated from the
//     registry's entries.
package atr

import (
	"fmt"
	"slices"
	"time"

	"glare/internal/activity"
	"glare/internal/epr"
	"glare/internal/simclock"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/wsrf"
	"glare/internal/xmlutil"
	"glare/internal/xpath"
)

// KeyName is the EPR reference-property for type resources.
const KeyName = "ActivityTypeKey"

// ServiceName is the transport mount point.
const ServiceName = "ActivityTypeRegistry"

// Journal receives every registry mutation for durable replay (the
// write-ahead log of internal/store satisfies it); the deployment registry
// journals through it too. Implementations must be safe for concurrent
// use; nil means no persistence.
type Journal interface {
	// RecordPut journals the full property document after a mutation.
	RecordPut(key string, doc *xmlutil.Node, lut, term time.Time)
	// RecordDelete journals a resource removal.
	RecordDelete(key string)
}

// depKeyName is the reference property naming a deployment EPR's key
// (adr.KeyName; adr imports this package, not the other way round).
const depKeyName = "ActivityDeploymentKey"

// entry is the value of one type resource: the activity type plus what the
// registry records on it — the EPRs of its deployments ("registered in its
// type resource") and the sites it is marked deployed on. Entries are
// shared with readers and never modified once stored; a mutation stores a
// modified copy.
type entry struct {
	typ      *activity.Type
	refs     []epr.EPR
	deployed []string
}

// toXML renders the type resource's property document: the type, then
// <DeploymentRefs> when it has any, then one <DeployedOn> per site.
func (e *entry) toXML() *xmlutil.Node {
	n := e.typ.ToXML()
	if len(e.refs) > 0 {
		refs := n.Elem("DeploymentRefs")
		for _, ref := range e.refs {
			refs.Add(ref.ToXML("DeploymentEPR"))
		}
	}
	for _, site := range e.deployed {
		n.Elem("DeployedOn", site)
	}
	return n
}

// entryFromXML decodes a type resource's property document. Deployment
// EPRs that do not parse or carry no deployment key are dropped.
func entryFromXML(n *xmlutil.Node) (*entry, error) {
	t, err := activity.TypeFromXML(n)
	if err != nil {
		return nil, err
	}
	e := &entry{typ: t}
	if refs := n.First("DeploymentRefs"); refs != nil {
		for _, c := range refs.All("DeploymentEPR") {
			if ref, err := epr.FromXML(c, depKeyName); err == nil && ref.Key != "" {
				e.refs = append(e.refs, ref)
			}
		}
	}
	for _, d := range n.All("DeployedOn") {
		e.deployed = append(e.deployed, d.Text)
	}
	return e, nil
}

// refsWithout copies the entry's refs, leaving out the one for the
// deployment key; the result has room to append one more.
func (e *entry) refsWithout(key string) []epr.EPR {
	out := make([]epr.EPR, 0, len(e.refs)+1)
	for _, ref := range e.refs {
		if ref.Key != key {
			out = append(out, ref)
		}
	}
	return out
}

// Registry is one site's Activity Type Registry.
type Registry struct {
	home    *wsrf.Home[*entry]
	broker  *wsrf.Broker
	journal Journal

	// Hot-path counters; nil (no-op) until SetTelemetry is called.
	lookups, registers, concrete *telemetry.Counter
}

// New creates an empty registry. serviceURL is the address other sites use
// to reach it (may be set later via SetServiceURL when the server starts).
func New(serviceURL string, clock simclock.Clock, broker *wsrf.Broker) *Registry {
	if broker == nil {
		broker = wsrf.NewBroker(clock)
	}
	return &Registry{
		home:   wsrf.NewHome[*entry](serviceURL, KeyName, clock),
		broker: broker,
	}
}

// Broker exposes the notification broker.
func (r *Registry) Broker() *wsrf.Broker { return r.broker }

// SetTelemetry binds the registry's hot-path counters to a site's
// telemetry registry. Call during site assembly, before serving traffic.
func (r *Registry) SetTelemetry(tel *telemetry.Telemetry) {
	r.lookups = tel.Counter("glare_atr_lookups_total")
	r.registers = tel.Counter("glare_atr_registers_total")
	r.concrete = tel.Counter("glare_atr_concrete_queries_total")
}

// SetJournal binds the durability journal; call during site assembly,
// before serving traffic. Mutations journal the resulting document so a
// restarted site replays to exactly this state.
func (r *Registry) SetJournal(j Journal) { r.journal = j }

// SetStamp binds the source of LastUpdateTime stamps — the site's hybrid
// logical clock — so cross-site newest-wins comparisons (anti-entropy,
// replication) survive wall-clock skew. Call during site assembly, before
// serving traffic. Expiry sweeps stay on the physical clock.
func (r *Registry) SetStamp(fn func() time.Time) { r.home.SetStamp(fn) }

// journalPut journals a resource's current document and timestamps.
func (r *Registry) journalPut(name string) {
	if r.journal == nil {
		return
	}
	if res := r.home.Find(name); res != nil {
		r.journal.RecordPut(name, res.Value().toXML(), res.LastUpdate(), res.TerminationTime())
	}
}

// journalDelete journals a resource removal.
func (r *Registry) journalDelete(name string) {
	if r.journal != nil {
		r.journal.RecordDelete(name)
	}
}

// Restore re-installs a journaled type resource during crash recovery:
// the document is decoded and, with its timestamps, lands exactly as
// journaled, and neither counters, notifications, nor the journal itself
// observe it — replay is not registration traffic. A document that does
// not decode is not installed.
func (r *Registry) Restore(name string, doc *xmlutil.Node, lut, term time.Time) error {
	e, err := entryFromXML(doc)
	if err != nil {
		return err
	}
	r.home.Restore(name, e, lut, term)
	return nil
}

// Adopt installs a replicated type entry as locally owned: the document
// and timestamps land exactly as journaled at the origin site (like
// Restore), but the adoption is journaled locally, so a promoted replica
// survives this site's own restarts too.
func (r *Registry) Adopt(name string, doc *xmlutil.Node, lut, term time.Time) error {
	if err := r.Restore(name, doc, lut, term); err != nil {
		return err
	}
	r.journalPut(name)
	return nil
}

// Timestamps returns a type resource's LastUpdateTime and termination
// time, the ordering fields replication compares copies on.
func (r *Registry) Timestamps(name string) (lut, term time.Time, ok bool) {
	res := r.home.Find(name)
	if res == nil {
		return time.Time{}, time.Time{}, false
	}
	return res.LastUpdate(), res.TerminationTime(), true
}

// Register adds an activity type; duplicate names are rejected. The
// registry stores a copy, so later changes to t do not reach it.
func (r *Registry) Register(t *activity.Type) (epr.EPR, error) {
	r.registers.Inc()
	if err := t.Validate(); err != nil {
		return epr.EPR{}, err
	}
	if _, err := r.home.Create(t.Name, &entry{typ: t.Clone()}); err != nil {
		return epr.EPR{}, err
	}
	r.journalPut(t.Name)
	r.broker.Publish(wsrf.TopicResourceCreated, t.Name, t.ToXML())
	return r.home.EPR(t.Name), nil
}

// Lookup resolves a named type through the hash table — the O(1) path.
// The returned type is shared with the registry and must not be modified.
func (r *Registry) Lookup(name string) (*activity.Type, bool) {
	r.lookups.Inc()
	res := r.home.Find(name)
	if res == nil {
		return nil, false
	}
	return res.Value().typ, true
}

// LookupDocument renders the property document of a named type.
func (r *Registry) LookupDocument(name string) (*xmlutil.Node, bool) {
	res := r.home.Find(name)
	if res == nil {
		return nil, false
	}
	return res.Value().toXML(), true
}

// LUT returns the LastUpdateTime of a named type resource.
func (r *Registry) LUT(name string) (time.Time, bool) {
	res := r.home.Find(name)
	if res == nil {
		return time.Time{}, false
	}
	return res.LastUpdate(), true
}

// Remove destroys a type resource; its deployments are expired by the RDM
// service through the destroy listener.
func (r *Registry) Remove(name string) bool {
	if !r.home.Destroy(name) {
		return false
	}
	r.journalDelete(name)
	r.broker.Publish(wsrf.TopicResourceDestroyed, name, nil)
	return true
}

// OnRemove registers a listener fired when a type resource is destroyed.
func (r *Registry) OnRemove(fn func(typeName string)) {
	r.home.OnDestroy(func(res *wsrf.Resource[*entry]) { fn(res.Key()) })
}

// Names lists registered type names in sorted order.
func (r *Registry) Names() []string { return r.home.Keys() }

// Len reports the number of registered types.
func (r *Registry) Len() int { return r.home.Len() }

// Types returns all registered types, shared and read-only.
func (r *Registry) Types() []*activity.Type {
	entries := r.home.Values()
	out := make([]*activity.Type, len(entries))
	for i, e := range entries {
		out[i] = e.typ
	}
	return out
}

// Hierarchy builds a hierarchy view over the registered types.
func (r *Registry) Hierarchy() (*activity.Hierarchy, error) {
	return activity.NewHierarchy(r.Types())
}

// ConcreteOf resolves an abstract or concrete name to the concrete types
// satisfying it, using the local hierarchy. The types are shared and
// read-only.
func (r *Registry) ConcreteOf(name string) ([]*activity.Type, error) {
	r.concrete.Inc()
	h, err := r.Hierarchy()
	if err != nil {
		return nil, err
	}
	return h.ConcreteOf(name), nil
}

// Query evaluates an XPath expression over the registry's aggregated
// document, rendered from the current entries.
func (r *Registry) Query(expr *xpath.Expr) xpath.Result {
	return expr.Select(r.home.Aggregate("activity-types", (*entry).toXML))
}

// QueryString compiles and evaluates an XPath source string.
func (r *Registry) QueryString(src string) (xpath.Result, error) {
	expr, err := xpath.Compile(src)
	if err != nil {
		return xpath.Result{}, err
	}
	return r.Query(expr), nil
}

// AddDeploymentRef records a deployment EPR inside its type resource:
// "The Endpoint Reference (EPR) of each activity deployment resource is
// registered in its type resource presented in the type registry." A
// previous EPR for the same deployment key is replaced.
func (r *Registry) AddDeploymentRef(typeName string, dep epr.EPR) error {
	_, ok := r.home.Update(typeName, func(e *entry) *entry {
		c := *e
		c.refs = append(e.refsWithout(dep.Key), dep)
		return &c
	})
	if !ok {
		return fmt.Errorf("atr: no such type %q", typeName)
	}
	r.journalPut(typeName)
	r.broker.Publish(wsrf.TopicResourceUpdated, typeName, nil)
	return nil
}

// RemoveDeploymentRef drops a deployment EPR from its type resource.
func (r *Registry) RemoveDeploymentRef(typeName, deploymentKey string) {
	_, ok := r.home.Update(typeName, func(e *entry) *entry {
		c := *e
		c.refs = e.refsWithout(deploymentKey)
		return &c
	})
	if ok {
		r.journalPut(typeName)
	}
}

// DeploymentRefs lists the deployment EPRs recorded in a type resource
// (shared, read-only).
func (r *Registry) DeploymentRefs(typeName string) []epr.EPR {
	res := r.home.Find(typeName)
	if res == nil {
		return nil
	}
	return slices.Clip(res.Value().refs)
}

// MarkDeployed flags the type as deployed on a site ("After successful
// installation, the activity type is marked as deployed").
func (r *Registry) MarkDeployed(typeName, siteName string) error {
	_, ok := r.home.Update(typeName, func(e *entry) *entry {
		if slices.Contains(e.deployed, siteName) {
			return e
		}
		c := *e
		c.deployed = append(e.deployed, siteName)
		return &c
	})
	if !ok {
		return fmt.Errorf("atr: no such type %q", typeName)
	}
	r.journalPut(typeName)
	return nil
}

// DeployedOn lists the sites a type is marked deployed on (shared,
// read-only).
func (r *Registry) DeployedOn(typeName string) []string {
	res := r.home.Find(typeName)
	if res == nil {
		return nil
	}
	return slices.Clip(res.Value().deployed)
}

// SetTermination schedules expiry of a type resource (lifecycle control by
// the activity provider, paper §3.3).
func (r *Registry) SetTermination(typeName string, at time.Time) error {
	res := r.home.Find(typeName)
	if res == nil {
		return fmt.Errorf("atr: no such type %q", typeName)
	}
	res.SetTerminationTime(at)
	r.journalPut(typeName)
	return nil
}

// SweepExpired destroys expired type resources and returns their names.
func (r *Registry) SweepExpired() []string {
	gone := r.home.SweepExpired()
	for _, name := range gone {
		r.journalDelete(name)
		r.broker.Publish(wsrf.TopicResourceDestroyed, name, nil)
	}
	return gone
}

// EPR mints the endpoint reference of a type resource.
func (r *Registry) EPR(name string) epr.EPR { return r.home.EPR(name) }

// Mount exposes the registry over a transport server.
func (r *Registry) Mount(srv *transport.Server) {
	srv.RegisterService(ServiceName, map[string]transport.Handler{
		"RegisterType": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			t, err := activity.TypeFromXML(body)
			if err != nil {
				return nil, err
			}
			e, err := r.Register(t)
			if err != nil {
				return nil, err
			}
			return e.ToXML("TypeEPR"), nil
		},
		"GetType": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			name := textArg(body)
			if name == "" {
				return nil, fmt.Errorf("GetType: missing name")
			}
			doc, ok := r.LookupDocument(name)
			if !ok {
				return nil, fmt.Errorf("GetType: no such type %q", name)
			}
			return doc, nil
		},
		"GetLUT": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			name := textArg(body)
			lut, ok := r.LUT(name)
			if !ok {
				return nil, fmt.Errorf("GetLUT: no such type %q", name)
			}
			return xmlutil.NewNode("LUT", lut.Format(epr.TimeLayout)), nil
		},
		"Query": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			res, err := r.QueryString(textArg(body))
			if err != nil {
				return nil, err
			}
			out := xmlutil.NewNode("Results")
			for _, n := range res.Nodes {
				out.Add(n.Clone())
			}
			for _, s := range res.Strings {
				out.Elem("Value", s)
			}
			return out, nil
		},
		"ListTypes": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			out := xmlutil.NewNode("Types")
			for _, n := range r.Names() {
				out.Elem("Type", n)
			}
			return out, nil
		},
		"RemoveType": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			if !r.Remove(textArg(body)) {
				return nil, fmt.Errorf("RemoveType: no such type")
			}
			return xmlutil.NewNode("Removed"), nil
		},
	})
}

func textArg(body *xmlutil.Node) string {
	if body == nil {
		return ""
	}
	return body.Text
}
