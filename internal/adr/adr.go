// Package adr implements the Activity Deployment Registry: it "complements
// [the] Type Registry and maintains a set of activity deployments of
// concrete activity types as WS-Resources" (paper §3.1).
//
// Invariant from the paper: "an activity type must be present in the type
// registry before registration of its deployments. ... In case of failure
// in discovering [a] matching activity type, the deployment registry
// service requests the type registry service for the dynamic registration
// of a new activity type."
package adr

import (
	"fmt"
	"time"

	"glare/internal/activity"
	"glare/internal/atr"
	"glare/internal/epr"
	"glare/internal/simclock"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/wsrf"
	"glare/internal/xmlutil"
)

// KeyName is the EPR reference-property for deployment resources.
const KeyName = "ActivityDeploymentKey"

// ServiceName is the transport mount point.
const ServiceName = "ActivityDeploymentRegistry"

// Registry is one site's Activity Deployment Registry.
type Registry struct {
	home    *wsrf.Home[*activity.Deployment]
	types   *atr.Registry
	broker  *wsrf.Broker
	journal atr.Journal

	// Hot-path counters; nil (no-op) until SetTelemetry is called.
	registers, byType, removes *telemetry.Counter
}

// New creates a deployment registry bound to the site's type registry.
func New(serviceURL string, types *atr.Registry, clock simclock.Clock, broker *wsrf.Broker) *Registry {
	if broker == nil {
		broker = wsrf.NewBroker(clock)
	}
	r := &Registry{
		home:   wsrf.NewHome[*activity.Deployment](serviceURL, KeyName, clock),
		types:  types,
		broker: broker,
	}
	// However a deployment resource goes — Remove, an expiry sweep,
	// ExpireByType — its EPR leaves the type resource with it, so dead refs
	// never count against MaxDeployments or toward MinDeployments.
	r.home.OnDestroy(func(res *wsrf.Resource[*activity.Deployment]) {
		types.RemoveDeploymentRef(res.Value().Type, res.Key())
	})
	return r
}

// Home exposes the resource home.
func (r *Registry) Home() *wsrf.Home[*activity.Deployment] { return r.home }

// SetTelemetry binds the registry's hot-path counters to a site's
// telemetry registry. Call during site assembly, before serving traffic.
func (r *Registry) SetTelemetry(tel *telemetry.Telemetry) {
	r.registers = tel.Counter("glare_adr_registers_total")
	r.byType = tel.Counter("glare_adr_bytype_total")
	r.removes = tel.Counter("glare_adr_removes_total")
}

// SetJournal binds the durability journal; call during site assembly,
// before serving traffic.
func (r *Registry) SetJournal(j atr.Journal) { r.journal = j }

// SetStamp binds the source of LastUpdateTime stamps — the site's hybrid
// logical clock — so cross-site newest-wins comparisons (anti-entropy,
// replication) survive wall-clock skew. Call during site assembly, before
// serving traffic. Expiry sweeps stay on the physical clock.
func (r *Registry) SetStamp(fn func() time.Time) { r.home.SetStamp(fn) }

// journalPut journals a deployment's current document and timestamps.
func (r *Registry) journalPut(name string) {
	if r.journal == nil {
		return
	}
	if res := r.home.Find(name); res != nil {
		r.journal.RecordPut(name, res.Value().ToXML(), res.LastUpdate(), res.TerminationTime())
	}
}

func (r *Registry) journalDelete(name string) {
	if r.journal != nil {
		r.journal.RecordDelete(name)
	}
}

// Restore re-installs a journaled deployment resource during crash
// recovery, bypassing dynamic type registration, counters and
// notifications: the type resource's DeploymentRefs are replayed from the
// type registry's own journal, so no cross-registry fixup runs here. A
// document that does not decode is not installed.
func (r *Registry) Restore(name string, doc *xmlutil.Node, lut, term time.Time) error {
	d, err := activity.DeploymentFromXML(doc)
	if err != nil {
		return err
	}
	r.home.Restore(name, d, lut, term)
	return nil
}

// Adopt installs a replicated deployment entry as locally owned: placed
// like Restore, journaled like a registration, so a promoted replica
// survives this site's own restarts too.
func (r *Registry) Adopt(name string, doc *xmlutil.Node, lut, term time.Time) error {
	if err := r.Restore(name, doc, lut, term); err != nil {
		return err
	}
	r.journalPut(name)
	return nil
}

// Timestamps returns a deployment resource's LastUpdateTime and
// termination time, the ordering fields replication compares copies on.
func (r *Registry) Timestamps(name string) (lut, term time.Time, ok bool) {
	res := r.home.Find(name)
	if res == nil {
		return time.Time{}, time.Time{}, false
	}
	return res.LastUpdate(), res.TerminationTime(), true
}

// Register records a deployment. If the concrete type is not yet known to
// the type registry, a minimal concrete type is registered dynamically.
// The registry stores a copy, so later changes to d do not reach it.
func (r *Registry) Register(d *activity.Deployment) (epr.EPR, error) {
	r.registers.Inc()
	if err := d.Validate(); err != nil {
		return epr.EPR{}, err
	}
	t, ok := r.types.Lookup(d.Type)
	if !ok {
		// Dynamic registration of a new activity type.
		t = &activity.Type{Name: d.Type}
		if _, err := r.types.Register(t); err != nil {
			return epr.EPR{}, fmt.Errorf("adr: dynamic type registration: %w", err)
		}
	} else if t.Abstract {
		return epr.EPR{}, fmt.Errorf("adr: type %q is abstract and cannot have deployments", d.Type)
	}
	// Enforce the provider's max-deployments bound VO-wide as far as this
	// registry can see (its own records plus the type resource's refs).
	if t.MaxDeployments > 0 {
		if n := len(r.types.DeploymentRefs(d.Type)); n >= t.MaxDeployments {
			return epr.EPR{}, fmt.Errorf("adr: type %q reached its deployment limit (%d)",
				d.Type, t.MaxDeployments)
		}
	}
	if _, err := r.home.Create(d.Name, d.Clone()); err != nil {
		return epr.EPR{}, err
	}
	e := r.home.EPR(d.Name)
	if err := r.types.AddDeploymentRef(d.Type, e); err != nil {
		r.home.Destroy(d.Name)
		return epr.EPR{}, err
	}
	r.journalPut(d.Name)
	r.broker.Publish(wsrf.TopicDeployment, d.Name, d.ToXML())
	return e, nil
}

// Get returns a deployment by name (hash-table path). The deployment is
// shared with the registry and must not be modified.
func (r *Registry) Get(name string) (*activity.Deployment, bool) {
	res := r.home.Find(name)
	if res == nil {
		return nil, false
	}
	return res.Value(), true
}

// GetDocument renders the property document of a deployment.
func (r *Registry) GetDocument(name string) (*xmlutil.Node, bool) {
	d, ok := r.Get(name)
	if !ok {
		return nil, false
	}
	return d.ToXML(), true
}

// LUT returns a deployment resource's LastUpdateTime.
func (r *Registry) LUT(name string) (time.Time, bool) {
	res := r.home.Find(name)
	if res == nil {
		return time.Time{}, false
	}
	return res.LastUpdate(), true
}

// ByType lists local deployments of the given concrete type (shared,
// read-only).
func (r *Registry) ByType(typeName string) []*activity.Deployment {
	r.byType.Inc()
	var out []*activity.Deployment
	for _, d := range r.home.Values() {
		if d.Type == typeName {
			out = append(out, d)
		}
	}
	return out
}

// All returns every local deployment (shared, read-only).
func (r *Registry) All() []*activity.Deployment { return r.home.Values() }

// Names returns the registered deployment names, mirroring atr.Names —
// cheap existence checks (does this site own the entry?) that do not need
// the documents materialized.
func (r *Registry) Names() []string { return r.home.Keys() }

// Len reports the number of registered deployments.
func (r *Registry) Len() int { return r.home.Len() }

// Remove unregisters a deployment; the destroy listener clears its ref in
// the type resource.
func (r *Registry) Remove(name string) bool {
	r.removes.Inc()
	if !r.home.Destroy(name) {
		return false
	}
	r.journalDelete(name)
	r.broker.Publish(wsrf.TopicResourceDestroyed, name, nil)
	return true
}

// UpdateMetrics is the Deployment Status Monitor's write path: it refreshes
// the deployment's metrics and bumps the resource's LastUpdateTime, which
// in turn revives caches holding this deployment.
func (r *Registry) UpdateMetrics(name string, m activity.Metrics) error {
	d, ok := r.home.Update(name, func(d *activity.Deployment) *activity.Deployment {
		c := *d
		c.Metrics = m
		return &c
	})
	if !ok {
		return fmt.Errorf("adr: no such deployment %q", name)
	}
	r.journalPut(name)
	// Refresh the EPR registered in the type resource (LUT changed).
	if err := r.types.AddDeploymentRef(d.Type, r.home.EPR(name)); err != nil {
		return err
	}
	r.broker.Publish(wsrf.TopicResourceUpdated, name, nil)
	return nil
}

// SetTermination schedules a deployment resource's expiry.
func (r *Registry) SetTermination(name string, at time.Time) error {
	res := r.home.Find(name)
	if res == nil {
		return fmt.Errorf("adr: no such deployment %q", name)
	}
	res.SetTerminationTime(at)
	r.journalPut(name)
	return nil
}

// SweepExpired destroys expired deployment resources.
func (r *Registry) SweepExpired() []string {
	gone := r.home.SweepExpired()
	for _, name := range gone {
		r.journalDelete(name)
		r.broker.Publish(wsrf.TopicResourceDestroyed, name, nil)
	}
	return gone
}

// ExpireByType expires all deployments of a type now ("If an activity type
// expires, its deployments automatically expire"). Running instances are
// the execution engine's concern and finish independently.
func (r *Registry) ExpireByType(typeName string) []string {
	var gone []string
	for _, d := range r.ByType(typeName) {
		if r.home.Destroy(d.Name) {
			gone = append(gone, d.Name)
			r.journalDelete(d.Name)
			r.broker.Publish(wsrf.TopicResourceDestroyed, d.Name, nil)
		}
	}
	return gone
}

// EPR mints the endpoint reference of a deployment resource.
func (r *Registry) EPR(name string) epr.EPR { return r.home.EPR(name) }

// Mount exposes the registry over a transport server.
func (r *Registry) Mount(srv *transport.Server) {
	srv.RegisterService(ServiceName, map[string]transport.Handler{
		"Register": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			d, err := activity.DeploymentFromXML(body)
			if err != nil {
				return nil, err
			}
			e, err := r.Register(d)
			if err != nil {
				return nil, err
			}
			return e.ToXML("DeploymentEPR"), nil
		},
		"Get": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			doc, ok := r.GetDocument(textArg(body))
			if !ok {
				return nil, fmt.Errorf("Get: no such deployment %q", textArg(body))
			}
			return doc, nil
		},
		"GetLUT": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			lut, ok := r.LUT(textArg(body))
			if !ok {
				return nil, fmt.Errorf("GetLUT: no such deployment %q", textArg(body))
			}
			return xmlutil.NewNode("LUT", lut.Format(epr.TimeLayout)), nil
		},
		"GetDeployments": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			out := xmlutil.NewNode("Deployments")
			for _, d := range r.ByType(textArg(body)) {
				out.Add(d.ToXML())
			}
			return out, nil
		},
		"Remove": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			if !r.Remove(textArg(body)) {
				return nil, fmt.Errorf("Remove: no such deployment")
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
