// Package wsrf implements the Web-Services Resource Framework analogue the
// GLARE registries are built on: stateful resources with lifetime
// management, service groups for aggregation, and topic-based notification.
//
// The paper implements GLARE on Globus Toolkit 4, "a reference
// implementation of the new Web-Services Resource Framework". This package
// reproduces the WSRF semantics the paper relies on — resource lifecycle,
// expiry, aggregation, and event notification — so registries and the MDS
// baseline share one substrate.
//
// A resource holds a decoded, immutable value rather than its XML property
// document: readers share the stored value and must not modify it, and a
// mutation swaps in a modified copy (Home.Update). The property document
// is rendered from the value only where it leaves the registry.
package wsrf

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"glare/internal/epr"
	"glare/internal/simclock"
	"glare/internal/xmlutil"
)

// Resource is one stateful WS-Resource: a keyed value with an optional
// termination time.
type Resource[V any] struct {
	mu          sync.RWMutex
	key         string
	value       V
	lastUpdate  time.Time
	termination time.Time // zero = never expires
	destroyed   bool
}

// Key returns the resource key (immutable).
func (r *Resource[V]) Key() string { return r.key }

// Value returns the current value. It is shared with the home and every
// other reader: treat it as read-only.
func (r *Resource[V]) Value() V {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.value
}

// LastUpdate returns the last modification instant.
func (r *Resource[V]) LastUpdate() time.Time {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lastUpdate
}

// TerminationTime returns the scheduled termination time (zero = never).
func (r *Resource[V]) TerminationTime() time.Time {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.termination
}

// SetTerminationTime schedules (or cancels, with zero) expiry.
func (r *Resource[V]) SetTerminationTime(t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.termination = t
}

// Expired reports whether the resource is past its termination time.
func (r *Resource[V]) Expired(now time.Time) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return !r.termination.IsZero() && now.After(r.termination)
}

// Destroyed reports whether the resource has been destroyed.
func (r *Resource[V]) Destroyed() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.destroyed
}

// Home is a collection of WS-Resources of one kind (e.g. all activity-type
// resources of one registry), addressed by key through a hash table.
type Home[V any] struct {
	mu        sync.RWMutex
	service   string // service address used when minting EPRs
	keyName   string // reference property name, e.g. "ActivityTypeKey"
	clock     simclock.Clock
	stamp     func() time.Time // ordering-stamp source; nil = clock.Now
	resources map[string]*Resource[V]
	destroyed []func(*Resource[V]) // destruction listeners
}

// NewHome creates a resource home. service and keyName are used to mint
// EPRs for contained resources.
func NewHome[V any](service, keyName string, clock simclock.Clock) *Home[V] {
	if clock == nil {
		clock = simclock.Real
	}
	return &Home[V]{
		service:   service,
		keyName:   keyName,
		clock:     clock,
		resources: make(map[string]*Resource[V]),
	}
}

// SetStamp overrides the source of LastUpdate stamps for Create and
// Update — the site's hybrid logical clock, so cross-site newest-wins
// comparisons on LastUpdate survive wall-clock skew. Expiry decisions
// (SweepExpired) stay on the home's physical clock: HLC stamps may lead it
// by observed peer skew and must never be compared against local time.
// Restore is also unaffected: recovery replays journaled stamps verbatim.
func (h *Home[V]) SetStamp(fn func() time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stamp = fn
}

// now returns the next ordering stamp. Callers hold h.mu.
func (h *Home[V]) now() time.Time {
	if h.stamp != nil {
		return h.stamp()
	}
	return h.clock.Now()
}

// Create adds a resource with the given key and value. It fails if the
// key already exists.
func (h *Home[V]) Create(key string, v V) (*Resource[V], error) {
	if key == "" {
		return nil, fmt.Errorf("wsrf: empty resource key")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.resources[key]; ok {
		return nil, fmt.Errorf("wsrf: resource %q already exists", key)
	}
	r := &Resource[V]{key: key, value: v, lastUpdate: h.now()}
	h.resources[key] = r
	return r, nil
}

// Update atomically replaces key's value with fn(current) and stamps the
// resource with the home's next ordering stamp. fn runs under the home's
// and the resource's locks, so it must not call back into the home, and
// it must return a new value rather than modify its argument, which
// readers may still hold. Update returns the stored value, or false when
// no resource has the key.
func (h *Home[V]) Update(key string, fn func(V) V) (V, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	r, ok := h.resources[key]
	if !ok {
		var zero V
		return zero, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.value = fn(r.value)
	r.lastUpdate = h.now()
	return r.value, true
}

// Restore installs a resource with explicit timestamps, replacing any
// existing resource with the key. It is the crash-recovery path: replay
// must reproduce the journaled LastUpdate exactly (cache revival and
// anti-entropy order on it) instead of stamping "now", and it fires no
// listeners — recovery is not observable as resource churn.
func (h *Home[V]) Restore(key string, v V, lastUpdate, termination time.Time) *Resource[V] {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := &Resource[V]{key: key, value: v, lastUpdate: lastUpdate, termination: termination}
	h.resources[key] = r
	return r
}

// Find returns the resource for key, or nil. This is the O(1) hash-table
// named lookup the paper credits for the ATR's flat throughput curve.
func (h *Home[V]) Find(key string) *Resource[V] {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.resources[key]
}

// Destroy removes a resource and fires destruction listeners.
func (h *Home[V]) Destroy(key string) bool {
	h.mu.Lock()
	r, ok := h.resources[key]
	if ok {
		delete(h.resources, key)
	}
	listeners := append([]func(*Resource[V]){}, h.destroyed...)
	h.mu.Unlock()
	if !ok {
		return false
	}
	r.mu.Lock()
	r.destroyed = true
	r.mu.Unlock()
	for _, fn := range listeners {
		fn(r)
	}
	return true
}

// OnDestroy registers a listener invoked after a resource is destroyed.
func (h *Home[V]) OnDestroy(fn func(*Resource[V])) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.destroyed = append(h.destroyed, fn)
}

// Len returns the number of live resources.
func (h *Home[V]) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.resources)
}

// Keys returns all resource keys in sorted order.
func (h *Home[V]) Keys() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.sortedKeys()
}

// sortedKeys lists the keys in order. Callers hold h.mu.
func (h *Home[V]) sortedKeys() []string {
	keys := make([]string, 0, len(h.resources))
	for k := range h.resources {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// All returns the live resources in key order.
func (h *Home[V]) All() []*Resource[V] {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]*Resource[V], 0, len(h.resources))
	for _, k := range h.sortedKeys() {
		out = append(out, h.resources[k])
	}
	return out
}

// Values returns the live resources' values in key order (shared,
// read-only).
func (h *Home[V]) Values() []V {
	all := h.All()
	out := make([]V, len(all))
	for i, r := range all {
		out[i] = r.Value()
	}
	return out
}

// EPR mints an endpoint reference for a contained resource.
func (h *Home[V]) EPR(key string) epr.EPR {
	e := epr.New(h.service, h.keyName, key)
	if r := h.Find(key); r != nil {
		e.LastUpdateTime = r.LastUpdate()
	}
	return e
}

// Aggregate renders every resource, in key order, as one service-group
// document (the shape of ServiceGroup.Document), each entry's content
// rendered from its value by render. XPath discovery over a registry
// scans this document.
func (h *Home[V]) Aggregate(name string, render func(V) *xmlutil.Node) *xmlutil.Node {
	root := xmlutil.NewNode("ServiceGroup").SetAttr("name", name)
	for _, r := range h.All() {
		e := epr.New(h.service, h.keyName, r.Key())
		r.mu.RLock()
		v := r.value
		e.LastUpdateTime = r.lastUpdate
		r.mu.RUnlock()
		addEntry(root, r.Key(), e, render(v))
	}
	return root
}

// SweepExpired destroys every resource past its termination time and
// returns the destroyed keys. The RDM service's monitors call this
// periodically; "outdated resources are discarded automatically".
func (h *Home[V]) SweepExpired() []string {
	now := h.clock.Now()
	h.mu.RLock()
	var expired []string
	for k, r := range h.resources {
		if r.Expired(now) {
			expired = append(expired, k)
		}
	}
	h.mu.RUnlock()
	sort.Strings(expired)
	for _, k := range expired {
		h.Destroy(k)
	}
	return expired
}
