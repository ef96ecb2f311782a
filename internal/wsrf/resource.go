// Package wsrf implements the Web-Services Resource Framework analogue the
// GLARE registries are built on: stateful resources with resource-property
// documents and lifetime management, service groups for aggregation, and
// topic-based notification.
//
// The paper implements GLARE on Globus Toolkit 4, "a reference
// implementation of the new Web-Services Resource Framework". This package
// reproduces the WSRF semantics the paper relies on — resource lifecycle,
// expiry, aggregation with periodic refresh, and event notification — so
// registries and the MDS baseline share one substrate.
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

// Resource is one stateful WS-Resource: a keyed resource-property document
// with an optional termination time.
type Resource struct {
	mu          sync.RWMutex
	key         string
	doc         *xmlutil.Node
	created     time.Time
	lastUpdate  time.Time
	termination time.Time // zero = never expires
	destroyed   bool
}

// Key returns the resource key (immutable).
func (r *Resource) Key() string { return r.key }

// Document returns a deep copy of the resource property document, so
// callers can never mutate registry state behind the registry's back.
func (r *Resource) Document() *xmlutil.Node {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.doc.Clone()
}

// Read runs fn against the live property document under the resource's
// read lock; fn must not mutate the document or retain references past the
// call. It is the zero-copy read path (Document copies instead).
func (r *Resource) Read(fn func(doc *xmlutil.Node)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn(r.doc)
}

// Update atomically mutates the property document and bumps LastUpdate.
func (r *Resource) Update(now time.Time, fn func(doc *xmlutil.Node)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(r.doc)
	r.lastUpdate = now
}

// Replace swaps in a whole new property document.
func (r *Resource) Replace(now time.Time, doc *xmlutil.Node) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.doc = doc
	r.lastUpdate = now
}

// LastUpdate returns the last modification instant.
func (r *Resource) LastUpdate() time.Time {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lastUpdate
}

// Created returns the creation instant.
func (r *Resource) Created() time.Time { return r.created }

// TerminationTime returns the scheduled termination time (zero = never).
func (r *Resource) TerminationTime() time.Time {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.termination
}

// SetTerminationTime schedules (or cancels, with zero) expiry.
func (r *Resource) SetTerminationTime(t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.termination = t
}

// Expired reports whether the resource is past its termination time.
func (r *Resource) Expired(now time.Time) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return !r.termination.IsZero() && now.After(r.termination)
}

// Destroyed reports whether the resource has been destroyed.
func (r *Resource) Destroyed() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.destroyed
}

// Home is a collection of WS-Resources of one kind (e.g. all activity-type
// resources of one registry), addressed by key through a hash table.
type Home struct {
	mu        sync.RWMutex
	service   string // service address used when minting EPRs
	keyName   string // reference property name, e.g. "ActivityTypeKey"
	clock     simclock.Clock
	stamp     func() time.Time // ordering-stamp source; nil = clock.Now
	resources map[string]*Resource
	destroyed []func(*Resource) // destruction listeners
}

// NewHome creates a resource home. service and keyName are used to mint
// EPRs for contained resources.
func NewHome(service, keyName string, clock simclock.Clock) *Home {
	if clock == nil {
		clock = simclock.Real
	}
	return &Home{
		service:   service,
		keyName:   keyName,
		clock:     clock,
		resources: make(map[string]*Resource),
	}
}

// Service returns the home's service address.
func (h *Home) Service() string { return h.service }

// SetStamp overrides the source of LastUpdate stamps for new resources —
// the site's hybrid logical clock, so cross-site newest-wins comparisons on
// LastUpdate survive wall-clock skew. Expiry decisions (SweepExpired) stay
// on the home's physical clock: HLC stamps may lead it by observed peer
// skew and must never be compared against local time. Restore is also
// unaffected: recovery replays journaled stamps verbatim.
func (h *Home) SetStamp(fn func() time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stamp = fn
}

// now returns the next ordering stamp. Callers hold h.mu.
func (h *Home) now() time.Time {
	if h.stamp != nil {
		return h.stamp()
	}
	return h.clock.Now()
}

// KeyName returns the reference-property name for resource keys.
func (h *Home) KeyName() string { return h.keyName }

// Create adds a resource with the given key and document. It fails if the
// key already exists.
func (h *Home) Create(key string, doc *xmlutil.Node) (*Resource, error) {
	if key == "" {
		return nil, fmt.Errorf("wsrf: empty resource key")
	}
	if doc == nil {
		doc = xmlutil.NewNode("Properties")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.resources[key]; ok {
		return nil, fmt.Errorf("wsrf: resource %q already exists", key)
	}
	now := h.now()
	r := &Resource{key: key, doc: doc, created: now, lastUpdate: now}
	h.resources[key] = r
	return r, nil
}

// Restore installs a resource with explicit timestamps, replacing any
// existing resource with the key. It is the crash-recovery path: replay
// must reproduce the journaled LastUpdate exactly (cache revival and
// anti-entropy order on it) instead of stamping "now", and it fires no
// listeners — recovery is not observable as resource churn.
func (h *Home) Restore(key string, doc *xmlutil.Node, lastUpdate, termination time.Time) *Resource {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := &Resource{key: key, doc: doc, created: lastUpdate,
		lastUpdate: lastUpdate, termination: termination}
	h.resources[key] = r
	return r
}

// Find returns the resource for key, or nil. This is the O(1) hash-table
// named lookup the paper credits for the ATR's flat throughput curve.
func (h *Home) Find(key string) *Resource {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.resources[key]
}

// Destroy removes a resource and fires destruction listeners.
func (h *Home) Destroy(key string) bool {
	h.mu.Lock()
	r, ok := h.resources[key]
	if ok {
		delete(h.resources, key)
	}
	listeners := append([]func(*Resource){}, h.destroyed...)
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
func (h *Home) OnDestroy(fn func(*Resource)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.destroyed = append(h.destroyed, fn)
}

// Len returns the number of live resources.
func (h *Home) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.resources)
}

// Keys returns all resource keys in sorted order.
func (h *Home) Keys() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	keys := make([]string, 0, len(h.resources))
	for k := range h.resources {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// All returns the live resources in key order.
func (h *Home) All() []*Resource {
	h.mu.RLock()
	defer h.mu.RUnlock()
	keys := make([]string, 0, len(h.resources))
	for k := range h.resources {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Resource, 0, len(keys))
	for _, k := range keys {
		out = append(out, h.resources[k])
	}
	return out
}

// EPR mints an endpoint reference for a contained resource.
func (h *Home) EPR(key string) epr.EPR {
	e := epr.New(h.service, h.keyName, key)
	if r := h.Find(key); r != nil {
		e.LastUpdateTime = r.LastUpdate()
	}
	return e
}

// SweepExpired destroys every resource past its termination time and
// returns the destroyed keys. The RDM service's monitors call this
// periodically; "outdated resources are discarded automatically".
func (h *Home) SweepExpired() []string {
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
