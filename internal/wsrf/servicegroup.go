package wsrf

import (
	"sort"
	"sync"
	"time"

	"glare/internal/epr"
	"glare/internal/simclock"
	"glare/internal/xmlutil"
	"glare/internal/xpath"
)

// Entry is one aggregated member of a ServiceGroup: the EPR of its source
// resource and a cached copy of its content. Sources re-register entries
// periodically.
type Entry struct {
	EPR     epr.EPR
	Content *xmlutil.Node
	Added   time.Time
	Renewed time.Time
}

// ServiceGroup aggregates resource property documents from many sources
// into one queryable document, mirroring the GT4 WSRF service-group
// framework the Index Service builds on; the GLARE registries render the
// same document shape from their own resources (Home.Aggregate). Entries
// are keyed by the source resource key.
type ServiceGroup struct {
	mu      sync.RWMutex
	name    string
	clock   simclock.Clock
	entries map[string]*Entry
}

// NewServiceGroup creates a named, empty service group.
func NewServiceGroup(name string, clock simclock.Clock) *ServiceGroup {
	if clock == nil {
		clock = simclock.Real
	}
	return &ServiceGroup{name: name, clock: clock, entries: make(map[string]*Entry)}
}

// AddEntry inserts or refreshes an aggregated entry.
func (g *ServiceGroup) AddEntry(e epr.EPR, content *xmlutil.Node) {
	now := g.clock.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	if old, ok := g.entries[e.Key]; ok {
		old.EPR = e
		old.Content = content
		old.Renewed = now
		return
	}
	g.entries[e.Key] = &Entry{EPR: e, Content: content, Added: now, Renewed: now}
}

// RemoveEntry drops an entry by resource key.
func (g *ServiceGroup) RemoveEntry(key string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.entries[key]; !ok {
		return false
	}
	delete(g.entries, key)
	return true
}

// Len returns the number of aggregated entries.
func (g *ServiceGroup) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.entries)
}

// Document materializes the aggregated document:
//
//	<ServiceGroup name="...">
//	  <Entry key="...">
//	    <MemberEPR>…</MemberEPR>
//	    …content…
//	  </Entry>
//	</ServiceGroup>
//
// The entries are in sorted key order for determinism. XPath queries over
// the group scan this document — the linear cost at the heart of Fig. 11.
func (g *ServiceGroup) Document() *xmlutil.Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	root := xmlutil.NewNode("ServiceGroup").SetAttr("name", g.name)
	keys := make([]string, 0, len(g.entries))
	for k := range g.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := g.entries[k]
		content := e.Content
		if content != nil {
			content = content.Clone()
		}
		addEntry(root, k, e.EPR, content)
	}
	return root
}

// addEntry appends one aggregated entry — its key, its member EPR and its
// content, which the document adopts — to a service-group document.
func addEntry(root *xmlutil.Node, key string, e epr.EPR, content *xmlutil.Node) {
	en := root.Elem("Entry")
	en.SetAttr("key", key)
	en.Add(e.ToXML("MemberEPR"))
	if content != nil {
		en.Add(content)
	}
}

// Query evaluates an XPath expression over the aggregated document.
func (g *ServiceGroup) Query(expr *xpath.Expr) xpath.Result {
	return expr.Select(g.Document())
}

// StaleEntries returns keys whose entry was last renewed before the cutoff.
func (g *ServiceGroup) StaleEntries(cutoff time.Time) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []string
	for k, e := range g.entries {
		if e.Renewed.Before(cutoff) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
