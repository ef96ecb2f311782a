package wsrf

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"glare/internal/simclock"
	"glare/internal/xmlutil"
	"glare/internal/xpath"
)

// prop is the test resources' value: a name plus one flag an update sets.
type prop struct {
	name string
	x    bool
}

func newHome(clock simclock.Clock) *Home[*prop] {
	return NewHome[*prop]("http://x/wsrf/services/ATR", "ActivityTypeKey", clock)
}

// entryDoc renders a prop as its property document.
func entryDoc(p *prop) *xmlutil.Node {
	return xmlutil.NewNode("ActivityTypeEntry").SetAttr("name", p.name)
}

func TestCreateFindDestroy(t *testing.T) {
	h := newHome(nil)
	doc := &prop{name: "JPOVray"}
	r, err := h.Create("JPOVray", doc)
	if err != nil {
		t.Fatal(err)
	}
	if h.Find("JPOVray") != r {
		t.Fatal("Find failed")
	}
	if _, err := h.Create("JPOVray", doc); err == nil {
		t.Fatal("duplicate create must fail")
	}
	if _, err := h.Create("", doc); err == nil {
		t.Fatal("empty key must fail")
	}
	if !h.Destroy("JPOVray") {
		t.Fatal("destroy failed")
	}
	if h.Destroy("JPOVray") {
		t.Fatal("double destroy must report false")
	}
	if h.Find("JPOVray") != nil {
		t.Fatal("destroyed resource still findable")
	}
	if !r.Destroyed() {
		t.Fatal("resource not marked destroyed")
	}
}

// TestDocumentIsolation: Update swaps in a new value instead of writing
// through the stored one, so a value read before the update is unchanged.
func TestDocumentIsolation(t *testing.T) {
	h := newHome(nil)
	r, _ := h.Create("a", &prop{name: "1"})
	doc := r.Value()
	h.Update("a", func(p *prop) *prop { return &prop{name: "mutated"} })
	if doc.name != "1" || r.Value().name != "mutated" {
		t.Fatalf("read before update = %q, after = %q", doc.name, r.Value().name)
	}
}

func TestUpdateBumpsLastUpdate(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	h := newHome(v)
	r, _ := h.Create("a", &prop{})
	t0 := r.LastUpdate()
	v.Advance(time.Second)
	if _, ok := h.Update("a", func(p *prop) *prop { c := *p; c.x = true; return &c }); !ok {
		t.Fatal("update of a live resource failed")
	}
	if !r.LastUpdate().After(t0) {
		t.Fatal("LastUpdate not bumped")
	}
	if !r.Value().x {
		t.Fatal("update lost")
	}
	if _, ok := h.Update("missing", func(p *prop) *prop { return p }); ok {
		t.Fatal("update of a missing resource succeeded")
	}
}

func TestLifetimeAndSweep(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	h := newHome(v)
	a, _ := h.Create("a", nil)
	b, _ := h.Create("b", nil)
	a.SetTerminationTime(v.Now().Add(10 * time.Second))
	if a.Expired(v.Now()) {
		t.Fatal("not yet expired")
	}
	v.Advance(11 * time.Second)
	if !a.Expired(v.Now()) {
		t.Fatal("should be expired")
	}
	if b.Expired(v.Now()) {
		t.Fatal("b has no termination time")
	}
	gone := h.SweepExpired()
	if len(gone) != 1 || gone[0] != "a" {
		t.Fatalf("swept %v", gone)
	}
	if h.Len() != 1 {
		t.Fatalf("len = %d", h.Len())
	}
}

func TestOnDestroyListener(t *testing.T) {
	h := newHome(nil)
	var mu sync.Mutex
	var destroyed []string
	h.OnDestroy(func(r *Resource[*prop]) {
		mu.Lock()
		destroyed = append(destroyed, r.Key())
		mu.Unlock()
	})
	h.Create("x", nil)
	h.Destroy("x")
	mu.Lock()
	defer mu.Unlock()
	if len(destroyed) != 1 || destroyed[0] != "x" {
		t.Fatalf("listener saw %v", destroyed)
	}
}

func TestEPRMinting(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	h := newHome(v)
	h.Create("jpovray", nil)
	e := h.EPR("jpovray")
	if e.Address != "http://x/wsrf/services/ATR" || e.KeyName != "ActivityTypeKey" || e.Key != "jpovray" {
		t.Fatalf("EPR = %+v", e)
	}
	if e.LastUpdateTime.IsZero() {
		t.Fatal("EPR must carry LUT for existing resource")
	}
}

func TestKeysSortedAndAll(t *testing.T) {
	h := newHome(nil)
	for _, k := range []string{"c", "a", "b"} {
		h.Create(k, nil)
	}
	keys := h.Keys()
	if fmt.Sprint(keys) != "[a b c]" {
		t.Fatalf("keys = %v", keys)
	}
	all := h.All()
	if len(all) != 3 || all[0].Key() != "a" {
		t.Fatal("All not sorted")
	}
}

func TestServiceGroupAggregationAndQuery(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	h := newHome(v)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("t%d", i)
		h.Create(key, &prop{name: key})
	}
	g := h.Aggregate("atr", entryDoc)
	if n := len(g.All("Entry")); n != 5 {
		t.Fatalf("group len = %d", n)
	}
	query := xpath.MustCompile(`//ActivityTypeEntry[@name='t3']`)
	res := query.Select(g)
	if len(res.Nodes) != 1 {
		t.Fatalf("query = %d nodes", len(res.Nodes))
	}
	// Destroy one source and aggregate again: its entry must be gone.
	h.Destroy("t3")
	g = h.Aggregate("atr", entryDoc)
	if n := len(g.All("Entry")); n != 4 {
		t.Fatalf("after destroy len = %d", n)
	}
	if !query.Select(g).Empty() {
		t.Fatal("destroyed resource still aggregated")
	}
	// Each entry carries its member EPR, stamped with the resource's LUT.
	member := g.First("Entry").First("MemberEPR")
	if member == nil || member.First("ReferenceProperties").ChildText("LastUpdateTime") == "" {
		t.Fatalf("entry without stamped MemberEPR: %s", g.First("Entry"))
	}
}

func TestServiceGroupStaleEntries(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	g := NewServiceGroup("g", v)
	h := newHome(v)
	h.Create("a", nil)
	g.AddEntry(h.EPR("a"), nil)
	v.Advance(time.Minute)
	h.Create("b", nil)
	g.AddEntry(h.EPR("b"), nil)
	stale := g.StaleEntries(v.Now().Add(-30 * time.Second))
	if len(stale) != 1 || stale[0] != "a" {
		t.Fatalf("stale = %v", stale)
	}
}

func TestServiceGroupRemoveEntry(t *testing.T) {
	g := NewServiceGroup("g", nil)
	h := newHome(nil)
	h.Create("a", nil)
	g.AddEntry(h.EPR("a"), nil)
	if !g.RemoveEntry("a") {
		t.Fatal("remove failed")
	}
	if g.RemoveEntry("a") {
		t.Fatal("double remove must be false")
	}
}

func TestBrokerPublishSubscribe(t *testing.T) {
	b := NewBroker(nil)
	var mu sync.Mutex
	var got []Notification
	id, err := b.Subscribe(TopicDeployment, SinkFunc(func(n Notification) {
		mu.Lock()
		got = append(got, n)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if n := b.Publish(TopicDeployment, "jpovray", xmlutil.NewNode("Deployed")); n != 1 {
		t.Fatalf("published to %d sinks", n)
	}
	if n := b.Publish("OtherTopic", "x", nil); n != 0 {
		t.Fatal("published to wrong topic")
	}
	mu.Lock()
	if len(got) != 1 || got[0].Producer != "jpovray" {
		t.Fatalf("got %v", got)
	}
	mu.Unlock()
	b.Unsubscribe(TopicDeployment, id)
	if n := b.Publish(TopicDeployment, "jpovray", nil); n != 0 {
		t.Fatal("unsubscribe ineffective")
	}
	if b.Delivered() != 1 {
		t.Fatalf("delivered = %d", b.Delivered())
	}
}

func TestBrokerErrors(t *testing.T) {
	b := NewBroker(nil)
	if _, err := b.Subscribe("", SinkFunc(func(Notification) {})); err == nil {
		t.Fatal("empty topic must fail")
	}
	if _, err := b.Subscribe("t", nil); err == nil {
		t.Fatal("nil sink must fail")
	}
}

func TestBrokerManySinks(t *testing.T) {
	b := NewBroker(nil)
	const sinks = 100
	var mu sync.Mutex
	delivered := 0
	for i := 0; i < sinks; i++ {
		b.Subscribe("t", SinkFunc(func(Notification) {
			mu.Lock()
			delivered++
			mu.Unlock()
		}))
	}
	if n := b.Publish("t", "p", nil); n != sinks {
		t.Fatalf("published %d", n)
	}
	if delivered != sinks {
		t.Fatalf("delivered %d", delivered)
	}
	if b.Subscribers("t") != sinks {
		t.Fatalf("subscribers = %d", b.Subscribers("t"))
	}
}

func TestConcurrentHomeAccess(t *testing.T) {
	h := newHome(nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				key := fmt.Sprintf("r%d-%d", i, j)
				h.Create(key, nil)
				h.Find(key)
				if j%2 == 0 {
					h.Destroy(key)
				}
			}
		}(i)
	}
	wg.Wait()
	if h.Len() != 16*25 {
		t.Fatalf("len = %d, want %d", h.Len(), 16*25)
	}
}

// TestRestoreExpiredResource pins the recovery-meets-lifetime corner: a
// journal can legitimately replay a resource whose scheduled termination
// time passed while the site was down. Restore must install it verbatim
// (recovery is not the place for lifecycle policy, and it must not stamp
// "now"), and the next SweepExpired pass — not the restore — destroys it.
func TestRestoreExpiredResource(t *testing.T) {
	start := time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)
	v := simclock.NewVirtual(start)
	h := newHome(v)

	lut := start.Add(-2 * time.Hour)
	term := start.Add(-time.Hour) // already in the past at restore time
	r := h.Restore("stale", &prop{name: "old"}, lut, term)
	if got := h.Find("stale"); got != r {
		t.Fatal("expired resource must still be installed by Restore")
	}
	if !r.LastUpdate().Equal(lut) {
		t.Fatalf("Restore stamped LastUpdate %v, want journaled %v", r.LastUpdate(), lut)
	}
	if !r.Expired(v.Now()) {
		t.Fatal("restored resource should report expired")
	}

	// A fresh resource with a future termination must survive the sweep
	// that reaps the stale one.
	h.Restore("fresh", &prop{name: "new"}, start, start.Add(time.Hour))
	swept := h.SweepExpired()
	if len(swept) != 1 || swept[0] != "stale" {
		t.Fatalf("SweepExpired = %v, want [stale]", swept)
	}
	if h.Find("stale") != nil {
		t.Fatal("expired resource survived the sweep")
	}
	if h.Find("fresh") == nil {
		t.Fatal("unexpired resource reaped by the sweep")
	}
}
