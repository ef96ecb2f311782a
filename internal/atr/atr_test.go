package atr

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"glare/internal/activity"
	"glare/internal/simclock"
	"glare/internal/transport"
	"glare/internal/wsrf"
	"glare/internal/xmlutil"
)

func fixture() (*Registry, *simclock.Virtual) {
	v := simclock.NewVirtual(time.Time{})
	return New("http://s1/wsrf/services/"+ServiceName, v, nil), v
}

func imagingTypes() []*activity.Type {
	return []*activity.Type{
		{Name: "Imaging", Abstract: true},
		{Name: "POVray", Abstract: true, Base: []string{"Imaging"}},
		{Name: "JPOVray", Base: []string{"POVray"}, Dependencies: []string{"Java", "Ant"},
			Installation: &activity.Installation{Mode: activity.ModeOnDemand}},
		{Name: "Java"},
		{Name: "Ant"},
	}
}

func TestRegisterLookup(t *testing.T) {
	r, _ := fixture()
	for _, ty := range imagingTypes() {
		if _, err := r.Register(ty); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := r.Lookup("JPOVray")
	if !ok || got.Name != "JPOVray" || len(got.Dependencies) != 2 {
		t.Fatalf("lookup = %+v, %v", got, ok)
	}
	if _, ok := r.Lookup("Nope"); ok {
		t.Fatal("phantom lookup")
	}
	if r.Len() != 5 {
		t.Fatalf("len = %d", r.Len())
	}
	// Duplicate registration must fail.
	if _, err := r.Register(&activity.Type{Name: "Java"}); err == nil {
		t.Fatal("duplicate type accepted")
	}
	// Invalid type must fail.
	if _, err := r.Register(&activity.Type{}); err == nil {
		t.Fatal("invalid type accepted")
	}
}

func TestConcreteResolution(t *testing.T) {
	r, _ := fixture()
	for _, ty := range imagingTypes() {
		r.Register(ty)
	}
	concrete, err := r.ConcreteOf("Imaging")
	if err != nil {
		t.Fatal(err)
	}
	if len(concrete) != 1 || concrete[0].Name != "JPOVray" {
		t.Fatalf("concrete = %v", concrete)
	}
}

func TestXPathQuery(t *testing.T) {
	r, _ := fixture()
	for _, ty := range imagingTypes() {
		r.Register(ty)
	}
	res, err := r.QueryString(`//ActivityTypeEntry[@name='JPOVray']`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 1 {
		t.Fatalf("query = %d", len(res.Nodes))
	}
	if _, err := r.QueryString(`///`); err == nil {
		t.Fatal("bad xpath accepted")
	}
	// Abstract discovery via XPath.
	res, _ = r.QueryString(`//ActivityTypeEntry[@abstract='true']`)
	if len(res.Nodes) != 2 {
		t.Fatalf("abstract types = %d", len(res.Nodes))
	}
}

func TestDeploymentRefs(t *testing.T) {
	r, v := fixture()
	r.Register(&activity.Type{Name: "JPOVray"})
	dep := r.EPR("JPOVray") // any EPR shape works for the ref
	dep.KeyName = "ActivityDeploymentKey"
	dep.Key = "jpovray"
	dep.LastUpdateTime = v.Now()
	if err := r.AddDeploymentRef("JPOVray", dep); err != nil {
		t.Fatal(err)
	}
	refs := r.DeploymentRefs("JPOVray")
	if len(refs) != 1 || refs[0].Key != "jpovray" {
		t.Fatalf("refs = %v", refs)
	}
	// Re-adding replaces rather than duplicates.
	v.Advance(time.Second)
	dep2 := dep.Touch(v.Now())
	r.AddDeploymentRef("JPOVray", dep2)
	refs = r.DeploymentRefs("JPOVray")
	if len(refs) != 1 || !refs[0].LastUpdateTime.Equal(v.Now()) {
		t.Fatalf("refs after update = %v", refs)
	}
	r.RemoveDeploymentRef("JPOVray", "jpovray")
	if len(r.DeploymentRefs("JPOVray")) != 0 {
		t.Fatal("ref not removed")
	}
	if err := r.AddDeploymentRef("Missing", dep); err == nil {
		t.Fatal("ref on missing type accepted")
	}
}

func TestMarkDeployed(t *testing.T) {
	r, _ := fixture()
	r.Register(&activity.Type{Name: "Wien2k"})
	if err := r.MarkDeployed("Wien2k", "agrid1"); err != nil {
		t.Fatal(err)
	}
	r.MarkDeployed("Wien2k", "agrid1") // idempotent
	r.MarkDeployed("Wien2k", "agrid2")
	on := r.DeployedOn("Wien2k")
	if len(on) != 2 {
		t.Fatalf("deployed on %v", on)
	}
	if err := r.MarkDeployed("Nope", "x"); err == nil {
		t.Fatal("missing type accepted")
	}
}

func TestRemoveFiresListener(t *testing.T) {
	r, _ := fixture()
	r.Register(&activity.Type{Name: "X"})
	var removed []string
	r.OnRemove(func(name string) { removed = append(removed, name) })
	if !r.Remove("X") {
		t.Fatal("remove failed")
	}
	if r.Remove("X") {
		t.Fatal("double remove")
	}
	if len(removed) != 1 || removed[0] != "X" {
		t.Fatalf("listener saw %v", removed)
	}
	// Removed from aggregation too.
	res, _ := r.QueryString(`//ActivityTypeEntry[@name='X']`)
	if !res.Empty() {
		t.Fatal("removed type still aggregated")
	}
}

func TestExpiryCascadePlumbing(t *testing.T) {
	r, v := fixture()
	r.Register(&activity.Type{Name: "Temp"})
	if err := r.SetTermination("Temp", v.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := r.SetTermination("Nope", v.Now()); err == nil {
		t.Fatal("missing type accepted")
	}
	if gone := r.SweepExpired(); len(gone) != 0 {
		t.Fatal("premature expiry")
	}
	v.Advance(2 * time.Minute)
	gone := r.SweepExpired()
	if len(gone) != 1 || gone[0] != "Temp" {
		t.Fatalf("swept %v", gone)
	}
}

func TestNotifications(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	broker := wsrf.NewBroker(v)
	r := New("http://s/wsrf/services/ATR", v, broker)
	events := map[string]int{}
	for _, topic := range []string{wsrf.TopicResourceCreated, wsrf.TopicResourceUpdated, wsrf.TopicResourceDestroyed} {
		tp := topic
		broker.Subscribe(tp, wsrf.SinkFunc(func(n wsrf.Notification) { events[tp]++ }))
	}
	r.Register(&activity.Type{Name: "A"})
	e := r.EPR("A")
	e.KeyName = "ActivityDeploymentKey"
	e.Key = "a1"
	r.AddDeploymentRef("A", e)
	r.Remove("A")
	if events[wsrf.TopicResourceCreated] != 1 || events[wsrf.TopicResourceUpdated] != 1 ||
		events[wsrf.TopicResourceDestroyed] != 1 {
		t.Fatalf("events = %v", events)
	}
}

func TestLUT(t *testing.T) {
	r, v := fixture()
	r.Register(&activity.Type{Name: "A"})
	lut1, ok := r.LUT("A")
	if !ok {
		t.Fatal("lut missing")
	}
	v.Advance(time.Second)
	r.MarkDeployed("A", "s")
	lut2, _ := r.LUT("A")
	if !lut2.After(lut1) {
		t.Fatal("LUT not bumped by update")
	}
	if _, ok := r.LUT("Nope"); ok {
		t.Fatal("phantom lut")
	}
}

func TestMountedService(t *testing.T) {
	r, _ := fixture()
	srv := transport.NewServer()
	r.Mount(srv)
	if err := srv.Start("127.0.0.1:0", nil); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := transport.NewClient(nil)
	url := srv.ServiceURL(ServiceName)

	ty := &activity.Type{Name: "Remote", Domain: "Test"}
	resp, err := cli.Call(url, "RegisterType", ty.ToXML())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Name != "TypeEPR" {
		t.Fatalf("resp = %s", resp)
	}
	doc, err := cli.Call(url, "GetType", xmlutil.NewNode("Name", "Remote"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := activity.TypeFromXML(doc)
	if err != nil || got.Name != "Remote" {
		t.Fatalf("remote GetType: %v %v", got, err)
	}
	if _, err := cli.Call(url, "GetType", xmlutil.NewNode("Name", "Missing")); err == nil {
		t.Fatal("missing type must fault")
	}
	if _, err := cli.Call(url, "GetLUT", xmlutil.NewNode("Name", "Remote")); err != nil {
		t.Fatal(err)
	}
	lst, err := cli.Call(url, "ListTypes", nil)
	if err != nil || len(lst.All("Type")) != 1 {
		t.Fatalf("list: %v %v", lst, err)
	}
	q, err := cli.Call(url, "Query", xmlutil.NewNode("XPath", `//ActivityTypeEntry[@name='Remote']`))
	if err != nil || len(q.All("ActivityTypeEntry")) != 1 {
		t.Fatalf("query: %v %v", q, err)
	}
	if _, err := cli.Call(url, "RemoveType", xmlutil.NewNode("Name", "Remote")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(url, "RemoveType", xmlutil.NewNode("Name", "Remote")); err == nil {
		t.Fatal("double remove must fault")
	}
}

func TestManyTypesNamedLookupStaysFast(t *testing.T) {
	// Smoke-check the hash path on a large registry (the Fig. 11 claim);
	// timing assertions belong to benchmarks, correctness here.
	r, _ := fixture()
	for i := 0; i < 300; i++ {
		r.Register(&activity.Type{Name: fmt.Sprintf("T%03d", i)})
	}
	if _, ok := r.Lookup("T299"); !ok {
		t.Fatal("lookup failed at scale")
	}
	if got := len(r.Names()); got != 300 {
		t.Fatalf("names = %d", got)
	}
}

// TestRegisterStoresPrivateCopy: changing a type after Register — even
// deep inside it — does not reach the registered value.
func TestRegisterStoresPrivateCopy(t *testing.T) {
	r, _ := fixture()
	ty := imagingTypes()[2] // JPOVray
	ty.Functions = []activity.Function{{Name: "render", Inputs: []string{"scene.pov"}}}
	if _, err := r.Register(ty); err != nil {
		t.Fatal(err)
	}
	ty.Name = "Changed"
	ty.Base[0] = "Changed"
	ty.Dependencies[0] = "Changed"
	ty.Functions[0].Inputs[0] = "changed.pov"
	ty.Installation.Mode = activity.ModeManual
	got, ok := r.Lookup("JPOVray")
	if !ok || got.Name != "JPOVray" || got.Base[0] != "POVray" || got.Dependencies[0] != "Java" ||
		got.Functions[0].Inputs[0] != "scene.pov" || got.Installation.Mode != activity.ModeOnDemand {
		t.Fatalf("registered value changed with the caller's: %+v", got)
	}
}

// TestUpdatesCopyOnWrite: the entry and ref slice read before each of
// AddDeploymentRef, MarkDeployed and RemoveDeploymentRef are unchanged
// afterwards; every update stores a modified copy instead of editing what
// readers hold.
func TestUpdatesCopyOnWrite(t *testing.T) {
	r, v := fixture()
	r.Register(&activity.Type{Name: "JPOVray"})
	ref := r.EPR("JPOVray")
	ref.KeyName, ref.Key = "ActivityDeploymentKey", "d1"
	ref2 := ref
	ref2.Key = "d2"
	r.MarkDeployed("JPOVray", "agrid1")
	for _, step := range []struct {
		name string
		op   func()
	}{
		{"AddDeploymentRef", func() { r.AddDeploymentRef("JPOVray", ref.Touch(v.Now())) }},
		{"AddDeploymentRef replacing", func() { r.AddDeploymentRef("JPOVray", ref.Touch(v.Now())) }},
		{"AddDeploymentRef appending", func() { r.AddDeploymentRef("JPOVray", ref2) }},
		{"MarkDeployed", func() { r.MarkDeployed("JPOVray", "agrid2") }},
		{"RemoveDeploymentRef", func() { r.RemoveDeploymentRef("JPOVray", "d1") }},
	} {
		held := r.home.Find("JPOVray").Value()
		want := &entry{typ: held.typ, refs: slices.Clone(held.refs), deployed: slices.Clone(held.deployed)}
		refs := r.DeploymentRefs("JPOVray")
		wantRefs := slices.Clone(refs)
		v.Advance(time.Second)
		step.op()
		if !reflect.DeepEqual(held, want) || !reflect.DeepEqual(refs, wantRefs) {
			t.Fatalf("%s changed a value read before it: %+v, refs %v", step.name, held, refs)
		}
	}
	refs := r.DeploymentRefs("JPOVray")
	if len(refs) != 1 || refs[0].Key != "d2" || fmt.Sprint(r.DeployedOn("JPOVray")) != "[agrid1 agrid2]" {
		t.Fatalf("after the updates: refs %v, deployed on %v", refs, r.DeployedOn("JPOVray"))
	}
}

// TestDocumentForm pins the type resource's document: the type, then
// <DeploymentRefs> only while it holds refs, then the <DeployedOn> sites —
// whatever order the refs and marks were made in.
func TestDocumentForm(t *testing.T) {
	r, _ := fixture()
	r.Register(&activity.Type{Name: "A"})
	r.MarkDeployed("A", "agrid1")
	ref := r.EPR("A")
	ref.KeyName, ref.Key = "ActivityDeploymentKey", "a1"
	r.AddDeploymentRef("A", ref)
	names := func() (out []string) {
		doc, _ := r.LookupDocument("A")
		for _, c := range doc.Children {
			out = append(out, c.Name)
		}
		return out
	}
	if got := fmt.Sprint(names()); got != "[DeploymentRefs DeployedOn]" {
		t.Fatalf("children = %s", got)
	}
	r.RemoveDeploymentRef("A", "a1")
	if got := fmt.Sprint(names()); got != "[DeployedOn]" {
		t.Fatalf("children after the last ref left = %s", got)
	}
	// The document decodes back to the same entry (what Restore replays).
	doc, _ := r.LookupDocument("A")
	lut, term, _ := r.Timestamps("A")
	r2, _ := fixture()
	if err := r2.Restore("A", doc, lut, term); err != nil {
		t.Fatal(err)
	}
	if on := r2.DeployedOn("A"); len(on) != 1 || on[0] != "agrid1" || len(r2.DeploymentRefs("A")) != 0 {
		t.Fatalf("restored entry = %v / %v", on, r2.DeploymentRefs("A"))
	}
	if err := r2.Restore("B", xmlutil.NewNode("NotAType"), lut, term); err == nil || r2.Len() != 1 {
		t.Fatal("an undecodable document was restored")
	}
}
