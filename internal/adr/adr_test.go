package adr

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"glare/internal/activity"
	"glare/internal/atr"
	"glare/internal/simclock"
	"glare/internal/transport"
	"glare/internal/xmlutil"
)

func fixture() (*Registry, *atr.Registry, *simclock.Virtual) {
	v := simclock.NewVirtual(time.Time{})
	types := atr.New("http://s1/wsrf/services/"+atr.ServiceName, v, nil)
	deps := New("http://s1/wsrf/services/"+ServiceName, types, v, nil)
	return deps, types, v
}

func jpovrayDep(name string) *activity.Deployment {
	return &activity.Deployment{
		Name: name, Type: "JPOVray", Kind: activity.KindExecutable,
		Site: "agrid1", Path: "/opt/glare/deployments/jpovray/bin/" + name,
		Home: "/opt/glare/deployments/jpovray",
	}
}

func TestRegisterRequiresOrCreatesType(t *testing.T) {
	deps, types, _ := fixture()
	// No type registered yet: the ADR requests dynamic registration.
	e, err := deps.Register(jpovrayDep("jpovray"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Key != "jpovray" {
		t.Fatalf("epr = %v", e)
	}
	if _, ok := types.Lookup("JPOVray"); !ok {
		t.Fatal("type was not dynamically registered")
	}
	// The deployment EPR is recorded in the type resource.
	refs := types.DeploymentRefs("JPOVray")
	if len(refs) != 1 || refs[0].Key != "jpovray" {
		t.Fatalf("type refs = %v", refs)
	}
}

func TestRegisterRejectsAbstractType(t *testing.T) {
	deps, types, _ := fixture()
	types.Register(&activity.Type{Name: "Imaging", Abstract: true})
	d := jpovrayDep("x")
	d.Type = "Imaging"
	if _, err := deps.Register(d); err == nil || !strings.Contains(err.Error(), "abstract") {
		t.Fatalf("err = %v", err)
	}
}

func TestRegisterEnforcesMaxDeployments(t *testing.T) {
	deps, types, _ := fixture()
	types.Register(&activity.Type{Name: "JPOVray", MaxDeployments: 2})
	if _, err := deps.Register(jpovrayDep("d1")); err != nil {
		t.Fatal(err)
	}
	if _, err := deps.Register(jpovrayDep("d2")); err != nil {
		t.Fatal(err)
	}
	if _, err := deps.Register(jpovrayDep("d3")); err == nil {
		t.Fatal("limit not enforced")
	}
	// Removing one frees a slot.
	deps.Remove("d1")
	if _, err := deps.Register(jpovrayDep("d3")); err != nil {
		t.Fatalf("after remove: %v", err)
	}
}

func TestGetAndByType(t *testing.T) {
	deps, _, _ := fixture()
	deps.Register(jpovrayDep("jpovray"))
	svc := &activity.Deployment{
		Name: "WS-JPOVray", Type: "JPOVray", Kind: activity.KindService,
		Site: "agrid1", Address: "https://agrid1:8084/wsrf/services/WS-JPOVray",
	}
	deps.Register(svc)
	other := &activity.Deployment{
		Name: "wien", Type: "Wien2k", Kind: activity.KindExecutable, Path: "/x",
	}
	deps.Register(other)

	if d, ok := deps.Get("jpovray"); !ok || d.Kind != activity.KindExecutable {
		t.Fatal("get failed")
	}
	if _, ok := deps.Get("nope"); ok {
		t.Fatal("phantom get")
	}
	byType := deps.ByType("JPOVray")
	if len(byType) != 2 {
		t.Fatalf("byType = %d", len(byType))
	}
	if got := len(deps.All()); got != 3 {
		t.Fatalf("all = %d", got)
	}
	if deps.Len() != 3 {
		t.Fatalf("len = %d", deps.Len())
	}
}

func TestDuplicateRegistration(t *testing.T) {
	deps, _, _ := fixture()
	deps.Register(jpovrayDep("d"))
	if _, err := deps.Register(jpovrayDep("d")); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestUpdateMetricsBumpsLUT(t *testing.T) {
	deps, types, v := fixture()
	deps.Register(jpovrayDep("jpovray"))
	lut1, _ := deps.LUT("jpovray")
	v.Advance(time.Second)
	err := deps.UpdateMetrics("jpovray", activity.Metrics{
		LastExecutionTime: 900 * time.Millisecond,
		LastReturnCode:    0,
		Invocations:       1,
		LastInvocation:    v.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	lut2, _ := deps.LUT("jpovray")
	if !lut2.After(lut1) {
		t.Fatal("LUT not bumped")
	}
	d, _ := deps.Get("jpovray")
	if d.Metrics.Invocations != 1 {
		t.Fatalf("metrics = %+v", d.Metrics)
	}
	// The ref in the type registry carries the fresh LUT.
	refs := types.DeploymentRefs("JPOVray")
	if len(refs) != 1 || !refs[0].LastUpdateTime.Equal(lut2) {
		t.Fatalf("type ref LUT = %v, want %v", refs[0].LastUpdateTime, lut2)
	}
	if err := deps.UpdateMetrics("missing", activity.Metrics{}); err == nil {
		t.Fatal("missing deployment accepted")
	}
}

func TestRemoveClearsTypeRef(t *testing.T) {
	deps, types, _ := fixture()
	deps.Register(jpovrayDep("jpovray"))
	if !deps.Remove("jpovray") {
		t.Fatal("remove failed")
	}
	if deps.Remove("jpovray") {
		t.Fatal("double remove")
	}
	if len(types.DeploymentRefs("JPOVray")) != 0 {
		t.Fatal("type ref not cleared")
	}
}

func TestExpiryAndCascade(t *testing.T) {
	deps, _, v := fixture()
	deps.Register(jpovrayDep("d1"))
	deps.Register(jpovrayDep("d2"))
	if err := deps.SetTermination("d1", v.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := deps.SetTermination("nope", v.Now()); err == nil {
		t.Fatal("missing accepted")
	}
	v.Advance(2 * time.Minute)
	gone := deps.SweepExpired()
	if len(gone) != 1 || gone[0] != "d1" {
		t.Fatalf("swept %v", gone)
	}
	// Type-level cascade: expire all deployments of a type.
	gone = deps.ExpireByType("JPOVray")
	if len(gone) != 1 || gone[0] != "d2" {
		t.Fatalf("cascade %v", gone)
	}
	if deps.Len() != 0 {
		t.Fatal("deployments remain")
	}
}

func TestMountedService(t *testing.T) {
	deps, _, _ := fixture()
	srv := transport.NewServer()
	deps.Mount(srv)
	if err := srv.Start("127.0.0.1:0", nil); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := transport.NewClient(nil)
	url := srv.ServiceURL(ServiceName)

	if _, err := cli.Call(url, "Register", jpovrayDep("jpovray").ToXML()); err != nil {
		t.Fatal(err)
	}
	doc, err := cli.Call(url, "Get", xmlutil.NewNode("Name", "jpovray"))
	if err != nil {
		t.Fatal(err)
	}
	if d, err := activity.DeploymentFromXML(doc); err != nil || d.Name != "jpovray" {
		t.Fatalf("remote get: %v %v", d, err)
	}
	lst, err := cli.Call(url, "GetDeployments", xmlutil.NewNode("Type", "JPOVray"))
	if err != nil || len(lst.All("ActivityDeployment")) != 1 {
		t.Fatalf("GetDeployments: %v %v", lst, err)
	}
	if _, err := cli.Call(url, "GetLUT", xmlutil.NewNode("Name", "jpovray")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(url, "Get", xmlutil.NewNode("Name", "zzz")); err == nil {
		t.Fatal("missing must fault")
	}
	if _, err := cli.Call(url, "Remove", xmlutil.NewNode("Name", "jpovray")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(url, "Remove", xmlutil.NewNode("Name", "jpovray")); err == nil {
		t.Fatal("double remove must fault")
	}
}

// TestSweepExpiredClearsTypeRef: an expired deployment's EPR leaves its
// type resource when the sweep destroys it, so the dead ref no longer
// holds the type's only MaxDeployments slot.
func TestSweepExpiredClearsTypeRef(t *testing.T) {
	deps, types, v := fixture()
	types.Register(&activity.Type{Name: "JPOVray", MaxDeployments: 1})
	if _, err := deps.Register(jpovrayDep("d1")); err != nil {
		t.Fatal(err)
	}
	deps.SetTermination("d1", v.Now().Add(time.Minute))
	v.Advance(2 * time.Minute)
	if gone := deps.SweepExpired(); len(gone) != 1 || gone[0] != "d1" {
		t.Fatalf("swept %v", gone)
	}
	if _, err := deps.Register(jpovrayDep("d2")); err != nil {
		t.Fatalf("register after the sweep: %v", err)
	}
	if refs := types.DeploymentRefs("JPOVray"); len(refs) != 1 || refs[0].Key != "d2" {
		t.Fatalf("type refs = %v", refs)
	}
}

// TestRegisterStoresPrivateCopy: changing a deployment after Register
// does not reach the registered value.
func TestRegisterStoresPrivateCopy(t *testing.T) {
	deps, _, _ := fixture()
	d := jpovrayDep("jpovray")
	d.Env = map[string]string{"JAVA_HOME": "/opt/java"}
	deps.Register(d)
	d.Path = "/changed"
	d.Env["JAVA_HOME"] = "/changed"
	got, _ := deps.Get("jpovray")
	if got.Path != "/opt/glare/deployments/jpovray/bin/jpovray" || got.Env["JAVA_HOME"] != "/opt/java" {
		t.Fatalf("registered value changed with the caller's: %+v", got)
	}
}

// TestUpdateMetricsCopyOnWrite: a deployment read before UpdateMetrics is
// unchanged afterwards; the update stores a modified copy.
func TestUpdateMetricsCopyOnWrite(t *testing.T) {
	deps, _, _ := fixture()
	deps.Register(jpovrayDep("jpovray"))
	before, _ := deps.Get("jpovray")
	all := deps.All()
	if err := deps.UpdateMetrics("jpovray", activity.Metrics{Invocations: 7}); err != nil {
		t.Fatal(err)
	}
	if before.Metrics.Invocations != 0 || all[0].Metrics.Invocations != 0 {
		t.Fatalf("value read before the update changed: %+v", before.Metrics)
	}
	if after, _ := deps.Get("jpovray"); after.Metrics.Invocations != 7 {
		t.Fatalf("metrics after the update = %+v", after.Metrics)
	}
}

// TestConcurrentReadsAndWrites runs the registries' read paths (Lookup,
// ByType, XPath Query, DeploymentRefs) alongside registrations, ref
// updates and metric updates; run it under -race.
func TestConcurrentReadsAndWrites(t *testing.T) {
	deps, types, _ := fixture()
	types.Register(&activity.Type{Name: "JPOVray"})
	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("d%d-%d", w, i)
				if _, err := deps.Register(jpovrayDep(name)); err != nil {
					t.Error(err)
					return
				}
				deps.UpdateMetrics(name, activity.Metrics{Invocations: i})
				types.AddDeploymentRef("JPOVray", deps.EPR(name))
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ty, ok := types.Lookup("JPOVray"); !ok || ty.Name != "JPOVray" {
					t.Error("lookup lost the type")
					return
				}
				for _, d := range deps.ByType("JPOVray") {
					_ = d.Metrics.Invocations
				}
				if _, err := types.QueryString(`//ActivityTypeEntry[@name='JPOVray']`); err != nil {
					t.Error(err)
					return
				}
				_ = len(types.DeploymentRefs("JPOVray"))
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if n := len(deps.ByType("JPOVray")); n != writers*perWriter {
		t.Fatalf("byType = %d, want %d", n, writers*perWriter)
	}
	if n := len(types.DeploymentRefs("JPOVray")); n != writers*perWriter {
		t.Fatalf("refs = %d, want %d", n, writers*perWriter)
	}
}
