package rdm

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"glare/internal/activity"
	"glare/internal/cache"
	"glare/internal/epr"
	"glare/internal/simclock"
)

// TestStaleServeLeavesCachedDeploymentUnmarked: cached deployments are
// shared read-only values, so serving one stale must mark a copy as
// Degraded. Marking the cached value itself would leak the flag into
// every later answer, including fresh ones after the source recovers.
func TestStaleServeLeavesCachedDeploymentUnmarked(t *testing.T) {
	sites := newSyncSites(t, 2)
	a, b := sites[0], sites[1]
	if _, err := b.svc.RegisterType(&activity.Type{Name: "StaleType"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.svc.RegisterDeployment(&activity.Deployment{
		Name: "stale-dep", Type: "StaleType", Kind: activity.KindExecutable,
		Path: "/opt/stale/bin/stale-dep",
	}); err != nil {
		t.Fatal(err)
	}
	// First resolution crosses the super-peer overlay and fills a's cache.
	deps, err := a.svc.GetDeployments("StaleType", MethodExpect, false)
	if err != nil || len(deps) != 1 || deps[0].Degraded {
		t.Fatalf("fresh resolution = %+v, %v", deps, err)
	}

	// The owner goes away and a's entries pass their TTL, but stay within
	// the stale-retention window.
	b.srv.Close()
	a.svc.clock.(*simclock.Virtual).Advance(cache.DefaultTTL + time.Minute)
	deps, err = a.svc.GetDeployments("StaleType", MethodExpect, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 1 || !deps[0].Degraded {
		t.Fatalf("stale resolution = %+v, want one Degraded deployment", deps)
	}
	e, ok := a.svc.depCache.Peek("stale-dep")
	if !ok {
		t.Fatal("deployment not cached")
	}
	if e.Value.Degraded {
		t.Fatal("stale serve marked the shared cached value Degraded")
	}
	if e.Value == deps[0] {
		t.Fatal("stale answer aliases the cached value")
	}
}

// TestMergeDepIndexLeavesReadIndexUnchanged: an index slice a resolution
// read before anti-entropy folded a synced deployment in must keep its
// contents, and the merge must not write into its spare capacity either
// (two merges appending to one shared backing array would clobber each
// other).
func TestMergeDepIndexLeavesReadIndexUnchanged(t *testing.T) {
	svc := newSyncSites(t, 1)[0].svc
	stored := make([]string, 2, 8)
	stored[0], stored[1] = "dep-b", "dep-c"
	svc.indexCache.Put("T", epr.EPR{}, stored)

	e, ok := svc.indexCache.Peek("T")
	if !ok {
		t.Fatal("index not cached")
	}
	before := e.Value
	want := slices.Clone(before)

	svc.mergeDepIndex("T", "dep-a")

	if !slices.Equal(before, want) || !slices.Equal(e.Value, want) {
		t.Fatalf("index read before the merge changed: %v (entry %v), want %v", before, e.Value, want)
	}
	if spare := before[:cap(before)][len(before)]; spare != "" {
		t.Fatalf("merge wrote %q into the read slice's backing array", spare)
	}
	after, _ := svc.indexCache.Peek("T")
	if got := after.Value; !slices.Equal(got, []string{"dep-b", "dep-c", "dep-a"}) {
		t.Fatalf("merged index = %v", got)
	}
	// Merging a name already present is a no-op.
	svc.mergeDepIndex("T", "dep-c")
	if again, _ := svc.indexCache.Peek("T"); again != after {
		t.Fatal("re-merging a present name replaced the index")
	}
}

// TestConcurrentCacheHitsShareValues: resolutions served from the cache
// hand the same stored values to every caller at once while anti-entropy
// replaces the index they were read from. Run under -race, it checks that
// sharing stays read-only on both sides.
func TestConcurrentCacheHitsShareValues(t *testing.T) {
	sites := newSyncSites(t, 2)
	a, b := sites[0], sites[1]
	if _, err := b.svc.RegisterType(&activity.Type{Name: "SharedType"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.svc.RegisterDeployment(&activity.Deployment{
		Name: "shared-dep", Type: "SharedType", Kind: activity.KindExecutable,
		Path: "/opt/shared/bin/shared-dep",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.svc.GetDeployments("SharedType", MethodExpect, false); err != nil {
		t.Fatal(err)
	}
	hitsBefore, _ := a.svc.CacheStats()

	const readers, rounds = 4, 50
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				deps, err := a.svc.GetDeployments("SharedType", MethodExpect, false)
				if err != nil || len(deps) != 1 || deps[0].Name != "shared-dep" || deps[0].Degraded {
					t.Errorf("cached resolution = %+v, %v", deps, err)
					return
				}
				_ = deploymentList(deps).String() // the wire edge encodes shared values
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			a.svc.mergeDepIndex("SharedType", fmt.Sprintf("synced-%d", i))
		}
	}()
	wg.Wait()
	if hitsAfter, _ := a.svc.CacheStats(); hitsAfter.Hits < hitsBefore.Hits+readers*rounds {
		t.Fatalf("type-cache hits %d -> %d, want every resolution served from cache", hitsBefore.Hits, hitsAfter.Hits)
	}
}
