package cache

import (
	"testing"
	"time"
)

func TestStaleRetentionWindow(t *testing.T) {
	c, v := fixture() // TTL one minute
	c.SetStaleFor(10 * time.Minute)
	c.Put("d", src("d", v.Now()), "ActivityDeployment")

	// Fresh: both paths hit.
	if _, ok := c.Get("d"); !ok {
		t.Fatal("fresh Get missed")
	}
	if _, ok := c.GetStale("d"); !ok {
		t.Fatal("fresh GetStale missed")
	}

	// Expired but within the window: Get misses without evicting,
	// GetStale serves.
	v.Advance(5 * time.Minute)
	if _, ok := c.Get("d"); ok {
		t.Fatal("expired entry served by Get")
	}
	if c.Len() != 1 {
		t.Fatal("expired entry evicted despite stale retention")
	}
	e, ok := c.GetStale("d")
	if !ok || e.Value != "ActivityDeployment" {
		t.Fatal("stale entry not served by GetStale")
	}
	st := c.Stats()
	if st.Stale != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Discarded != 0 {
		t.Fatalf("retained entry counted as discarded: %+v", st)
	}

	// Past the window: GetStale evicts and misses.
	v.Advance(10 * time.Minute)
	if _, ok := c.GetStale("d"); ok {
		t.Fatal("entry older than the revival window served")
	}
	if c.Len() != 0 {
		t.Fatal("entry not evicted past the window")
	}
	st = c.Stats()
	if st.Discarded != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetStaleWithoutRetentionBehavesLikeGet(t *testing.T) {
	c, v := fixture() // staleFor defaults to 0: eager eviction
	c.Put("d", src("d", v.Now()), "X")
	v.Advance(2 * time.Minute)
	if _, ok := c.GetStale("d"); ok {
		t.Fatal("stale served with retention disabled")
	}
	if c.Len() != 0 {
		t.Fatal("expired entry not evicted with retention disabled")
	}
}
