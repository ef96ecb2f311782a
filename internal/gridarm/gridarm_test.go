package gridarm

import (
	"testing"

	"glare/internal/site"
)

func attrs(name string, mhz, mem, procs, uptime int) site.Attributes {
	return site.Attributes{
		Name: name, ProcessorMHz: mhz, MemoryMB: mem, Processors: procs,
		UptimeHours: uptime, Platform: "Intel", OS: "Linux", Arch: "32bit",
	}
}

func TestRequestSatisfies(t *testing.T) {
	a := attrs("s", 1500, 2048, 8, 100)
	cases := []struct {
		req  Request
		want bool
	}{
		{Request{}, true},
		{Request{OS: "Linux", MinProcessorMHz: 1000}, true},
		{Request{OS: "Solaris"}, false},
		{Request{MinProcessorMHz: 2000}, false},
		{Request{MinMemoryMB: 4096}, false},
		{Request{MinProcessors: 16}, false},
		{Request{MinProcessors: 8, MinMemoryMB: 2048, MinProcessorMHz: 1500}, true},
	}
	for i, c := range cases {
		if got := c.req.Satisfies(a); got != c.want {
			t.Errorf("case %d: Satisfies = %v", i, got)
		}
	}
}

func TestRankOrdersByCapacity(t *testing.T) {
	sites := []site.Attributes{
		attrs("small", 1000, 1024, 2, 100),
		attrs("big", 2000, 8192, 16, 100),
		attrs("mid", 1500, 4096, 8, 100),
		attrs("wrong-os", 3000, 16384, 32, 100),
	}
	sites[3].OS = "Solaris"
	ranked := Rank(sites, Request{OS: "Linux"})
	if len(ranked) != 3 {
		t.Fatalf("candidates = %d", len(ranked))
	}
	if ranked[0].Attrs.Name != "big" || ranked[1].Attrs.Name != "mid" || ranked[2].Attrs.Name != "small" {
		t.Fatalf("order = %v %v %v", ranked[0].Attrs.Name, ranked[1].Attrs.Name, ranked[2].Attrs.Name)
	}
	// Deterministic tie-break by name.
	tie := []site.Attributes{attrs("b", 1000, 1024, 2, 100), attrs("a", 1000, 1024, 2, 100)}
	r := Rank(tie, Request{})
	if r[0].Attrs.Name != "a" {
		t.Fatal("tie-break not by name")
	}
}
