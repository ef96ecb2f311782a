// Package gridarm implements the part of the companion resource-management
// system the paper pairs GLARE with that GLARE itself uses: "GLARE's
// dynamic registration, automatic deployment and on-demand provision of
// the Grid activities, in combination with GridARM's resource brokerage
// and advanced reservation, provide a powerful base for the Grid workflow
// management system" (§1, citing [36]).
//
// Only the broker is modelled: Rank orders candidate Grid sites against a
// physical-resource request (platform/OS/arch constraints plus capacity
// minima), and the GLARE deployment manager consults it when choosing an
// installation target. GridARM's advance reservations are out of scope;
// GLARE's own activity leasing (internal/lease) reserves deployments.
package gridarm

import (
	"sort"

	"glare/internal/site"
)

// Request describes the physical resources an application needs.
type Request struct {
	// Platform/OS/Arch are hard constraints (empty = any).
	Platform string
	OS       string
	Arch     string
	// Minimum capacities (0 = no minimum).
	MinProcessorMHz int
	MinMemoryMB     int
	MinProcessors   int
}

// Satisfies reports whether a site meets the request's hard constraints.
func (r Request) Satisfies(a site.Attributes) bool {
	if !a.Matches(r.Platform, r.OS, r.Arch) {
		return false
	}
	if r.MinProcessorMHz > 0 && a.ProcessorMHz < r.MinProcessorMHz {
		return false
	}
	if r.MinMemoryMB > 0 && a.MemoryMB < r.MinMemoryMB {
		return false
	}
	if r.MinProcessors > 0 && a.Processors < r.MinProcessors {
		return false
	}
	return true
}

// Candidate is one ranked brokerage result.
type Candidate struct {
	Attrs site.Attributes
	Score float64
}

// Rank filters the sites against the request and orders the survivors by
// capacity score (more/faster processors and more memory first; uptime
// breaks ties — long-lived sites are likelier to stay up). Deterministic:
// equal scores order by name.
func Rank(sites []site.Attributes, req Request) []Candidate {
	var out []Candidate
	for _, a := range sites {
		if !req.Satisfies(a) {
			continue
		}
		score := float64(a.Processors)*float64(a.ProcessorMHz)/1000 +
			float64(a.MemoryMB)/1024 +
			float64(a.UptimeHours)/1000
		out = append(out, Candidate{Attrs: a, Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Attrs.Name < out[j].Attrs.Name
	})
	return out
}
