package main

import (
	"fmt"
	"sort"

	"glare/internal/activity"
	"glare/internal/rdm"
	"glare/internal/transport"
	"glare/internal/vo"
	"glare/internal/xmlutil"
)

// The benchmark builds its grids with vo.Build, the constructor behind
// glare.NewGrid, because the hook needs each site's outbound
// transport.Client, which the public Grid keeps private. Client-side calls
// go through the same rdm.Service methods glare.Client forwards to.

// buildGrid starts a VO, hooks every site's outbound client and runs the
// initial super-peer election.
func buildGrid(opts vo.Options, h *hopHook) (*vo.VO, error) {
	v, err := vo.Build(opts)
	if err != nil {
		return nil, err
	}
	h.wrapSites(v)
	if err := v.ElectSuperPeers(); err != nil {
		v.Close()
		return nil, fmt.Errorf("election: %w", err)
	}
	return v, nil
}

// peerGroup is one super-peer group as the election left it.
type peerGroup struct {
	superPeer int
	// client is the first member that is not the super-peer: the site the
	// load generator talks to.
	client int
	// holders are the members other than client.
	holders []int
	members []int
}

// groups lists the peer groups, ordered by their lowest site index.
func groups(v *vo.VO) ([]peerGroup, error) {
	index := map[string]int{}
	for i, n := range v.Nodes {
		index[n.Info.Name] = i
	}
	seen := map[int]bool{}
	var out []peerGroup
	for i, n := range v.Nodes {
		if seen[i] {
			continue
		}
		view := n.Agent.View()
		g := peerGroup{superPeer: index[view.SuperPeer.Name], client: -1}
		for _, m := range view.Group {
			j, ok := index[m.Name]
			if !ok {
				return nil, fmt.Errorf("view of %s names unknown site %s", n.Info.Name, m.Name)
			}
			seen[j] = true
			g.members = append(g.members, j)
		}
		sort.Ints(g.members)
		for _, j := range g.members {
			if j != g.superPeer && g.client < 0 {
				g.client = j
			} else {
				g.holders = append(g.holders, j)
			}
		}
		if g.client < 0 {
			return nil, fmt.Errorf("group of %s has no member besides its super-peer", n.Info.Name)
		}
		out = append(out, g)
	}
	return out, nil
}

// serviceURL is the GLARE service address of site i, as glarectl uses it.
func serviceURL(v *vo.VO, i int) string {
	return v.Nodes[i].Info.ServiceURL(rdm.ServiceName)
}

// newGenClient is one load-generator connection: a plain transport client
// (no retries) hooked when tracing.
func newGenClient(h *hopHook) *transport.Client {
	c := transport.NewClient(nil)
	h.wrapGenerator(c)
	return c
}

// executable builds a pre-installed executable deployment record.
func executable(name, typ, siteName string) *activity.Deployment {
	return &activity.Deployment{Name: name, Type: typ, Kind: activity.KindExecutable,
		Site: siteName, Path: "/opt/perfbench/bin/" + name}
}

// getDeploymentsRequest is the GetDeployments body glarectl's resolve
// sends: never deploy on demand.
func getDeploymentsRequest(typeName string) *xmlutil.Node {
	req := xmlutil.NewNode("Request")
	req.SetAttr("type", typeName)
	req.SetAttr("deploy", "never")
	return req
}

// deploymentNames decodes a GetDeployments answer into its sorted names.
func deploymentNames(resp *xmlutil.Node) []string {
	if resp == nil {
		return nil
	}
	var names []string
	for _, n := range resp.All("ActivityDeployment") {
		d, err := activity.DeploymentFromXML(n)
		if err != nil {
			continue
		}
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}
