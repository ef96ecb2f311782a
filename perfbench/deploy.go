package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"glare/internal/rdm"
	"glare/internal/site"
	"glare/internal/store"
	"glare/internal/vo"
)

// deployWorkload is deploy-churn: one deployer forcing on-demand
// deployments of the Table 1 applications on a rotating site, then
// undeploying them, under the virtual clock.
type deployWorkload struct {
	v       *vo.VO
	hook    *hopHook
	dataDir string
	seq     int // position in the deploy cycle; the seed sets the start
	budget  int64

	// Accounting of the latest drive call (the traced window's), kept as
	// sums so the benchmark's own heap does not grow with each deploy.
	deploys, timed                            int
	virtTotal, virtComm, virtInst, virtMethod time.Duration
	casBefore                                 rdm.ArtifactStats
	casAfter                                  rdm.ArtifactStats
	ftpBefore                                 float64
	ftpAfter                                  float64
}

// deployApps are Table 1's applications; their artifacts, with the JDK and
// Ant that Counter depends on, are the distinct blobs the CAS budget is
// sized against.
var (
	deployApps      = []string{"Wien2k", "Invmod", "Counter"}
	deployToolchain = []string{"Java", "Ant"}
	deployBlobs     = append(append([]string(nil), deployApps...), deployToolchain...)
)

const deploySites = 4

// deployCycle is the length of the (application, method, site) rotation:
// step k deploys deployApps[k%3] with method (k/3)%2 from site (k/6)%4, so
// one cycle covers every combination once and every seed runs the same
// cycle from a different starting step.
const deployCycle = 3 * 2 * deploySites

func (w *deployWorkload) grid() *vo.VO { return w.v }

func (w *deployWorkload) setup(rc runConfig, h *hopHook) error {
	w.hook = h
	w.seq = int(rc.seed % deployCycle)
	universe := site.StandardUniverse()
	var distinct int64
	for _, name := range deployBlobs {
		a, ok := universe.ByName(name)
		if !ok {
			return fmt.Errorf("artifact %s missing from the standard universe", name)
		}
		distinct += a.SizeBytes
	}
	w.budget = distinct / 2
	dir, err := os.MkdirTemp("", "perfbench-deploy-")
	if err != nil {
		return err
	}
	w.dataDir = dir
	v, err := buildGrid(vo.Options{Sites: deploySites, DataDir: dir, CASBudget: w.budget, StoreFsync: store.FsyncNever}, h)
	if err != nil {
		return err
	}
	w.v = v
	// The applications on one site, their Java/Ant toolchain on another:
	// a deploy has to find both through the overlay.
	if err := v.RegisterEvaluationApps(0); err != nil {
		return err
	}
	if err := v.RegisterImagingStack(1); err != nil {
		return err
	}
	// Warm-up: one full cycle, so every site has met every application.
	for i := 0; i < deployCycle; i++ {
		if _, _, err := w.cycle(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// cycle deploys the next step's application with its method from its
// site, checks the deployments were registered, undeploys them and checks
// they are gone. It returns the deploy report and the Deploy call's wall
// time.
func (w *deployWorkload) cycle() (*rdm.DeployReport, time.Duration, error) {
	k := w.seq % deployCycle
	w.seq++
	app := deployApps[k%3]
	method := rdm.MethodExpect
	if (k/3)%2 == 1 {
		method = rdm.MethodCoG
	}
	node := w.v.Nodes[(k/6)%deploySites]
	start := time.Now()
	rep, err := node.RDM.DeployOnDemand(app, method)
	took := time.Since(start)
	if err != nil {
		return nil, took, fmt.Errorf("deploy %s (%s) from %s: %w", app, method, node.Info.Name, err)
	}
	if len(rep.Deployments) == 0 {
		return nil, took, fmt.Errorf("deploy %s registered no deployment", app)
	}
	// Undeploy what the deploy brought in: the application's deployments
	// and the toolchain Counter installed beside them, so the next deploy
	// pulls its blobs again.
	hosts := map[*vo.Node]bool{}
	for _, d := range rep.Deployments {
		host := w.siteNode(d.Site)
		if host == nil {
			return nil, took, fmt.Errorf("deployment %s names unknown site %s", d.Name, d.Site)
		}
		if _, ok := host.RDM.ADR.Get(d.Name); !ok {
			return nil, took, fmt.Errorf("deployment %s not registered on %s", d.Name, d.Site)
		}
		if err := undeployChecked(host, d.Name); err != nil {
			return nil, took, err
		}
		hosts[host] = true
	}
	for host := range hosts {
		for _, d := range host.RDM.ADR.All() {
			if slices.Contains(deployToolchain, d.Type) {
				if err := undeployChecked(host, d.Name); err != nil {
					return nil, took, err
				}
			}
		}
	}
	return rep, took, nil
}

// undeployChecked undeploys a deployment (what glare.Client.Undeploy
// calls) and checks it is gone from the site's registry.
func undeployChecked(host *vo.Node, name string) error {
	if err := host.RDM.Undeploy(name); err != nil {
		return fmt.Errorf("undeploy %s: %w", name, err)
	}
	if _, ok := host.RDM.ADR.Get(name); ok {
		return fmt.Errorf("deployment %s still registered on %s after undeploy", name, host.Info.Name)
	}
	return nil
}

func (w *deployWorkload) siteNode(name string) *vo.Node {
	for _, n := range w.v.Nodes {
		if n.Info.Name == name {
			return n
		}
	}
	return nil
}

func (w *deployWorkload) artifactTotals() rdm.ArtifactStats {
	var t rdm.ArtifactStats
	for _, n := range w.v.Nodes {
		s := n.RDM.ArtifactStats()
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.Evictions += s.Evictions
		t.PeerFetches += s.PeerFetches
		t.OriginFetches += s.OriginFetches
	}
	return t
}

func (w *deployWorkload) gridftpBytes() float64 {
	return snapTelemetry(siteTels(w.v)...).counter("glare_gridftp_bytes_total")
}

func (w *deployWorkload) drive(win *window) {
	w.deploys, w.timed = 0, 0
	w.virtTotal, w.virtComm, w.virtInst, w.virtMethod = 0, 0, 0, 0
	w.casBefore, w.ftpBefore = w.artifactTotals(), w.gridftpBytes()
	for win.open() {
		_, end := w.hook.opSpan("deploy")
		rep, took, err := w.cycle()
		end()
		if err == nil {
			w.timed++
			w.virtTotal += rep.Timings.Total()
			w.virtComm += rep.Timings.Communication
			w.virtInst += rep.Timings.Installation
			w.virtMethod += rep.Timings.MethodOverhead
		}
		w.deploys++
		win.record(opRecord{kind: "deploy", lat: took, ok: err == nil})
	}
	w.casAfter, w.ftpAfter = w.artifactTotals(), w.gridftpBytes()
}

func (w *deployWorkload) verifyEnd() (int, int) {
	// Every cycle already checked its own registration and removal; at the
	// end no site may hold an application or toolchain deployment.
	failed := 0
	for _, n := range w.v.Nodes {
		for _, d := range n.RDM.ADR.All() {
			if slices.Contains(deployBlobs, d.Type) {
				failed++
				break
			}
		}
	}
	return len(w.v.Nodes), failed
}

func (w *deployWorkload) layers(m metricSet, t *tracedWindow) {
	n := float64(max(w.timed, 1))
	m.set("deploy.virtual_s", "s", w.virtTotal.Seconds()/n)
	m.set("deploy.virtual_communication_s", "s", w.virtComm.Seconds()/n)
	m.set("deploy.virtual_installation_s", "s", w.virtInst.Seconds()/n)
	m.set("deploy.virtual_method_s", "s", w.virtMethod.Seconds()/n)
	b, a := w.casBefore, w.casAfter
	hits, misses := float64(a.Hits-b.Hits), float64(a.Misses-b.Misses)
	deploys := float64(max(w.deploys, 1))
	m.set("cas.local_hit_ratio", "ratio", ratio(hits, hits+misses))
	m.set("cas.peer_fetches_per_deploy", "count", float64(a.PeerFetches-b.PeerFetches)/deploys)
	m.set("cas.origin_fetches_per_deploy", "count", float64(a.OriginFetches-b.OriginFetches)/deploys)
	m.set("cas.evictions_per_deploy", "count", float64(a.Evictions-b.Evictions)/deploys)
	m.set("gridftp.bytes_per_deploy", "B", (w.ftpAfter-w.ftpBefore)/deploys)
	registryRungs(m, t.hook, w.v, deployBlobs)
}

func (w *deployWorkload) notes() map[string]any {
	return map[string]any{
		"loop":       "closed",
		"clients":    1,
		"sites":      deploySites,
		"clock":      "virtual",
		"cas_budget": w.budget,
		"fsync":      "never: under the virtual clock the interval policy syncs on every append",
		"data_dir":   "on (deploy checkpoints journaled)",
		"apps":       deployApps,
		"rotation":   "fixed 24-step cycle of (app, expect|cog, site); the seed sets the starting step",
	}
}

func (w *deployWorkload) close() {
	if w.v != nil {
		w.v.Close()
	}
	if w.dataDir != "" {
		os.RemoveAll(w.dataDir)
	}
}
