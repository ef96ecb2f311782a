package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"glare/internal/simclock"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/vo"
)

// resolveWorkload is resolve-cached (cached) or resolve-fanout: a closed
// loop of two clients, each calling GetDeployments over the wire on the
// non-super-peer site of its own peer group.
type resolveWorkload struct {
	cached  bool
	v       *vo.VO
	hook    *hopHook
	clients []*resolveClient
	deps    int
}

type resolveClient struct {
	site int
	url  string
	cli  *transport.Client
	// pool is every type this client resolves; classes groups pool indices
	// by list size (resolve-cached) or by tier (resolve-fanout).
	pool    []resolveType
	classes [][]int
	// next is the client's position in cachedCycle.
	next int
}

type resolveType struct {
	name string
	want []string // sorted deployment names the workload placed
}

// Fig. 12 list sizes. resolve-cached requests cycle through
// cachedCycle (indices into cachedSizes), so a little over half of them ask
// for a single entry and every run has the same size mix; the seed sets
// each client's phase in the cycle and the types drawn.
var (
	cachedSizes = []int{1, 4, 16, 64, 240}
	cachedCycle = []int{0, 1, 0, 2, 0, 3, 0, 4, 0}
	// fanoutCycle is resolve-fanout's tier sequence (0 peer, 1 super-peer):
	// unequal shares keep the median off the boundary between the tiers.
	fanoutCycle = []int{0, 1, 1}
)

const (
	cachedTypesPerSize = 4
	fanoutTypesPerTier = 600 // per client and tier: 2 clients × 2 tiers ≈ 2,400 types
	fanoutMaxDeps      = 4
	fanoutWarmup       = 32 // warm-up resolves per client on resolve-fanout
	resolveClients     = 2
)

func (w *resolveWorkload) grid() *vo.VO { return w.v }

func (w *resolveWorkload) setup(rc runConfig, h *hopHook) error {
	w.hook = h
	v, err := buildGrid(vo.Options{Sites: 6, GroupSize: 3, Clock: simclock.Real, CacheDisabled: !w.cached}, h)
	if err != nil {
		return err
	}
	w.v = v
	gs, err := groups(v)
	if err != nil {
		return err
	}
	if len(gs) < resolveClients {
		return fmt.Errorf("want %d peer groups, election made %d", resolveClients, len(gs))
	}
	for k := 0; k < resolveClients; k++ {
		own, other := gs[k], gs[(k+1)%len(gs)]
		c := &resolveClient{site: own.client, url: serviceURL(v, own.client), cli: newGenClient(h)}
		var err error
		if w.cached {
			err = w.placeCached(rc, k, c, own)
		} else {
			err = w.placeFanout(rc, k, c, own, other)
		}
		if err != nil {
			return err
		}
		w.clients = append(w.clients, c)
	}
	// Warm-up through the wire: on resolve-cached every type once, which
	// fills the cache; on resolve-fanout, whose misses cost tens of
	// milliseconds each, a fixed sample that warms connections and code.
	for _, c := range w.clients {
		n := len(c.pool)
		if !w.cached {
			n = min(n, fanoutWarmup)
		}
		for i := 0; i < n; i++ {
			if err := c.resolve(nil, &c.pool[i*len(c.pool)/n]); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// placeCached registers, for each list size, types whose deployments sit
// on the client's two group peers (the Fig. 12 layout).
func (w *resolveWorkload) placeCached(rc runConfig, k int, c *resolveClient, own peerGroup) error {
	perSize := rc.scaled(cachedTypesPerSize, 1)
	for _, size := range cachedSizes {
		var class []int
		for j := 0; j < perSize; j++ {
			t := resolveType{name: fmt.Sprintf("Cached%d-L%03d-%d", k, size, j)}
			for d := 0; d < size; d++ {
				dep := fmt.Sprintf("%s-d%03d", t.name, d)
				if err := w.place(own.holders[d%len(own.holders)], dep, t.name); err != nil {
					return err
				}
				t.want = append(t.want, dep)
			}
			sort.Strings(t.want)
			class = append(class, len(c.pool))
			c.pool = append(c.pool, t)
		}
		c.classes = append(c.classes, class)
	}
	return nil
}

// placeFanout registers half the client's types in its own group (peer
// tier) and half only in the other group (super-peer tier), with one to
// four deployments each. The placement is the same for every seed, so the
// registry each run scans is too.
func (w *resolveWorkload) placeFanout(rc runConfig, k int, c *resolveClient, own, other peerGroup) error {
	n := rc.scaled(fanoutTypesPerTier, 2)
	for tier, g := range []peerGroup{own, other} {
		var class []int
		for j := 0; j < n; j++ {
			t := resolveType{name: fmt.Sprintf("Fanout%d-T%d-%04d", k, tier, j)}
			deps, first := 1+j%fanoutMaxDeps, j%len(g.holders)
			for d := 0; d < deps; d++ {
				dep := fmt.Sprintf("%s-d%d", t.name, d)
				if err := w.place(g.holders[(first+d)%len(g.holders)], dep, t.name); err != nil {
					return err
				}
				t.want = append(t.want, dep)
			}
			sort.Strings(t.want)
			class = append(class, len(c.pool))
			c.pool = append(c.pool, t)
		}
		c.classes = append(c.classes, class)
	}
	return nil
}

func (w *resolveWorkload) place(site int, dep, typ string) error {
	n := w.v.Nodes[site]
	if _, err := n.RDM.RegisterDeployment(executable(dep, typ, n.Info.Name)); err != nil {
		return fmt.Errorf("preload %s on %s: %w", dep, n.Info.Name, err)
	}
	w.deps++
	return nil
}

// pick draws the next type: the class (list size or tier) comes from the
// workload's cycle, the type within the class uniformly.
func (c *resolveClient) pick(rng *rand.Rand, cached bool) *resolveType {
	cycle := fanoutCycle
	if cached {
		cycle = cachedCycle
	}
	class := c.classes[cycle[c.next%len(cycle)]]
	c.next++
	return &c.pool[class[rng.Intn(len(class))]]
}

// resolve calls GetDeployments over the wire and checks the answer is
// exactly the placed name set.
func (c *resolveClient) resolve(sp *telemetry.Span, t *resolveType) error {
	resp, err := c.cli.CallSpan(sp, c.url, "GetDeployments", getDeploymentsRequest(t.name))
	if err != nil {
		return err
	}
	got := deploymentNames(resp)
	if !slices.Equal(got, t.want) {
		return fmt.Errorf("GetDeployments %s: got %d names, want %d", t.name, len(got), len(t.want))
	}
	return nil
}

func (w *resolveWorkload) drive(win *window) {
	var wg sync.WaitGroup
	for k, c := range w.clients {
		wg.Add(1)
		go func(k int, c *resolveClient) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(win.seed*7919 + int64(k)))
			c.next = rng.Intn(len(cachedCycle) * len(fanoutCycle))
			for win.open() {
				t := c.pick(rng, w.cached)
				sp, end := w.hook.opSpan("resolve")
				start := time.Now()
				err := c.resolve(sp, t)
				lat := time.Since(start)
				end()
				win.record(opRecord{kind: "resolve", lat: lat, ok: err == nil})
			}
		}(k, c)
	}
	wg.Wait()
}

func (w *resolveWorkload) verifyEnd() (int, int) { return 0, 0 }

// sampleNames is a deterministic slice of client 0's name stream.
func (w *resolveWorkload) sampleNames(n int) []string {
	c := *w.clients[0]
	rng := rand.New(rand.NewSource(1))
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, c.pick(rng, w.cached).name)
	}
	return out
}

func (w *resolveWorkload) layers(m metricSet, t *tracedWindow) {
	names := w.sampleNames(64)
	registryRungs(m, t.hook, w.v, names)
	inprocResolveRung(m, t.hook, w.v.Nodes[w.clients[0].site].RDM, names)
}

func (w *resolveWorkload) notes() map[string]any {
	return map[string]any{
		"loop":          "closed",
		"clients":       resolveClients,
		"sites":         6,
		"group_size":    3,
		"cache":         w.cached,
		"clock":         "real",
		"types":         len(w.clients[0].pool) + len(w.clients[1].pool),
		"deployments":   w.deps,
		"entry_sites":   []int{w.clients[0].site, w.clients[1].site},
		"list_sizes":    cachedSizes,
		"fanout_tiers":  "half own group (peer tier), half other group only (super-peer tier)",
		"request_mix":   "resolve-cached: sizes cycle 1,4,1,16,1,64,1,240,1 from a seeded phase; resolve-fanout: tiers cycle peer, super-peer, super-peer from a seeded phase",
		"deploy_policy": "never (glarectl resolve)",
		"fsync":         "none: memory-only sites",
	}
}

func (w *resolveWorkload) close() {
	for _, c := range w.clients {
		c.cli.CloseIdle()
	}
	if w.v != nil {
		w.v.Close()
	}
}
