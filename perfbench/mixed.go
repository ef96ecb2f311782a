package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"glare/internal/replicate"
	"glare/internal/simclock"
	"glare/internal/store"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/vo"
	"glare/internal/xmlutil"
)

// mixedWorkload is register-mixed: an open loop of replicated registration
// churn plus reads of the churning types, on a durable six-site grid.
type mixedWorkload struct {
	v                   *vo.VO
	hook                *hopHook
	dataDir             string
	groupOf             []int // site → peer-group index
	types               []string
	offset              int // seeded start of the site rotation
	writeRate, readRate float64

	mu     sync.Mutex
	deps   map[string]*mixedDep
	byType map[string][]*mixedDep
	live   []string // acknowledged, not yet undeployed, oldest first
	nextID int
	writes int // writes scheduled so far: even register, odd undeploy
}

// mixedDep is the generator's ledger entry for one deployment: when each
// of its writes started and was acknowledged (zero: not yet).
type mixedDep struct {
	name, typ                          string
	site                               int
	regStart, regAck, undStart, undAck time.Time
}

const (
	mixedTypes   = 24
	mixedLive    = 300 // registry size kept constant by the churn
	mixedWriteHz = 50.0
	mixedReadHz  = 150.0
	mixedWorkers = 2
	// mixedSettle bounds how long the end-of-run oracle waits for the
	// asynchronous replica fan-out (and delete tombstones) to drain.
	mixedSettle = 5 * time.Second
)

func (w *mixedWorkload) grid() *vo.VO { return w.v }

func (w *mixedWorkload) setup(rc runConfig, h *hopHook) error {
	w.hook = h
	w.writeRate, w.readRate = mixedWriteHz*rc.scale, mixedReadHz*rc.scale
	w.deps, w.byType = map[string]*mixedDep{}, map[string][]*mixedDep{}
	dir, err := os.MkdirTemp("", "perfbench-mixed-")
	if err != nil {
		return err
	}
	w.dataDir = dir
	v, err := buildGrid(vo.Options{Sites: 6, GroupSize: 3, Clock: simclock.Real, CacheDisabled: true,
		DataDir: dir, StoreFsync: store.FsyncInterval, ReplicaK: 3}, h)
	if err != nil {
		return err
	}
	w.v = v
	gs, err := groups(v)
	if err != nil {
		return err
	}
	w.groupOf = make([]int, len(v.Nodes))
	for gi, g := range gs {
		for _, s := range g.members {
			w.groupOf[s] = gi
		}
	}
	for i := 0; i < mixedTypes; i++ {
		w.types = append(w.types, fmt.Sprintf("Mixed-T%02d", i))
	}
	w.offset = int(rc.seed % int64(len(v.Nodes)))
	live := rc.scaled(mixedLive, mixedTypes)
	for i := 0; i < live; i++ {
		d := w.newDep()
		d.regStart = time.Now()
		n := v.Nodes[d.site]
		if _, err := n.RDM.RegisterDeployment(executable(d.name, d.typ, n.Info.Name)); err != nil {
			return fmt.Errorf("preload %s: %w", d.name, err)
		}
		d.regAck = time.Now()
		w.live = append(w.live, d.name)
	}
	// Warm-up: resolve every type once from every site through the wire.
	cli := newGenClient(h)
	defer cli.CloseIdle()
	for _, typ := range w.types {
		for s := range v.Nodes {
			if !w.read(cli, nil, typ, s) {
				return fmt.Errorf("warm-up read of %s from site %d failed the oracle", typ, s)
			}
		}
	}
	return nil
}

// newDep allocates the next deployment. The i-th has type i mod T and
// site (i + i/T + offset) mod N: consecutive deployments go to consecutive
// sites, every type rotates over all sites, and since the live set is
// always the latest few hundred, every type keeps the same share of it
// everywhere.
func (w *mixedWorkload) newDep() *mixedDep {
	w.mu.Lock()
	defer w.mu.Unlock()
	i := w.nextID
	w.nextID++
	d := &mixedDep{name: fmt.Sprintf("Mixed-w%07d", i), typ: w.types[i%len(w.types)],
		site: (i + i/len(w.types) + w.offset) % len(w.v.Nodes)}
	w.deps[d.name] = d
	w.byType[d.typ] = append(w.byType[d.typ], d)
	return d
}

// mixedEvent is one scheduled client operation.
type mixedEvent struct {
	due  time.Time
	kind string // "write" or "read"
}

// schedule merges the fixed-rate write and read streams.
type schedule struct {
	mu                  sync.Mutex
	start               time.Time
	writeGap, readGap   time.Duration
	nextWrite, nextRead int
}

func (s *schedule) next() mixedEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	wd := s.start.Add(time.Duration(s.nextWrite) * s.writeGap)
	rd := s.start.Add(time.Duration(s.nextRead) * s.readGap)
	if !rd.Before(wd) {
		s.nextWrite++
		return mixedEvent{due: wd, kind: "write"}
	}
	s.nextRead++
	return mixedEvent{due: rd, kind: "read"}
}

func (w *mixedWorkload) drive(win *window) {
	sched := &schedule{start: time.Now(),
		writeGap: time.Duration(float64(time.Second) / w.writeRate),
		readGap:  time.Duration(float64(time.Second) / w.readRate)}
	var wg sync.WaitGroup
	for k := 0; k < mixedWorkers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cli := newGenClient(w.hook)
			defer cli.CloseIdle()
			rng := rand.New(rand.NewSource(win.seed*7919 + int64(k)))
			for {
				ev := sched.next()
				if !ev.due.Before(win.deadline) {
					return
				}
				time.Sleep(time.Until(ev.due))
				sent := time.Now()
				var kind string
				var ok bool
				if ev.kind == "write" {
					kind, ok = w.write(cli)
				} else {
					kind = "resolve"
					sp, end := w.hook.opSpan(kind)
					ok = w.read(cli, sp, w.types[rng.Intn(len(w.types))], rng.Intn(len(w.v.Nodes)))
					end()
				}
				win.record(opRecord{kind: kind, lat: time.Since(ev.due), late: sent.Sub(ev.due), ok: ok})
			}
		}(k)
	}
	wg.Wait()
}

// write performs the next write of the churn: registrations on a
// round-robin site alternate with undeploying the oldest live deployment.
func (w *mixedWorkload) write(cli *transport.Client) (string, bool) {
	w.mu.Lock()
	seq := w.writes
	w.writes++
	var oldest *mixedDep
	if seq%2 == 1 {
		oldest = w.deps[w.live[0]]
		w.live = w.live[1:]
		oldest.undStart = time.Now()
	}
	w.mu.Unlock()
	if oldest == nil {
		sp, end := w.hook.opSpan("register")
		defer end()
		d := w.newDep()
		n := w.v.Nodes[d.site]
		w.mu.Lock()
		d.regStart = time.Now()
		w.mu.Unlock()
		_, err := cli.CallSpan(sp, serviceURL(w.v, d.site), "RegisterDeployment", executable(d.name, d.typ, n.Info.Name).ToXML())
		if err != nil {
			return "register", false
		}
		w.mu.Lock()
		d.regAck = time.Now()
		w.live = append(w.live, d.name)
		w.mu.Unlock()
		return "register", true
	}
	sp, end := w.hook.opSpan("undeploy")
	defer end()
	_, err := cli.CallSpan(sp, serviceURL(w.v, oldest.site), "Undeploy", xmlutil.NewNode("Name", oldest.name))
	if err != nil {
		return "undeploy", false
	}
	w.mu.Lock()
	oldest.undAck = time.Now()
	w.mu.Unlock()
	return "undeploy", true
}

// read resolves typ from site reader over the wire and checks the answer
// against the ledger. Writes in flight during the read may go either way;
// everything else is fixed by the protocol: the answer holds no name that
// was never registered or whose undeploy was acknowledged before the read,
// and when the reader's group holds a deployment that was live for the
// whole read, the answer is exactly the group's (the super-peer tier is
// asked only on a group-wide miss) and includes every such deployment. A
// "no deployments" fault is right only when no deployment of the type was
// live anywhere for the whole read.
func (w *mixedWorkload) read(cli *transport.Client, sp *telemetry.Span, typ string, reader int) bool {
	start := time.Now()
	resp, err := cli.CallSpan(sp, serviceURL(w.v, reader), "GetDeployments", getDeploymentsRequest(typ))
	end := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	surelyLive := func(d *mixedDep) bool {
		return !d.regAck.IsZero() && d.regAck.Before(start) && (d.undStart.IsZero() || !d.undStart.Before(end))
	}
	if err != nil {
		if !transport.IsFault(err) {
			return false
		}
		for _, d := range w.byType[typ] {
			if surelyLive(d) {
				return false
			}
		}
		return true
	}
	got := deploymentNames(resp)
	gotSet := map[string]bool{}
	outside := false
	for _, name := range got {
		d := w.deps[name]
		if d == nil || d.typ != typ || !d.regStart.Before(end) || (!d.undAck.IsZero() && d.undAck.Before(start)) {
			return false
		}
		if w.groupOf[d.site] != w.groupOf[reader] {
			outside = true
		}
		gotSet[name] = true
	}
	ownLive := 0
	for _, d := range w.byType[typ] {
		if w.groupOf[d.site] != w.groupOf[reader] || !surelyLive(d) {
			continue
		}
		ownLive++
		if !gotSet[d.name] {
			return false
		}
	}
	return !(ownLive > 0 && outside)
}

// verifyEnd checks, once the replica fan-out has drained, that every
// acknowledged live deployment is on its owner and on a write quorum of
// its replica set, and that every undeployed one is gone from both.
func (w *mixedWorkload) verifyEnd() (int, int) {
	deadline := time.Now().Add(mixedSettle)
	for {
		checks, failed := w.checkReplicas()
		if failed == 0 || time.Now().After(deadline) {
			return checks, failed
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (w *mixedWorkload) checkReplicas() (checks, failed int) {
	w.mu.Lock()
	var all []*mixedDep
	for _, d := range w.deps {
		all = append(all, d)
	}
	w.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	index := map[string]int{}
	for i, n := range w.v.Nodes {
		index[n.Info.Name] = i
	}
	need := replicate.Quorum(3) - 1 // the owner's copy is one vote
	for _, d := range all {
		owner := w.v.Nodes[d.site]
		var want bool
		switch {
		case !d.undAck.IsZero():
			want = false
		case !d.regAck.IsZero() && d.undStart.IsZero():
			want = true
		default:
			continue // a write that failed: either outcome is allowed
		}
		checks++
		_, onOwner := owner.RDM.ADR.Get(d.name)
		copies := 0
		for _, r := range replicate.ReplicaSet(owner.Agent.View(), owner.Info.Name, 3) {
			if i, ok := index[r.Name]; ok && w.v.Nodes[i].RDM.Replicator().Holder().Has(owner.Info.Name, "adr", d.name, time.Time{}) {
				copies++
			}
		}
		if want && (!onOwner || copies < need) || !want && (onOwner || copies > 0) {
			failed++
		}
	}
	return checks, failed
}

func (w *mixedWorkload) layers(m metricSet, t *tracedWindow) {
	rng := rand.New(rand.NewSource(1))
	var names []string
	for i := 0; i < 64; i++ {
		names = append(names, w.types[rng.Intn(len(w.types))])
	}
	registryRungs(m, t.hook, w.v, names)
	inprocResolveRung(m, t.hook, w.v.Nodes[0].RDM, names)
}

func (w *mixedWorkload) notes() map[string]any {
	return map[string]any{
		"loop":             "open",
		"workers":          mixedWorkers,
		"write_rate_hz":    w.writeRate,
		"read_rate_hz":     w.readRate,
		"latency_from":     "due time",
		"sites":            6,
		"group_size":       3,
		"replicas":         3,
		"fsync":            "interval (store default)",
		"cache":            false,
		"clock":            "real",
		"types":            mixedTypes,
		"live_deployments": len(w.live),
		"writes":           "register on a round-robin site, alternating with undeploy of the oldest live deployment",
	}
}

func (w *mixedWorkload) close() {
	if w.v != nil {
		w.v.Close()
	}
	if w.dataDir != "" {
		os.RemoveAll(w.dataDir)
	}
}
