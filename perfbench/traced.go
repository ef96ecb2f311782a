package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"glare/internal/telemetry"
	"glare/internal/vo"
)

// transportOps are the wire operations whose client and server time the
// traced run reports one by one.
var transportOps = []string{
	"GetDeployments", "ConcreteOf", "GroupConcreteOf", "ForwardConcreteOf",
	"LocalDeployments", "GroupDeployments", "ForwardDeployments",
	"RegisterDeployment", "Undeploy", "Replicate", "ArtifactFetch",
}

// forwardOps are the super-peer overlay operations.
var forwardOps = []string{"ForwardConcreteOf", "ForwardDeployments", "GroupConcreteOf", "GroupDeployments"}

// writeKinds are the client operation kinds that mutate registries.
var writeKinds = []string{"register", "undeploy", "deploy"}

// telKey identifies one series summed across sites.
type telKey struct {
	name   string
	labels string // sorted k=v pairs joined by ","
}

type telVal struct {
	value float64 // counter total or gauge level
	count uint64  // histogram observations
	sum   time.Duration
}

type telSnap map[telKey]telVal

// siteTels lists every site's telemetry bundle.
func siteTels(v *vo.VO) []*telemetry.Telemetry {
	var out []*telemetry.Telemetry
	for _, n := range v.Nodes {
		out = append(out, n.Tel)
	}
	return out
}

// snapTelemetry sums the bundles' registries series by series.
func snapTelemetry(tels ...*telemetry.Telemetry) telSnap {
	out := telSnap{}
	for _, t := range tels {
		if t == nil {
			continue
		}
		for _, s := range t.Registry().Snapshot() {
			k := telKey{name: s.Name, labels: labelString(s.Labels)}
			cur := out[k]
			if s.Histogram != nil {
				cur.count += s.Histogram.Count
				cur.sum += s.Histogram.Sum
			} else {
				cur.value += s.Value
			}
			out[k] = cur
		}
	}
	return out
}

func labelString(ls []telemetry.Label) string {
	parts := make([]string, 0, len(ls))
	for _, l := range ls {
		parts = append(parts, l.Key+"="+l.Value)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// plus merges two snapshots series by series.
func (a telSnap) plus(b telSnap) telSnap {
	out := telSnap{}
	for _, src := range []telSnap{a, b} {
		for k, v := range src {
			cur := out[k]
			out[k] = telVal{value: cur.value + v.value, count: cur.count + v.count, sum: cur.sum + v.sum}
		}
	}
	return out
}

// diff returns after − before, series by series.
func (after telSnap) diff(before telSnap) telSnap {
	out := telSnap{}
	for k, a := range after {
		b := before[k]
		out[k] = telVal{value: a.value - b.value, count: a.count - b.count, sum: a.sum - b.sum}
	}
	return out
}

// match reports whether a series carries every wanted label.
func (k telKey) match(want []string) bool {
	have := "," + k.labels + ","
	for _, w := range want {
		if !strings.Contains(have, ","+w+",") {
			return false
		}
	}
	return true
}

// counter sums the counter series of name carrying all labels ("k=v").
func (d telSnap) counter(name string, labels ...string) float64 {
	var total float64
	for k, v := range d {
		if k.name == name && k.match(labels) {
			total += v.value
		}
	}
	return total
}

// exact is the counter series of name with exactly these labels.
func (d telSnap) exact(name, labels string) float64 {
	return d[telKey{name: name, labels: labels}].value
}

// meanUS is the mean of the histogram series of name carrying all labels.
func (d telSnap) meanUS(name string, labels ...string) float64 {
	var n uint64
	var sum time.Duration
	for k, v := range d {
		if k.name == name && k.match(labels) {
			n += v.count
			sum += v.sum
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / float64(time.Microsecond)
}

// tracedWindow is the recording phase of a traced run.
type tracedWindow struct {
	v          *vo.VO
	hook       *hopHook
	siteBefore telSnap
	genBefore  telSnap
	// siteDelta is the sites' own change; delta adds the load generator's
	// clients, whose calls are the client operations themselves.
	siteDelta telSnap
	delta     telSnap
	m         *measured
	spans     []span
}

func beginTraced(wl workload, h *hopHook) *tracedWindow {
	return &tracedWindow{v: wl.grid(), hook: h,
		siteBefore: snapTelemetry(siteTels(wl.grid())...), genBefore: snapTelemetry(h.genTel)}
}

func (t *tracedWindow) finish(m *measured) {
	t.m = m
	t.siteDelta = snapTelemetry(siteTels(t.v)...).diff(t.siteBefore)
	t.delta = t.siteDelta.plus(snapTelemetry(t.hook.genTel).diff(t.genBefore))
	t.hook.mu.Lock()
	t.spans = append([]span(nil), t.hook.spans...)
	t.hook.mu.Unlock()
	attribute(t.spans)
}

// ops is the number of client operations in the recording phase.
func (t *tracedWindow) ops() float64 {
	a, _ := t.m.w.counts()
	return float64(max(a, 1))
}

// kindCount counts recorded client ops of the given kinds.
func (t *tracedWindow) kindCount(kinds ...string) float64 {
	n := 0
	for _, r := range t.m.w.ops {
		if slices.Contains(kinds, r.kind) {
			n++
		}
	}
	return float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// common computes the per-layer metrics every workload reports.
func (t *tracedWindow) common(m metricSet) {
	d, ops := t.delta, t.ops()
	m.set("transport.calls_per_op", "count", t.siteDelta.counter("glare_rpc_client_requests_total")/ops)
	for _, op := range transportOps {
		call := d.meanUS("glare_rpc_client_latency", "op="+op)
		srv := d.meanUS("glare_rpc_server_latency", "op="+op)
		m.set("transport.call_us."+op, "us", call)
		m.set("transport.server_us."+op, "us", srv)
		m.set("transport.overhead_us."+op, "us", max(call-srv, 0))
	}
	m.set("transport.req_bytes_per_op", "B", float64(t.hook.reqBytes.Load())/ops)
	m.set("transport.resp_bytes_per_op", "B", float64(t.hook.respBytes.Load())/ops)
	m.set("transport.retries", "count", d.counter("glare_transport_retries_total"))
	m.set("transport.unavailable", "count", d.counter("glare_transport_unavailable_total"))

	m.set("admission.shed_ratio", "ratio", ratio(d.exact("glare_server_sheds_total", ""), d.counter("glare_rpc_server_requests_total")))

	m.set("rdm.handler_us.GetDeployments", "us", d.meanUS("glare_rdm_latency", "op=GetDeployments"))
	sources := []string{"local", "cache", "peer", "superpeer", "stale"}
	total := d.counter("glare_rdm_resolve_total")
	for _, src := range sources {
		m.set("rdm.resolve_share."+src, "ratio", ratio(d.counter("glare_rdm_resolve_total", "source="+src), total))
	}
	hits, misses := d.counter("glare_rdm_cache_hits_total"), d.counter("glare_rdm_cache_misses_total")
	m.set("cache.hit_ratio", "ratio", ratio(hits, hits+misses))

	var forwards float64
	for _, op := range forwardOps {
		forwards += t.siteDelta.counter("glare_rpc_client_requests_total", "op="+op)
	}
	m.set("superpeer.forwards_per_op", "count", ratio(forwards, t.kindCount("resolve")))

	writes := t.kindCount(writeKinds...)
	m.set("store.appends_per_write", "count", ratio(d.counter("glare_store_appends_total"), writes))
	m.set("store.fsyncs_per_s", "1/s", d.counter("glare_store_fsyncs_total")/t.m.elapsedSec)
	m.set("replicate.applies_per_write", "count", ratio(d.counter("glare_replica_apply_total"), writes))
	m.set("replicate.quorum_fail_ratio", "ratio", ratio(d.counter("glare_replica_quorum_failures_total"), writes))
	m.set("deploy.steps_skipped", "count", d.counter("glare_deploy_steps_skipped_total"))

	m.set("runtime.gc_per_kop", "count", float64(t.m.after.gcs-t.m.before.gcs)/ops*1000)
	var late []time.Duration
	for _, r := range t.m.w.ops {
		late = append(late, r.late)
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	m.set("harness.gen_late_p99_ms", "ms", quantileUS(late, 0.99)/1000)

	for _, k := range []struct{ name, kind string }{{"resolve", "resolve"}, {"write", "register"}} {
		kinds := []string{k.kind}
		if k.name == "write" {
			kinds = writeKinds
		}
		lats := t.m.w.latencies(kinds...)
		m.set("client."+k.name+"_p50_us", "us", quantileUS(lats, 0.5))
		m.set("client."+k.name+"_p99_us", "us", quantileUS(lats, 0.99))
	}

	t.spanMetrics(m)
	rungsCommon(m, t.hook)
}

// spanMetrics reports self times from the attributed spans.
func (t *tracedWindow) spanMetrics(m metricSet) {
	var opSelf, entrySelf, hopSelf time.Duration
	var nOp, nEntry, nHop int
	for _, s := range t.spans {
		switch {
		case strings.HasPrefix(s.Name, "op:"):
			opSelf += time.Duration(s.Self)
			nOp++
		case strings.HasPrefix(s.Name, "hop:") && s.Src == clientSrc:
			entrySelf += time.Duration(s.Self)
			nEntry++
		case strings.HasPrefix(s.Name, "hop:"):
			hopSelf += time.Duration(s.Self)
			nHop++
		}
	}
	us := func(d time.Duration, n int) float64 { return ratio(float64(d)/float64(time.Microsecond), float64(n)) }
	m.set("trace.op_self_us", "us", us(opSelf, nOp))
	m.set("trace.entry_self_us", "us", us(entrySelf, nEntry))
	m.set("trace.hop_self_us", "us", us(hopSelf, nHop))
	m.set("trace.hops_per_op", "count", ratio(float64(nHop), float64(max(nOp, 1))))
}

// attribute links every hop to the span that caused it and computes each
// span's self time. A hop leaving the load generator belongs to the
// client operation of its trace; a hop leaving site S belongs to the
// innermost hop into S of the same trace that encloses it in time.
func attribute(spans []span) {
	byTrace := map[string][]int{}
	for i, s := range spans {
		if s.Trace != "" {
			byTrace[s.Trace] = append(byTrace[s.Trace], i)
		}
	}
	children := map[int][][2]int64{}
	for _, idx := range byTrace {
		root := -1
		for _, i := range idx {
			if strings.HasPrefix(spans[i].Name, "op:") {
				root = i
			}
		}
		for _, i := range idx {
			s := &spans[i]
			if !strings.HasPrefix(s.Name, "hop:") {
				continue
			}
			parent := root
			if s.Src != clientSrc {
				best := int64(-1)
				for _, j := range idx {
					p := spans[j]
					if j != i && strings.HasPrefix(p.Name, "hop:") && p.Dst == s.Src &&
						p.Start <= s.Start && p.End >= s.End && p.Start > best {
						best, parent = p.Start, j
					}
				}
			}
			if parent >= 0 {
				s.Parent = spans[parent].ID
				children[parent] = append(children[parent], [2]int64{s.Start, s.End})
			}
		}
	}
	for i := range spans {
		spans[i].Self = spans[i].End - spans[i].Start - covered(children[i])
	}
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cs, ce := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > ce {
			total += ce - cs
			cs, ce = x[0], x[1]
		} else if x[1] > ce {
			ce = x[1]
		}
	}
	return total + ce - cs
}

// writeSpans writes the recorded spans as JSON lines under the checkout's
// build directory and returns the file's path.
func (t *tracedWindow) writeSpans(rc runConfig) (string, error) {
	if rc.spansDir == "" {
		return "", fmt.Errorf("span output disabled")
	}
	if err := os.MkdirAll(rc.spansDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(rc.spansDir, fmt.Sprintf("%s-seed%d.jsonl", rc.workload, rc.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	// The rung spans came after the window; each is a leaf.
	t.hook.mu.Lock()
	rungs := append([]span(nil), t.hook.spans[len(t.spans):]...)
	t.hook.mu.Unlock()
	for i := range rungs {
		rungs[i].Self = rungs[i].End - rungs[i].Start
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range append(t.spans, rungs...) {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
