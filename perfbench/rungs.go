package main

import (
	"bytes"
	"runtime"
	"runtime/metrics"
	"time"

	"glare/internal/rdm"
	"glare/internal/transport"
	"glare/internal/vo"
	"glare/internal/xmlutil"
)

// A rung re-times one layer's public function on the workload's own
// inputs, with the load generator stopped: the difference between
// adjacent rungs is what a layer costs.

// rungBudget is how long one rung measures.
const rungBudget = 150 * time.Millisecond

type rungResult struct {
	nsPerOp     float64
	allocsPerOp float64
}

// rung calls fn(i) for i = 0, 1, … until the budget is spent (at least
// three calls) and reports the per-call cost. The whole rung is recorded
// as one span named "rung:<name>".
func (h *hopHook) rung(name string, fn func(i int)) rungResult {
	objs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	fn(0) // warm once outside the measurement
	metrics.Read(objs)
	before := objs[0].Value.Uint64()
	s := span{Trace: "rung", ID: h.nextID.Add(1), Name: "rung:" + name, Start: h.now()}
	start := time.Now()
	n := 0
	for n < 3 || time.Since(start) < rungBudget {
		fn(n)
		n++
	}
	elapsed := time.Since(start)
	s.End = h.now()
	h.add(s)
	metrics.Read(objs)
	return rungResult{
		nsPerOp:     float64(elapsed) / float64(n),
		allocsPerOp: float64(objs[0].Value.Uint64()-before) / float64(n),
	}
}

// rungsCommon times the workload-independent layers on the envelopes the
// traced window captured: XML parse and encode, a transport round trip to
// a no-op handler, and an uncontended admission pass.
func rungsCommon(m metricSet, h *hopHook) {
	h.mu.Lock()
	captured := map[string][]byte{"small": h.small, "large": h.large}
	h.mu.Unlock()
	runtime.GC()
	for _, size := range []string{"small", "large"} {
		raw := captured[size]
		env, err := xmlutil.Parse(bytes.NewReader(raw))
		if len(raw) == 0 || err != nil {
			continue
		}
		parse := h.rung("xmlutil.parse."+size, func(int) { _, _ = xmlutil.Parse(bytes.NewReader(raw)) })
		encode := h.rung("xmlutil.encode."+size, func(int) { _ = env.String() })
		m.set("xmlutil.parse_us."+size, "us", parse.nsPerOp/1000)
		m.set("xmlutil.parse_allocs."+size, "count", parse.allocsPerOp)
		m.set("xmlutil.encode_us."+size, "us", encode.nsPerOp/1000)
		m.set("xmlutil.encode_allocs."+size, "count", encode.allocsPerOp)
		m.set("xmlutil.envelope_bytes."+size, "B", float64(len(raw)))
		var resp *xmlutil.Node
		if b := env.First("Body"); b != nil && len(b.Children) > 0 {
			resp = b.Children[0]
		}
		if us, ok := noopRoundTrip(h, size, resp); ok {
			m.set("transport.noop_rtt_us."+size, "us", us)
		}
	}
	adm := transport.NewAdmission(transport.DefaultAdmissionConfig(), nil)
	pass := h.rung("admission.pass", func(int) {
		if release, err := adm.Admit(rdm.ServiceName, "GetDeployments", time.Time{}); err == nil {
			release()
		}
	})
	m.set("admission.pass_ns", "ns", pass.nsPerOp)
}

// noopRoundTrip times a loopback call to a standalone transport server
// whose handler answers with resp and does nothing else.
func noopRoundTrip(h *hopHook, size string, resp *xmlutil.Node) (float64, bool) {
	srv := transport.NewServer()
	srv.Register("Noop", "Echo", func(*xmlutil.Node) (*xmlutil.Node, error) { return resp, nil })
	if err := srv.Start("127.0.0.1:0", nil); err != nil {
		return 0, false
	}
	defer srv.Close()
	cli := transport.NewClient(nil)
	defer cli.CloseIdle()
	addr := srv.ServiceURL("Noop")
	req := xmlutil.NewNode("Type", "Noop")
	failed := false
	r := h.rung("transport.noop_rtt."+size, func(int) {
		if _, err := cli.Call(addr, "Echo", req); err != nil {
			failed = true
		}
	})
	return r.nsPerOp / 1000, !failed
}

// registryRungs times the registries of the site holding the most types
// on the workload's own names: ATR hierarchy resolution, ATR named lookup
// and ADR by-type scan.
func registryRungs(m metricSet, h *hopHook, v *vo.VO, names []string) {
	holder := v.Nodes[0]
	for _, n := range v.Nodes {
		if n.RDM.ATR.Len() > holder.RDM.ATR.Len() {
			holder = n
		}
	}
	atrReg, adrReg := holder.RDM.ATR, holder.RDM.ADR
	at := func(i int) string { return names[i%len(names)] }
	m.set("atr.concreteof_us", "us", h.rung("atr.concreteof", func(i int) { _, _ = atrReg.ConcreteOf(at(i)) }).nsPerOp/1000)
	m.set("atr.lookup_ns", "ns", h.rung("atr.lookup", func(i int) { atrReg.Lookup(at(i)) }).nsPerOp)
	m.set("adr.bytype_us", "us", h.rung("adr.bytype", func(i int) { adrReg.ByType(at(i)) }).nsPerOp/1000)
}

// inprocResolveRung times rdm.Service.GetDeployments in process on the
// reading site over the workload's name stream.
func inprocResolveRung(m metricSet, h *hopHook, svc *rdm.Service, names []string) {
	r := h.rung("rdm.inproc_resolve", func(i int) { _, _ = svc.GetDeployments(names[i%len(names)], rdm.MethodExpect, false) })
	m.set("rdm.inproc_resolve_us", "us", r.nsPerOp/1000)
}
