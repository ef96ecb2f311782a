package main

// layerMetric is one per-layer metric of the traced run: its unit and
// which direction is better. BENCHMARK.json's per_layer list is this table
// (checked by the tests); README.md names the end-to-end metric and the
// workload each layer should move. A metric a workload does not exercise
// reads 0.
type layerMetric struct {
	name, unit, better string
}

var perLayer = buildPerLayer()

func buildPerLayer() []layerMetric {
	var t []layerMetric
	add := func(name, unit, better string) {
		t = append(t, layerMetric{name, unit, better})
	}
	add("transport.calls_per_op", "count", "lower")
	for _, op := range transportOps {
		add("transport.call_us."+op, "us", "lower")
		add("transport.server_us."+op, "us", "lower")
		add("transport.overhead_us."+op, "us", "lower")
	}
	add("transport.req_bytes_per_op", "B", "lower")
	add("transport.resp_bytes_per_op", "B", "lower")
	add("transport.retries", "count", "lower")
	add("transport.unavailable", "count", "lower")
	add("transport.noop_rtt_us.small", "us", "lower")
	add("transport.noop_rtt_us.large", "us", "lower")

	add("admission.shed_ratio", "ratio", "lower")
	add("admission.pass_ns", "ns", "lower")

	for _, size := range []string{"small", "large"} {
		add("xmlutil.parse_us."+size, "us", "lower")
		add("xmlutil.parse_allocs."+size, "count", "lower")
		add("xmlutil.encode_us."+size, "us", "lower")
		add("xmlutil.encode_allocs."+size, "count", "lower")
		add("xmlutil.envelope_bytes."+size, "B", "lower")
	}

	add("rdm.inproc_resolve_us", "us", "lower")
	add("rdm.handler_us.GetDeployments", "us", "lower")
	add("rdm.resolve_share.local", "ratio", "higher")
	add("rdm.resolve_share.cache", "ratio", "higher")
	add("rdm.resolve_share.peer", "ratio", "lower")
	add("rdm.resolve_share.superpeer", "ratio", "lower")
	add("rdm.resolve_share.stale", "ratio", "lower")
	add("cache.hit_ratio", "ratio", "higher")

	add("atr.concreteof_us", "us", "lower")
	add("atr.lookup_ns", "ns", "lower")
	add("adr.bytype_us", "us", "lower")
	add("superpeer.forwards_per_op", "count", "lower")

	add("store.appends_per_write", "count", "lower")
	add("store.fsyncs_per_s", "1/s", "lower")
	add("replicate.applies_per_write", "count", "lower")
	add("replicate.quorum_fail_ratio", "ratio", "lower")

	add("deploy.steps_skipped", "count", "higher")
	add("deploy.virtual_s", "s", "lower")
	add("deploy.virtual_communication_s", "s", "lower")
	add("deploy.virtual_installation_s", "s", "lower")
	add("deploy.virtual_method_s", "s", "lower")
	add("cas.local_hit_ratio", "ratio", "higher")
	add("cas.peer_fetches_per_deploy", "count", "lower")
	add("cas.origin_fetches_per_deploy", "count", "lower")
	add("cas.evictions_per_deploy", "count", "lower")
	add("gridftp.bytes_per_deploy", "B", "lower")

	add("runtime.gc_per_kop", "count", "lower")
	add("harness.gen_late_p99_ms", "ms", "lower")
	add("harness.trace_overhead_pct", "%", "lower")
	add("harness.fail_ratio", "ratio", "lower")

	add("client.resolve_p50_us", "us", "lower")
	add("client.resolve_p99_us", "us", "lower")
	add("client.write_p50_us", "us", "lower")
	add("client.write_p99_us", "us", "lower")

	add("trace.op_self_us", "us", "lower")
	add("trace.entry_self_us", "us", "lower")
	add("trace.hop_self_us", "us", "lower")
	add("trace.hops_per_op", "count", "lower")
	return t
}

// completeLayers makes a traced run's metrics exactly the per-layer table:
// a metric the workload did not exercise reads 0, and nothing else is
// printed.
func completeLayers(m metricSet) metricSet {
	out := metricSet{}
	for _, l := range perLayer {
		v := m[l.name]
		out[l.name] = metric{Value: v.Value, Unit: l.unit}
	}
	return out
}
