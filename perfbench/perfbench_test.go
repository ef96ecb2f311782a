package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// smokeConfig is a tiny-size run: small registries, low rates and a short
// window.
func smokeConfig(workload string, trace bool) runConfig {
	return runConfig{workload: workload, seed: 7, seconds: 0.6, trace: trace, scale: 0.1}
}

// failFirstWindow fails one extra op in the first window it drives; in a
// traced run that is the overhead window, outside the recorded one.
type failFirstWindow struct {
	workload
	drives int
}

func (f *failFirstWindow) drive(w *window) {
	f.workload.drive(w)
	f.drives++
	if f.drives == 1 {
		w.record(opRecord{kind: "resolve", ok: false})
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); strings.Join(got, ",") != strings.Join(names, ",") {
		t.Errorf("workloads: program has %v, BENCHMARK.json %v", got, names)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: BENCHMARK.json lists %d metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		s := spec.PerLayer[i]
		if s.Name != l.name || s.Unit != l.unit || s.Better != l.better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, program %+v", i, s, l)
		}
	}
}

// TestSmokeEveryWorkload runs every workload at tiny size, untraced and
// traced: the oracle must pass and the printed metrics must be exactly
// BENCHMARK.json's, with its units.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, err := execute(smokeConfig(name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", name, trace, res.attempted, res.failed)
			}
			want := map[string]string{}
			if trace {
				for _, l := range spec.PerLayer {
					want[l.Name] = l.Unit
				}
			} else {
				for _, e := range spec.EndToEnd {
					want[e.Name] = e.Unit
				}
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, want %d", name, trace, len(res.metrics), len(want))
			}
			for n, unit := range want {
				m, ok := res.metrics[n]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, n, m, unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, n, m.Value)
				}
			}
		}
	}

	// A wrong answer anywhere in a traced run, the unrecorded overhead
	// window included, must fail the run.
	workloads["fail-first-window"] = func() workload {
		return &failFirstWindow{workload: &resolveWorkload{cached: true}}
	}
	defer delete(workloads, "fail-first-window")
	res, err := execute(smokeConfig("fail-first-window", true))
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 || res.metrics["harness.fail_ratio"].Value <= 0 {
		t.Errorf("failure in the overhead window: failed %d, harness.fail_ratio %v; want 1 and > 0",
			res.failed, res.metrics["harness.fail_ratio"].Value)
	}
}

// TestTracedRunHitsIntendedTier checks each resolve workload exercises the
// tier it was built for.
func TestTracedRunHitsIntendedTier(t *testing.T) {
	cached, err := execute(smokeConfig("resolve-cached", true))
	if err != nil {
		t.Fatal(err)
	}
	if hr := cached.metrics["cache.hit_ratio"].Value; hr < 0.99 {
		t.Errorf("resolve-cached: cache.hit_ratio %.4f, want >= 0.99", hr)
	}
	if s := cached.metrics["rdm.resolve_share.cache"].Value; s < 0.99 {
		t.Errorf("resolve-cached: rdm.resolve_share.cache %.4f, want >= 0.99", s)
	}
	fanout, err := execute(smokeConfig("resolve-fanout", true))
	if err != nil {
		t.Fatal(err)
	}
	m := fanout.metrics
	if hr := m["cache.hit_ratio"].Value; hr != 0 {
		t.Errorf("resolve-fanout: cache.hit_ratio %.4f, want 0", hr)
	}
	peer, sp := m["rdm.resolve_share.peer"].Value, m["rdm.resolve_share.superpeer"].Value
	if peer < 0.2 || sp < 0.2 || math.Abs(peer+sp-1) > 1e-9 {
		t.Errorf("resolve-fanout: peer share %.3f, super-peer share %.3f; want both tiers, nothing else", peer, sp)
	}
	if m["superpeer.forwards_per_op"].Value <= 0 {
		t.Error("resolve-fanout: no super-peer forwards recorded")
	}
}

// TestAttributionSelfCheck slows every site's outbound calls from outside
// the program, through the transport hook: the transport rungs and the
// end-to-end latency must rise while the ATR rung, which the delay does
// not touch, stays put.
func TestAttributionSelfCheck(t *testing.T) {
	const delay = 3 * time.Millisecond
	run := func(trace bool, d time.Duration) result {
		rc := smokeConfig("resolve-fanout", trace)
		rc.seconds, rc.hopDelay = 1.2, d
		res, err := execute(rc)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("hopDelay %v trace=%v: %d failed ops", d, trace, res.failed)
		}
		return res
	}
	base, slow := run(false, 0), run(false, delay)
	if b, s := base.metrics["p50_us"].Value, slow.metrics["p50_us"].Value; s < b+float64(delay/time.Microsecond) {
		t.Errorf("p50_us %.0f → %.0f with a %v hop delay; want a rise of at least the delay", b, s, delay)
	}
	tbase, tslow := run(true, 0), run(true, delay)
	for _, op := range []string{"ConcreteOf", "LocalDeployments", "ForwardConcreteOf"} {
		name := "transport.call_us." + op
		if b, s := tbase.metrics[name].Value, tslow.metrics[name].Value; s < b+0.8*float64(delay/time.Microsecond) {
			t.Errorf("%s %.0f → %.0f with a %v hop delay; want it to carry the delay", name, b, s, delay)
		}
	}
	b, s := tbase.metrics["atr.concreteof_us"].Value, tslow.metrics["atr.concreteof_us"].Value
	if b <= 0 || s > 2*b || s < b/2 {
		t.Errorf("atr.concreteof_us %.1f → %.1f: the ATR rung moved with a transport-only delay", b, s)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestAttributeSelfTime(t *testing.T) {
	spans := []span{
		{Trace: "t", ID: 1, Name: "op:resolve", Start: 0, End: 100},
		{Trace: "t", ID: 2, Name: "hop:GetDeployments", Src: clientSrc, Dst: "a", Start: 5, End: 95},
		{Trace: "t", ID: 3, Name: "hop:LocalDeployments", Src: "a", Dst: "b", Start: 10, End: 40},
		{Trace: "t", ID: 4, Name: "hop:LocalDeployments", Src: "a", Dst: "c", Start: 30, End: 60},
		{Trace: "t", ID: 5, Name: "hop:ConcreteOf", Src: "b", Dst: "c", Start: 15, End: 20},
	}
	attribute(spans)
	wantParent := []int64{0, 1, 2, 2, 3}
	wantSelf := []int64{10, 40, 25, 30, 5}
	for i, s := range spans {
		if s.Parent != wantParent[i] || s.Self != wantSelf[i] {
			t.Errorf("span %d: parent %d self %d, want parent %d self %d", s.ID, s.Parent, s.Self, wantParent[i], wantSelf[i])
		}
	}
}

func TestSummarize(t *testing.T) {
	dir := t.TempDir()
	for i, v := range []float64{1, 2, 3, 4} {
		line, _ := json.Marshal(map[string]any{"metrics": metricSet{"p50_us": {Value: v, Unit: "us"}}})
		body := `{"machine":{"workload":"resolve-cached","trace":false}}` + "\n" + string(line) + "\n"
		if err := os.WriteFile(filepath.Join(dir, string(rune('a'+i))+".out"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.out"))
	var out bytes.Buffer
	if err := summarize(&out, files); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "resolve-cached (4 runs)") || !strings.Contains(out.String(), "2.5000") {
		t.Errorf("summary:\n%s", out.String())
	}
}
