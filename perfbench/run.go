package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"glare/internal/vo"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks registry sizes and offered rates; 1 is the benchmark,
	// the smoke tests use a small fraction.
	scale float64
	// hopDelay is added to every outbound call of every site through the
	// transport hook (the attribution self-check); zero adds nothing.
	hopDelay time.Duration
	// spansDir receives the traced run's spans; empty writes none.
	spansDir string
}

// An untraced run builds its grid at least setupReps times, and keeps
// building, up to setupMaxReps times, until it has spent setupMinTime, so
// that the median of a quick set-up does not rest on three samples.
// setup_s is the median and the last grid is measured. A traced run
// reports no setup_s and builds once.
const (
	setupReps    = 3
	setupMaxReps = 20
	setupMinTime = time.Second
)

// scaled shrinks a size by the run's scale, keeping at least min.
func (rc runConfig) scaled(n, min int) int {
	v := int(math.Round(float64(n) * rc.scale))
	if v < min {
		return min
	}
	return v
}

// workload is one named traffic mix over its own grid.
type workload interface {
	// setup builds the grid, installs the hook (nil when neither tracing
	// nor a delay is asked for) on every site's outbound client before the
	// first remote call, preloads the registries and warms up.
	setup(rc runConfig, h *hopHook) error
	// grid is the running VO.
	grid() *vo.VO
	// drive issues client operations until w's deadline, recording each
	// one into w.
	drive(w *window)
	// verifyEnd runs the end-of-run oracle, returning checks made and
	// checks failed.
	verifyEnd() (checks, failed int)
	// layers adds the workload's own per-layer metrics (rungs on its
	// registries, deploy and artifact accounting) for a traced window.
	layers(m metricSet, t *tracedWindow)
	// notes describes the loop, clients or rates, and configuration.
	notes() map[string]any
	close()
}

var workloads = map[string]func() workload{
	"resolve-cached": func() workload { return &resolveWorkload{cached: true} },
	"resolve-fanout": func() workload { return &resolveWorkload{cached: false} },
	"register-mixed": func() workload { return &mixedWorkload{} },
	"deploy-churn":   func() workload { return &deployWorkload{} },
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	metrics           metricSet
	notes             map[string]any
}

func (r result) output() map[string]any {
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	}
}

// opRecord is one client operation as the load generator saw it.
type opRecord struct {
	kind string
	// lat is measured from the due time in open loops, from the send in
	// closed loops.
	lat time.Duration
	// late is how far behind its due time the generator sent it.
	late time.Duration
	ok   bool
	end  time.Time // when the op completed (set by record)
}

// window collects the operations of one measurement window.
type window struct {
	deadline time.Time
	seed     int64
	mu       sync.Mutex
	ops      []opRecord
}

func (w *window) record(r opRecord) {
	r.end = time.Now()
	w.mu.Lock()
	w.ops = append(w.ops, r)
	w.mu.Unlock()
}

// logBytes is the heap the window's own op log holds: it grows with the
// number of ops, so the live-heap peak leaves it out and a faster program
// does not read as a bigger one.
func (w *window) logBytes() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return uint64(cap(w.ops)) * uint64(unsafe.Sizeof(opRecord{}))
}

func (w *window) open() bool { return time.Now().Before(w.deadline) }

// latencies returns the latencies of ops of the given kinds (all when
// kinds is empty), failed ops counted as missing every limit.
func (w *window) latencies(kinds ...string) []time.Duration {
	var out []time.Duration
	for _, r := range w.ops {
		if len(kinds) > 0 && !slices.Contains(kinds, r.kind) {
			continue
		}
		if r.ok {
			out = append(out, r.lat)
		} else {
			out = append(out, time.Duration(math.MaxInt64))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (w *window) counts() (attempted, failed int) {
	for _, r := range w.ops {
		attempted++
		if !r.ok {
			failed++
		}
	}
	return attempted, failed
}

// quantile is the nearest-rank quantile of sorted durations in µs.
func quantileUS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	d := sorted[i]
	if d == time.Duration(math.MaxInt64) {
		return math.MaxFloat64
	}
	return float64(d) / float64(time.Microsecond)
}

// usage is the process-wide resource reading at one instant.
type usage struct {
	at     time.Time
	cpu    time.Duration
	allocs uint64
	gcs    uint64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	return usage{
		at:     time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: s[0].Value.Uint64(),
		gcs:    s[1].Value.Uint64(),
	}
}

// windowSlices is how many equal slices a measurement window is cut into;
// the end-to-end rates and medians are the median over the slices, so a
// transient disturbance moves one slice rather than the reported figure.
const windowSlices = 25

// sampler reads the process usage at every slice boundary and the live
// heap, less the window's op log, every 20 ms, keeping each slice's peak.
type sampler struct {
	stop  chan struct{}
	done  chan struct{}
	marks []usage  // usage at each slice boundary, the window start first
	peaks []uint64 // live-heap peak of each slice
}

func startSampler(w *window, start time.Time, seconds float64) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{}), marks: []usage{readUsage()}}
	slice := time.Duration(seconds * float64(time.Second) / windowSlices)
	go func() {
		defer close(s.done)
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		next := start.Add(slice)
		for {
			metrics.Read(live)
			peak = max(peak, live[0].Value.Uint64()-min(w.logBytes(), live[0].Value.Uint64()))
			if len(s.marks) < windowSlices && !time.Now().Before(next) {
				s.marks = append(s.marks, readUsage())
				s.peaks = append(s.peaks, peak)
				peak, next = 0, next.Add(slice)
			}
			select {
			case <-s.stop:
				s.marks = append(s.marks, readUsage())
				s.peaks = append(s.peaks, peak)
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// end closes the last slice and returns the boundary readings and peaks.
func (s *sampler) end() ([]usage, []uint64) {
	close(s.stop)
	<-s.done
	return s.marks, s.peaks
}

// measured is one window's client ops plus the process usage around it.
type measured struct {
	w          *window
	before     usage
	after      usage
	marks      []usage
	peaks      []uint64
	elapsedSec float64
}

func measureWindow(wl workload, seconds float64, seed int64) *measured {
	w := &window{seed: seed}
	runtime.GC()
	start := time.Now()
	w.deadline = start.Add(time.Duration(seconds * float64(time.Second)))
	smp := startSampler(w, start, seconds)
	wl.drive(w)
	m := &measured{w: w}
	m.marks, m.peaks = smp.end()
	m.before, m.after = m.marks[0], m.marks[len(m.marks)-1]
	m.elapsedSec = m.after.at.Sub(m.before.at).Seconds()
	return m
}

// endToEnd computes the user-visible metrics of a window, each as the
// median over the window's slices. The slices' p99 goes to the notes only:
// on a shared host its run-to-run spread is wider than any bound the
// benchmark could hold it to; the traced run reports tails per op kind.
func (m *measured) endToEnd(out metricSet, notes map[string]any) {
	var opsS, p50, p99, cpu, alloc, peak []float64
	for i := 1; i < len(m.marks); i++ {
		from, to := m.marks[i-1], m.marks[i]
		slice := &window{}
		for _, r := range m.w.ops {
			if r.end.After(from.at) && !r.end.After(to.at) {
				slice.ops = append(slice.ops, r)
			}
		}
		attempted, failed := slice.counts()
		if attempted == 0 {
			continue
		}
		n := float64(attempted)
		opsS = append(opsS, float64(attempted-failed)/to.at.Sub(from.at).Seconds())
		lats := slice.latencies()
		p50 = append(p50, quantileUS(lats, 0.50))
		p99 = append(p99, quantileUS(lats, 0.99))
		cpu = append(cpu, float64(to.cpu-from.cpu)/float64(time.Microsecond)/n)
		alloc = append(alloc, float64(to.allocs-from.allocs)/1024/n)
		peak = append(peak, float64(m.peaks[i-1])/(1<<20))
	}
	notes["slices"] = map[string][]float64{"ops_s": opsS, "p50_us": p50, "p99_us": p99,
		"cpu_us_per_op": cpu, "alloc_kb_per_op": alloc, "peak_heap_mb": peak}
	out.set("ops_s", "ops/s", median(opsS))
	out.set("p50_us", "us", median(p50))
	out.set("cpu_us_per_op", "us", median(cpu))
	out.set("alloc_kb_per_op", "KiB", median(alloc))
	out.set("peak_heap_mb", "MiB", median(peak))
}

// moreSetups reports whether a run that has built its grid k times,
// spending spent, builds it again.
func moreSetups(trace bool, k int, spent time.Duration) bool {
	if trace {
		return k < 1
	}
	return k < setupReps || spent < setupMinTime && k < setupMaxReps
}

// execute runs one benchmark invocation: repeated set-up, the measurement
// window(s), the end-of-run oracle and metric assembly.
func execute(rc runConfig) (result, error) {
	factory, ok := workloads[rc.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", rc.workload)
	}
	var wl workload
	var hook *hopHook
	var setups []float64
	var spent time.Duration
	for k := 0; moreSetups(rc.trace, k, spent); k++ {
		if wl != nil {
			wl.close()
		}
		hook = nil
		if rc.trace || rc.hopDelay > 0 {
			hook = newHopHook(rc.hopDelay)
		}
		wl = factory()
		t0 := time.Now()
		if err := wl.setup(rc, hook); err != nil {
			wl.close()
			return result{}, fmt.Errorf("%s set-up: %w", rc.workload, err)
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
	}
	defer wl.close()

	res := result{metrics: metricSet{}, notes: wl.notes()}
	res.notes["setup_runs_s"] = setups
	res.notes["monitors"] = "off (StartMonitors never called)"
	// windows are every window of client ops; all of them count in
	// attempted and failed.
	var windows []*window
	if !rc.trace {
		m := measureWindow(wl, rc.seconds, rc.seed)
		m.endToEnd(res.metrics, res.notes)
		res.metrics.set("setup_s", "s", median(setups))
		windows = append(windows, m.w)
	} else {
		// The first third measures what recording costs; its spans are
		// dropped. The rest records the spans and counters the per-layer
		// metrics come from.
		probe, overhead := measureOverhead(wl, hook, rc.seconds/3, rc.seed)
		hook.reset()
		hook.setRecording(true)
		tw := beginTraced(wl, hook)
		m := measureWindow(wl, rc.seconds-rc.seconds/3, rc.seed+1)
		hook.setRecording(false)
		tw.finish(m)
		tw.common(res.metrics)
		wl.layers(res.metrics, tw)
		res.metrics.set("harness.trace_overhead_pct", "%", overhead)
		windows = append(windows, probe, m.w)
		if path, err := tw.writeSpans(rc); err == nil {
			res.notes["spans_file"] = path
		} else {
			res.notes["spans_file_error"] = err.Error()
		}
	}
	checks, failedChecks := wl.verifyEnd()
	var attempted, failed int
	for _, w := range windows {
		a, f := w.counts()
		attempted += a
		failed += f
	}
	res.attempted = attempted + checks
	res.failed = failed + failedChecks
	res.notes["end_checks"] = checks
	res.notes["ops_in_windows"] = attempted
	if rc.trace {
		res.metrics.set("harness.fail_ratio", "ratio", float64(res.failed)/float64(res.attempted))
		res.metrics = completeLayers(res.metrics)
	}
	return res, nil
}

// overheadSlices is how many slices the tracing-overhead window is cut
// into, alternately unrecorded and recorded.
const overheadSlices = 32

// measureOverhead drives the workload for seconds while switching the
// hook's recording off and on every slice, and returns the window with how
// much more CPU per op the recorded slices took than the unrecorded ones,
// in percent (0 if either kind completed no op). Interleaving the two
// keeps host drift and the phase of the run out of the comparison.
func measureOverhead(wl workload, h *hopHook, seconds float64, seed int64) (*window, float64) {
	w := &window{seed: seed}
	runtime.GC()
	w.deadline = time.Now().Add(time.Duration(seconds * float64(time.Second)))
	done := make(chan struct{})
	go func() {
		defer close(done)
		wl.drive(w)
	}()
	marks := []usage{readUsage()}
	var recorded []bool // recorded[i]: whether slice i, marks[i] to marks[i+1], recorded
	tick := time.NewTicker(time.Duration(seconds * float64(time.Second) / overheadSlices))
	defer tick.Stop()
	on := false
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-tick.C:
			marks = append(marks, readUsage())
			recorded = append(recorded, on)
			on = !on
			h.setRecording(on)
		}
	}
	marks = append(marks, readUsage())
	recorded = append(recorded, on)
	h.setRecording(false)

	var cpu [2]float64
	var ops [2]int
	for i, rec := range recorded {
		k := 0
		if rec {
			k = 1
		}
		cpu[k] += float64(marks[i+1].cpu - marks[i].cpu)
		for _, r := range w.ops {
			if r.end.After(marks[i].at) && !r.end.After(marks[i+1].at) {
				ops[k]++
			}
		}
	}
	if ops[0] == 0 || ops[1] == 0 {
		return w, 0
	}
	return w, (cpu[1]/float64(ops[1])/(cpu[0]/float64(ops[0])) - 1) * 100
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// machineHeader records what the numbers ran on; fsync is the workload's
// store policy.
func machineHeader(rc runConfig, fsync any) map[string]any {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"workload":   rc.workload,
		"seed":       rc.seed,
		"seconds":    rc.seconds,
		"trace":      rc.trace,
		"fsync":      fsync,
		"network":    "loopback, in-process grid",
	}
}

// cpuModel reads the processor model name; "unknown" where the system
// does not expose it.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
