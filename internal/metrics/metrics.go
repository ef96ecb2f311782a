// Package metrics implements the measurement instruments the experiments
// need: a latency recorder and a Unix-style 1-minute load average over a
// service's run queue (Fig. 13).
//
// The paper measures "the load average ... as the load on the Activity
// Type Registry during the last minute (using Unix uptime command). The
// load average is therefore a measure of the number of jobs waiting in the
// run queue." Here the run queue is the set of requests currently being
// handled by a service, sampled and exponentially decayed exactly like the
// kernel's loadavg.
//
// The instruments are thin wrappers over the telemetry package's counters,
// gauges and histograms, so experiment measurements and the live /metrics
// exposition share one implementation. The *On constructors bind a tracker
// to an instrument from a site registry; the plain constructors keep the
// historical standalone behavior with private instruments.
package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"glare/internal/telemetry"
)

// LoadTracker computes a 1-minute exponentially-decayed load average of a
// run queue. Callers bracket request handling with Enter/Exit; a sampler
// goroutine (or explicit Sample calls, for deterministic tests) folds the
// instantaneous queue length into the average.
type LoadTracker struct {
	queue   *telemetry.Gauge
	clamped atomic.Uint64

	mu      sync.Mutex
	load    float64
	period  time.Duration
	window  time.Duration
	decay   float64
	samples uint64
}

// NewLoadTracker creates a tracker with the kernel's classic parameters:
// 5-second sampling against a 1-minute window.
func NewLoadTracker() *LoadTracker {
	return NewLoadTrackerWith(5*time.Second, time.Minute)
}

// NewLoadTrackerWith creates a tracker with explicit sampling period and
// averaging window.
func NewLoadTrackerWith(period, window time.Duration) *LoadTracker {
	return NewLoadTrackerOn(nil, period, window)
}

// NewLoadTrackerOn creates a tracker whose run queue is the given gauge,
// so the instantaneous queue depth shows up on /metrics while the tracker
// derives the decayed average from it. A nil gauge falls back to a private
// one.
func NewLoadTrackerOn(g *telemetry.Gauge, period, window time.Duration) *LoadTracker {
	if g == nil {
		g = new(telemetry.Gauge)
	}
	t := &LoadTracker{queue: g, period: period, window: window}
	t.decay = math.Exp(-period.Seconds() / window.Seconds())
	return t
}

// Enter marks a request entering the run queue.
func (t *LoadTracker) Enter() { t.queue.Inc() }

// Exit marks a request leaving the run queue.
//
// Exits without a matching Enter are clamped: the queue never goes
// negative, mirroring a kernel run queue, which cannot hold a negative
// number of jobs. Each clamped call is counted and reported by
// ClampedExits, so a double-Exit bug in an instrumented service is
// observable instead of silently dragging the load average below reality.
func (t *LoadTracker) Exit() {
	if !t.queue.DecFloor() {
		t.clamped.Add(1)
	}
}

// ClampedExits returns how many Exit calls arrived with an empty run queue
// and were clamped rather than applied.
func (t *LoadTracker) ClampedExits() uint64 { return t.clamped.Load() }

// Queue returns the instantaneous run-queue length.
func (t *LoadTracker) Queue() int { return int(t.queue.Value()) }

// Sample folds the current queue length into the load average, exactly as
// the kernel does: load = load*decay + queue*(1-decay).
func (t *LoadTracker) Sample() {
	q := float64(t.queue.Value())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.load = t.load*t.decay + q*(1-t.decay)
	t.samples++
}

// Load returns the current 1-minute load average.
func (t *LoadTracker) Load() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.load
}

// Samples returns how many samples have been folded in.
func (t *LoadTracker) Samples() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.samples
}

// Start launches the periodic sampler until stop is closed.
func (t *LoadTracker) Start(stop <-chan struct{}) {
	go func() {
		tick := time.NewTicker(t.period)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t.Sample()
			}
		}
	}()
}

// LatencyRecorder accumulates response-time observations (Fig. 12). The
// zero value is ready to use; it wraps a telemetry histogram, adding the
// experiment-friendly Mean/MinMax surface.
type LatencyRecorder struct {
	h telemetry.Histogram
}

// Observe records one response time.
func (l *LatencyRecorder) Observe(d time.Duration) { l.h.Observe(d) }

// Mean returns the average response time.
func (l *LatencyRecorder) Mean() time.Duration { return l.h.Mean() }

// Count returns the number of observations.
func (l *LatencyRecorder) Count() int { return int(l.h.Count()) }

// MinMax returns the extreme observations.
func (l *LatencyRecorder) MinMax() (time.Duration, time.Duration) {
	return l.h.Min(), l.h.Max()
}

// Quantile reports an approximate latency quantile (0 < q <= 1) from the
// underlying histogram buckets.
func (l *LatencyRecorder) Quantile(q float64) time.Duration { return l.h.Quantile(q) }
