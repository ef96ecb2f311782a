package metrics

import (
	"math"
	"sync"
	"testing"
	"time"

	"glare/internal/telemetry"
)

func TestLoadTrackerQueue(t *testing.T) {
	lt := NewLoadTracker()
	lt.Enter()
	lt.Enter()
	if lt.Queue() != 2 {
		t.Fatalf("queue = %d", lt.Queue())
	}
	lt.Exit()
	if lt.Queue() != 1 {
		t.Fatalf("queue = %d", lt.Queue())
	}
	lt.Exit()
	lt.Exit() // extra exits clamp at zero
	if lt.Queue() != 0 {
		t.Fatalf("queue = %d", lt.Queue())
	}
}

func TestLoadTrackerClampedExitsObservable(t *testing.T) {
	lt := NewLoadTracker()
	lt.Enter()
	lt.Exit()
	lt.Exit() // no matching Enter: clamped, not applied
	if lt.Queue() != 0 {
		t.Fatalf("queue = %d", lt.Queue())
	}
	if lt.ClampedExits() != 1 {
		t.Fatalf("clamped = %d", lt.ClampedExits())
	}
	// The clamp must not corrupt later accounting.
	lt.Enter()
	if lt.Queue() != 1 {
		t.Fatalf("queue after re-enter = %d", lt.Queue())
	}
	if lt.ClampedExits() != 1 {
		t.Fatalf("clamped after re-enter = %d", lt.ClampedExits())
	}
}

func TestLoadTrackerOnSharedGauge(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := reg.Gauge("glare_rdm_run_queue")
	lt := NewLoadTrackerOn(g, time.Second, time.Minute)
	lt.Enter()
	lt.Enter()
	if g.Value() != 2 {
		t.Fatalf("gauge = %d, queue depth must be visible on the registry", g.Value())
	}
	lt.Exit()
	if lt.Queue() != 1 || g.Value() != 1 {
		t.Fatalf("queue = %d gauge = %d", lt.Queue(), g.Value())
	}
}

func TestLoadConvergesToSteadyQueue(t *testing.T) {
	lt := NewLoadTrackerWith(time.Second, time.Minute)
	const depth = 8
	for i := 0; i < depth; i++ {
		lt.Enter()
	}
	// After many windows, load approaches queue depth, like Unix loadavg.
	for i := 0; i < 600; i++ {
		lt.Sample()
	}
	if got := lt.Load(); math.Abs(got-depth) > 0.1 {
		t.Fatalf("load = %v, want ~%d", got, depth)
	}
	if lt.Samples() != 600 {
		t.Fatalf("samples = %d", lt.Samples())
	}
	// Queue drains: load decays toward zero.
	for i := 0; i < depth; i++ {
		lt.Exit()
	}
	for i := 0; i < 600; i++ {
		lt.Sample()
	}
	if got := lt.Load(); got > 0.1 {
		t.Fatalf("decayed load = %v", got)
	}
}

func TestLoadMonotoneInQueueDepth(t *testing.T) {
	loadFor := func(depth int) float64 {
		lt := NewLoadTrackerWith(time.Second, time.Minute)
		for i := 0; i < depth; i++ {
			lt.Enter()
		}
		for i := 0; i < 60; i++ {
			lt.Sample()
		}
		return lt.Load()
	}
	prev := -1.0
	for _, d := range []int{1, 4, 16, 64} {
		l := loadFor(d)
		if l <= prev {
			t.Fatalf("load not monotone: depth %d -> %v (prev %v)", d, l, prev)
		}
		prev = l
	}
}

func TestLoadTrackerStart(t *testing.T) {
	lt := NewLoadTrackerWith(5*time.Millisecond, 50*time.Millisecond)
	lt.Enter()
	stop := make(chan struct{})
	lt.Start(stop)
	deadline := time.After(2 * time.Second)
	for lt.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("sampler never ran")
		case <-time.After(2 * time.Millisecond):
		}
	}
	close(stop)
}

func TestLoadTrackerConcurrency(t *testing.T) {
	lt := NewLoadTracker()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				lt.Enter()
				lt.Sample()
				lt.Exit()
			}
		}()
	}
	wg.Wait()
	if lt.Queue() != 0 {
		t.Fatalf("queue = %d after balanced enter/exit", lt.Queue())
	}
}

func TestLatencyRecorder(t *testing.T) {
	var r LatencyRecorder
	if r.Mean() != 0 || r.Count() != 0 {
		t.Fatal("zero recorder wrong")
	}
	r.Observe(10 * time.Millisecond)
	r.Observe(30 * time.Millisecond)
	if r.Mean() != 20*time.Millisecond {
		t.Fatalf("mean = %v", r.Mean())
	}
	lo, hi := r.MinMax()
	if lo != 10*time.Millisecond || hi != 30*time.Millisecond {
		t.Fatalf("minmax = %v %v", lo, hi)
	}
	if r.Count() != 2 {
		t.Fatalf("count = %d", r.Count())
	}
}
