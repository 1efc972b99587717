package obs

import (
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	// The whole instrumentation story rests on this: a nil registry hands
	// out nil metrics and every operation on them is a safe no-op, so
	// call sites never branch on "is metrics enabled".
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	h := r.Histogram("x_seconds", nil)
	tm := r.Timer("y_seconds", nil)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(2)
	h.Observe(0.5)
	tm.Observe(time.Second)
	tm.Time(func() {})
	sw := tm.Start()
	sw.Stop()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics reported non-zero values")
	}
	if bounds, cum := h.Buckets(); bounds != nil || cum != nil {
		t.Error("nil histogram reported buckets")
	}
	r.Help("x_total", "ignored")
	r.RecordEvent("ev")
	if evs := r.Events(); evs != nil {
		t.Errorf("nil registry reported events: %v", evs)
	}
	span := r.StartSpan("op")
	span.End()
	if err := r.WritePrometheus(discard{}); err != nil {
		t.Errorf("WritePrometheus on nil registry: %v", err)
	}
	if err := r.WriteJSON(discard{}); err != nil {
		t.Errorf("WriteJSON on nil registry: %v", err)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Re-resolve inside the goroutine: registration itself must
			// also be race-free and return the same series.
			c := r.Counter("hits_total", "worker", "shared")
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total", "worker", "shared").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("level")
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := g.Value(), float64(workers*perWorker)*0.5; got != want {
		t.Errorf("gauge = %v, want %v", got, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", UnitBuckets)
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i%10) / 10)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("count = %d, want %d", got, workers*perWorker)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != len(UnitBuckets) || len(cum) != len(UnitBuckets) {
		t.Fatalf("buckets: %d bounds, %d counts", len(bounds), len(cum))
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("bucket counts not cumulative: %v", cum)
		}
	}
	// Every observation is ≤ 1.0, the last bound.
	if cum[len(cum)-1] != workers*perWorker {
		t.Errorf("last bucket = %d, want %d", cum[len(cum)-1], workers*perWorker)
	}
}

func TestHistogramBucketAssignment(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("v", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 10} {
		h.Observe(v)
	}
	_, cum := h.Buckets()
	// le=1: {0.5, 1}; le=2: +{1.5}; le=5: +{3}; +Inf (Count): +{10}.
	want := []int64{2, 3, 4}
	for i := range want {
		if cum[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, cum[i], want[i], cum)
		}
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 16 {
		t.Errorf("sum = %v, want 16", h.Sum())
	}
}

func TestTimerObservesSeconds(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("op_seconds", []float64{1, 10})
	tm.Observe(500 * time.Millisecond)
	tm.Observe(2 * time.Second)
	h := r.Histogram("op_seconds", nil)
	if h.Count() != 2 {
		t.Errorf("count = %d, want 2", h.Count())
	}
	if h.Sum() != 2.5 {
		t.Errorf("sum = %v, want 2.5", h.Sum())
	}
}

func TestBucketGenerators(t *testing.T) {
	lin := LinearBuckets(0, 2, 3)
	if len(lin) != 3 || lin[0] != 0 || lin[1] != 2 || lin[2] != 4 {
		t.Errorf("LinearBuckets = %v", lin)
	}
	exp := ExponentialBuckets(1, 10, 3)
	if len(exp) != 3 || exp[0] != 1 || exp[1] != 10 || exp[2] != 100 {
		t.Errorf("ExponentialBuckets = %v", exp)
	}
}

// TestScrapeDuringRegistration scrapes while another goroutine registers
// new series, as /metrics does while never-seen sources join. Exposition
// must copy the series out under the registry lock; reading a family's
// map unlocked is a data race and can kill the process with a fatal
// concurrent map read and write.
func TestScrapeDuringRegistration(t *testing.T) {
	const n = 20000
	r := NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			r.Counter("joins_total", "source", strconv.Itoa(i)).Inc()
			r.Help("joins_total", "Joins, by source.")
		}
	}()
	for scrapes := 0; ; scrapes++ {
		select {
		case <-done:
			snap := r.Snapshot()
			if len(snap.Counters) != n {
				t.Fatalf("%d counters after registration, want %d", len(snap.Counters), n)
			}
			return
		default:
		}
		if err := r.WritePrometheus(discard{}); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSON(discard{}); err != nil {
			t.Fatal(err)
		}
	}
}
