package quality

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"cqm/internal/obs"
)

// benchStream pre-builds a deterministic observation stream so the
// benchmark loop measures tracking cost only, not synthesis.
func benchStream(sources, n int) []Observation {
	out := make([]Observation, 0, sources*n)
	for s := 0; s < sources; s++ {
		name := fmt.Sprintf("pen-%d", s)
		for _, o := range streamFor(name, n, int64(s)+5) {
			o.Source = name
			out = append(out, o)
		}
	}
	return out
}

// BenchmarkObserve measures the per-observation tracking overhead on
// the serving hot path: ring update, O(1) window aggregates, and the
// Page–Hinkley step.
func BenchmarkObserve(b *testing.B) {
	stream := benchStream(1, 4096)
	e := NewEngine(Config{Threshold: 0.6, Reference: testRef()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Observe(stream[i%len(stream)])
	}
}

// residentCounts are the engine sizes the first-sight and known-source
// benchmarks run at. One million is left out: at 4–10 KB of memory per
// source with its series it would need 4–10 GB.
var residentCounts = []int{1, 1_000, 100_000}

// residentEngine returns an engine with a metrics registry that already
// tracks n sources, each seen once.
func residentEngine(n int) *Engine {
	e := NewEngine(Config{Threshold: 0.6, Metrics: obs.NewRegistry()})
	for i := 0; i < n; i++ {
		e.Observe(Observation{Source: "pen-" + strconv.Itoa(i), HasQ: true, Q: 0.9})
	}
	// Collect the set-up garbage now, so no collection started by the
	// set-up runs on into the timed loop.
	runtime.GC()
	return e
}

// BenchmarkObserveFirstSight measures Observe on a never-seen source —
// tracking state plus the nine per-source series — starting from each
// resident count. Every iteration adds a source, so the engine ends at
// n+b.N sources; compare resident counts at a fixed iteration count
// (-benchtime 20000x). First sight must cost about the same at 100k
// sources as at 1k.
func BenchmarkObserveFirstSight(b *testing.B) {
	for _, n := range residentCounts {
		b.Run("sources="+strconv.Itoa(n), func(b *testing.B) {
			e := residentEngine(n)
			obsv := make([]Observation, b.N)
			for i := range obsv {
				obsv[i] = Observation{Source: "new-" + strconv.Itoa(i), HasQ: true, Q: 0.9}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range obsv {
				e.Observe(obsv[i])
			}
		})
	}
}

// BenchmarkObserveKnown measures Observe on already-tracked sources,
// round-robin over every resident, at each resident count.
func BenchmarkObserveKnown(b *testing.B) {
	for _, n := range residentCounts {
		b.Run("sources="+strconv.Itoa(n), func(b *testing.B) {
			e := residentEngine(n)
			obsv := make([]Observation, n)
			for i := range obsv {
				obsv[i] = Observation{Source: "pen-" + strconv.Itoa(i), HasQ: true, Q: 0.9}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := &obsv[i%n]
				o.At++
				e.Observe(*o)
			}
		})
	}
}

// BenchmarkReport measures full report generation — per-source stats,
// OLS velocity, KS test, alert derivation, health grading — over a
// warm 4-source engine.
func BenchmarkReport(b *testing.B) {
	e := NewEngine(Config{Threshold: 0.6, Reference: testRef()})
	for _, o := range benchStream(4, 512) {
		e.Observe(o)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := e.Report(); rep == nil {
			b.Fatal("nil report")
		}
	}
}
