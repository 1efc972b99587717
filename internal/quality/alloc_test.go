package quality

import (
	"strconv"
	"testing"

	"cqm/internal/obs"
)

// TestObserveSteadyStateZeroAlloc guards the //cqm:hotpath contract on
// Engine.Observe: once a source's tracking state and metric handles exist
// (first sight) and between KS strides, folding an observation must not
// allocate. First-sight and stride work carry //cqm:coldpath or waivers
// in the lint walk; this test pins the steady state at zero.
func TestObserveSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine(Config{Window: 32, Threshold: 0.6})
	for _, o := range streamFor("pen", 100, 1) {
		e.Observe(o)
	}
	o := Observation{Source: "pen", At: 1000, HasQ: true, Q: 0.9}
	if allocs := testing.AllocsPerRun(500, func() {
		o.At++
		e.Observe(o)
	}); allocs != 0 {
		t.Errorf("Observe steady state allocates %v per run, want 0", allocs)
	}
}

// TestObserveFirstSightAllocs bounds what a never-seen source costs: its
// tracking state (three allocations) and, with a registry, its nine series
// at three allocations each (label slice, map key, series). A reflective
// label sort or a separately allocated counter or gauge breaks the bound.
func TestObserveFirstSightAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		reg  *obs.Registry
		max  float64
	}{
		{"registry", obs.NewRegistry(), 32},
		{"no-registry", nil, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(Config{Threshold: 0.6, Metrics: tc.reg})
			names := make([]string, 1001)
			for i := range names {
				names[i] = "pen-" + strconv.Itoa(i)
			}
			i := 0
			allocs := testing.AllocsPerRun(1000, func() {
				e.Observe(Observation{Source: names[i], HasQ: true, Q: 0.9})
				i++
			})
			if allocs > tc.max {
				t.Errorf("first sight allocates %v per source, want at most %v", allocs, tc.max)
			}
		})
	}
}
