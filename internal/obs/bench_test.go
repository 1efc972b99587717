package obs

import (
	"strconv"
	"testing"
)

// registerSource resolves the nine per-source series a quality engine
// registers on a source's first sight (the cqm_quality_* families).
func registerSource(r *Registry, name string) {
	r.Counter("cqm_quality_observations_total", "source", name)
	r.Counter("cqm_quality_epsilons_total", "source", name)
	r.Counter("cqm_quality_drift_total", "source", name, "detector", "ph")
	r.Counter("cqm_quality_drift_total", "source", name, "detector", "ks")
	r.Gauge("cqm_quality_window_mean", "source", name)
	r.Gauge("cqm_quality_window_stddev", "source", name)
	r.Gauge("cqm_quality_accept_rate", "source", name)
	r.Gauge("cqm_quality_epsilon_rate", "source", name)
	r.Gauge("cqm_quality_degradation_velocity", "source", name)
}

// BenchmarkRegisterSource measures registering one new source's nine
// series into a registry that already holds 20k sources' worth; each
// iteration adds one more source.
func BenchmarkRegisterSource(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 20_000; i++ {
		registerSource(r, "pen-"+strconv.Itoa(i))
	}
	names := make([]string, b.N)
	for i := range names {
		names[i] = "new-" + strconv.Itoa(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, name := range names {
		registerSource(r, name)
	}
}
