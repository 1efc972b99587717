package obs

import (
	"encoding/json"
	"io"
)

// Snapshot is a point-in-time structured view of a registry — the JSON
// exposition and the programmatic read API.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters,omitempty"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
	Events     []Event          `json:"events,omitempty"`
}

// CounterValue is one counter series.
type CounterValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// GaugeValue is one gauge series.
type GaugeValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// HistogramValue is one histogram series with cumulative bucket counts.
type HistogramValue struct {
	Name       string            `json:"name"`
	Labels     map[string]string `json:"labels,omitempty"`
	Bounds     []float64         `json:"bounds"`
	Cumulative []int64           `json:"cumulative"`
	Count      int64             `json:"count"`
	Sum        float64           `json:"sum"`
}

// Snapshot captures every registered series and retained event. Ordering
// matches the Prometheus exposition (name, then label signature). A nil
// registry yields a zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	for _, f := range r.sortedFamilies() {
		for _, s := range f.series {
			labels := labelMap(s.labels)
			switch f.kind {
			case kindCounter:
				snap.Counters = append(snap.Counters, CounterValue{
					Name: f.name, Labels: labels, Value: s.c.Value(),
				})
			case kindGauge:
				snap.Gauges = append(snap.Gauges, GaugeValue{
					Name: f.name, Labels: labels, Value: s.g.Value(),
				})
			default:
				bounds, cumulative := s.h.Buckets()
				snap.Histograms = append(snap.Histograms, HistogramValue{
					Name: f.name, Labels: labels,
					Bounds: bounds, Cumulative: cumulative,
					Count: s.h.Count(), Sum: s.h.Sum(),
				})
			}
		}
	}
	snap.Events = r.Events()
	return snap
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Counter returns the named counter's value from the snapshot, matching
// every given label pair; ok is false when no series matches.
func (s Snapshot) Counter(name string, labels ...string) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name && labelsMatch(c.Labels, labels) {
			return c.Value, true
		}
	}
	return 0, false
}

// labelMap converts canonical alternating pairs into a map.
func labelMap(canon []string) map[string]string {
	if len(canon) == 0 {
		return nil
	}
	m := make(map[string]string, len(canon)/2)
	for i := 0; i+1 < len(canon); i += 2 {
		m[canon[i]] = canon[i+1]
	}
	return m
}

// labelsMatch reports whether m contains every pair of want.
func labelsMatch(m map[string]string, want []string) bool {
	for i := 0; i+1 < len(want); i += 2 {
		if m[want[i]] != want[i+1] {
			return false
		}
	}
	return true
}
