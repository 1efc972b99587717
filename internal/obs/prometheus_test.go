package obs

import (
	"strings"
	"testing"
)

func TestWritePrometheusGolden(t *testing.T) {
	// The exposition is fully deterministic (families by name, series by
	// label signature), so an exact golden comparison is safe.
	r := NewRegistry()
	r.Help("requests_total", "Total requests.")
	r.Counter("requests_total", "method", "get").Add(3)
	r.Counter("requests_total", "method", "put").Inc()
	r.Gauge("temp_celsius").Set(21.5)
	h := r.Histogram("latency_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1"} 1
latency_seconds_bucket{le="1"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 5.55
latency_seconds_count 3
# HELP requests_total Total requests.
# TYPE requests_total counter
requests_total{method="get"} 3
requests_total{method="put"} 1
# TYPE temp_celsius gauge
temp_celsius 21.5
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWritePrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.Help("odd", "line one\nwith \\ slash")
	r.Gauge("odd", "path", `C:\tmp
"quoted"`).Set(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP odd line one\nwith \\ slash
# TYPE odd gauge
odd{path="C:\\tmp\n\"quoted\""} 1
`
	if got := b.String(); got != want {
		t.Errorf("escaping mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabelOrderDoesNotSplitSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "b", "2", "a", "1").Inc()
	r.Counter("x_total", "a", "1", "b", "2").Inc()
	if got := r.Counter("x_total", "a", "1", "b", "2").Value(); got != 2 {
		t.Errorf("label reordering split the series: value = %d, want 2", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got, want := b.String(), "x_total{a=\"1\",b=\"2\"} 2\n"; !strings.Contains(got, want) {
		t.Errorf("exposition %q missing %q", got, want)
	}

	// Every ordering of a three-pair list resolves to one series.
	r = NewRegistry()
	pairs := [][2]string{{"a", "1"}, {"b", "2"}, {"c", "3"}}
	for _, perm := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		var labels []string
		for _, p := range perm {
			labels = append(labels, pairs[p][0], pairs[p][1])
		}
		r.Counter("y_total", labels...).Inc()
	}
	b.Reset()
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got, want := b.String(), "# TYPE y_total counter\ny_total{a=\"1\",b=\"2\",c=\"3\"} 6\n"; got != want {
		t.Errorf("six orderings of three pairs: exposition %q, want %q", got, want)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m_total")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"", "1abc", "has space", "dash-ed", "utf8µ"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", name)
				}
			}()
			r.Counter(name)
		}()
	}
}

func TestOddLabelListPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("odd label list did not panic")
		}
	}()
	r.Counter("x_total", "key_without_value")
}
