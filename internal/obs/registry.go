package obs

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// metricKind discriminates the exposition type of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	kind   metricKind
	bounds []float64          // histogram families only
	series map[string]*series // keyed by canonical label signature
}

// series is one (name, labels) time series. Counter and gauge values live
// inline, so they need no allocation of their own.
type series struct {
	labels []string // alternating key, value — sorted by key
	c      Counter
	g      Gauge
	h      *Histogram
}

// Registry owns a set of named metric families. All registration methods
// are safe for concurrent use; handing out the same (name, labels) twice
// returns the same metric, so call sites may re-resolve freely. A nil
// *Registry hands out nil metrics, which are themselves no-ops — code can
// be instrumented unconditionally and configured with nil to disable.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	helps    map[string]string
	events   eventRing
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		helps:    make(map[string]string),
	}
}

// Counter returns the counter named name with the given label pairs
// (alternating key, value), registering it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	s := r.lookup(name, kindCounter, nil, labels)
	return &s.c
}

// Gauge returns the gauge named name with the given label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.lookup(name, kindGauge, nil, labels)
	return &s.g
}

// Histogram returns the histogram named name over the given upper bounds
// (nil uses DefBuckets). Bounds are fixed by the first registration of the
// family; later calls may pass nil to reuse them.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	s := r.lookup(name, kindHistogram, bounds, labels)
	return s.h
}

// Timer returns a timer over the histogram named name (nil bounds uses
// DefBuckets).
func (r *Registry) Timer(name string, bounds []float64, labels ...string) *Timer {
	if r == nil {
		return nil
	}
	return &Timer{h: r.Histogram(name, bounds, labels...)}
}

// Help attaches help text to a metric name (before or after its first
// registration); it renders as the Prometheus # HELP line.
func (r *Registry) Help(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.helps[name] = help
}

// lookup finds or registers the series for (name, labels).
func (r *Registry) lookup(name string, kind metricKind, bounds []float64, labels []string) *series {
	if err := validateName(name); err != nil {
		panic(err)
	}
	canon, err := canonicalLabels(labels)
	if err != nil {
		panic(fmt.Sprintf("obs: metric %s: %v", name, err))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, series: make(map[string]*series)}
		if kind == kindHistogram {
			if bounds == nil {
				bounds = DefBuckets
			}
			f.bounds = append([]float64(nil), bounds...)
		}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s already registered as %s, requested %s", name, f.kind, kind))
	}
	sig := signature(canon)
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: canon}
		if kind == kindHistogram {
			s.h = newHistogram(f.bounds)
		}
		f.series[sig] = s
	}
	return s
}

// exposedFamily is one family as an exposition walks it: a copy taken
// under the registry lock, so a scrape never reads a series map that a
// concurrent registration is writing.
type exposedFamily struct {
	name   string
	kind   metricKind
	help   string
	series []exposedSeries // sorted by label signature
}

// exposedSeries pairs a series with its label signature, the sort key.
type exposedSeries struct {
	sig string
	*series
}

// sortedFamilies returns the families in name order and each family's
// series in label-signature order — the deterministic walk both
// expositions share. Only the copy runs under the lock; the sorting,
// O(series log series) on a large fleet, runs after it is released so
// first sights do not queue behind a scrape.
func (r *Registry) sortedFamilies() []exposedFamily {
	r.mu.Lock()
	out := make([]exposedFamily, 0, len(r.families))
	for _, f := range r.families {
		ef := exposedFamily{name: f.name, kind: f.kind, help: r.helps[f.name],
			series: make([]exposedSeries, 0, len(f.series))}
		for sig, s := range f.series {
			ef.series = append(ef.series, exposedSeries{sig, s})
		}
		out = append(out, ef)
	}
	r.mu.Unlock()
	slices.SortFunc(out, func(a, b exposedFamily) int { return strings.Compare(a.name, b.name) })
	for _, ef := range out {
		slices.SortFunc(ef.series, func(a, b exposedSeries) int { return strings.Compare(a.sig, b.sig) })
	}
	return out
}

// validateName enforces the Prometheus metric-name charset.
func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("obs: empty metric name")
	}
	for i, ch := range name {
		alpha := ch == '_' || ch == ':' ||
			(ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z')
		if alpha || (i > 0 && ch >= '0' && ch <= '9') {
			continue
		}
		return fmt.Errorf("obs: invalid metric name %q", name)
	}
	return nil
}

// canonicalLabels validates alternating key/value pairs and returns them
// sorted by key so label order never splits a series. Label lists hold one
// or two pairs, so an insertion sort over the output slice beats sort.Slice
// (reflection plus a scratch slice); equal keys keep their given order.
func canonicalLabels(labels []string) ([]string, error) {
	if len(labels) == 0 {
		return nil, nil
	}
	if len(labels)%2 != 0 {
		// Format a copy so the caller's variadic slice never escapes.
		return nil, fmt.Errorf("odd label list %q", append([]string(nil), labels...))
	}
	out := make([]string, 0, len(labels))
	for i := 0; i < len(labels); i += 2 {
		if err := validateName(labels[i]); err != nil {
			return nil, fmt.Errorf("label key %q invalid", labels[i])
		}
		out = append(out, labels[i], labels[i+1])
		for j := len(out) - 2; j > 0 && out[j-2] > out[j]; j -= 2 {
			out[j-2], out[j-1], out[j], out[j+1] = out[j], out[j+1], out[j-2], out[j-1]
		}
	}
	return out, nil
}

// signature flattens canonical labels into a map key.
func signature(canon []string) string {
	if len(canon) == 0 {
		return ""
	}
	return strings.Join(canon, "\x00")
}
