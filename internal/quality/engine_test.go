package quality

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// streamFor synthesizes a deterministic observation stream: healthy q
// around 0.9 with isolated misclassifications, epsilons, and degraded
// inputs.
func streamFor(source string, n int, seed int64) []Observation {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Observation, 0, n)
	for i := 0; i < n; i++ {
		o := Observation{Source: source, At: float64(i), HasQ: true, Q: 0.85 + 0.1*rng.Float64()}
		switch {
		case i%17 == 16:
			o.HasQ, o.Q = false, 0
		case i%11 == 10:
			o.Q = 0.1 * rng.Float64()
		}
		o.Degraded = i%13 == 12
		out = append(out, o)
	}
	return out
}

// TestWindowStatsMatchNaiveRecompute is the eviction property test: the
// O(1) ring aggregates must equal a from-scratch recomputation over the
// window at every step.
func TestWindowStatsMatchNaiveRecompute(t *testing.T) {
	const window = 16
	e := NewEngine(Config{Window: window, Threshold: 0.6})
	var all []Observation
	for i, o := range streamFor("pen", 200, 3) {
		e.Observe(o)
		all = append(all, o)

		lo := 0
		if len(all) > window {
			lo = len(all) - window
		}
		var sum, sum2 float64
		var withQ, accept, eps, degraded int
		for _, w := range all[lo:] {
			if w.HasQ {
				sum += w.Q
				sum2 += w.Q * w.Q
				withQ++
				if w.Q > 0.6 {
					accept++
				}
			} else {
				eps++
			}
			if w.Degraded {
				degraded++
			}
		}
		s := e.sources["pen"]
		if s.wWithQ != withQ || s.wEpsilon != eps || s.wAccept != accept || s.wDegraded != degraded {
			t.Fatalf("step %d: counts (q=%d ε=%d acc=%d deg=%d), want (q=%d ε=%d acc=%d deg=%d)",
				i, s.wWithQ, s.wEpsilon, s.wAccept, s.wDegraded, withQ, eps, accept, degraded)
		}
		if math.Abs(s.wSum-sum) > 1e-9 || math.Abs(s.wSum2-sum2) > 1e-9 {
			t.Fatalf("step %d: sums (%v, %v), want (%v, %v)", i, s.wSum, s.wSum2, sum, sum2)
		}
	}
}

func TestNilEngineIsNoOp(t *testing.T) {
	var e *Engine
	e.Observe(Observation{Source: "x", HasQ: true, Q: 0.5})
	if got := e.Sources(); got != nil {
		t.Errorf("Sources on nil engine = %v", got)
	}
	rep := e.Report()
	if rep == nil || rep.Health != HealthOptimal {
		t.Errorf("nil engine report = %+v", rep)
	}
}

func TestReportSourcesSortedAndFinite(t *testing.T) {
	e := NewEngine(Config{Threshold: 0.6, Reference: testRef()})
	for _, src := range []string{"zeta", "alpha", "mid"} {
		for _, o := range streamFor(src, 80, 11) {
			o.Source = src
			e.Observe(o)
		}
	}
	rep := e.Report()
	if len(rep.Sources) != 3 {
		t.Fatalf("%d sources, want 3", len(rep.Sources))
	}
	for i := 1; i < len(rep.Sources); i++ {
		if rep.Sources[i-1].Name >= rep.Sources[i].Name {
			t.Errorf("sources not sorted: %q before %q", rep.Sources[i-1].Name, rep.Sources[i].Name)
		}
	}
	for i := 1; i < len(rep.Alerts); i++ {
		a, b := rep.Alerts[i-1], rep.Alerts[i]
		if a.Source > b.Source || (a.Source == b.Source && a.Kind > b.Kind) {
			t.Errorf("alerts not sorted: %v before %v", a, b)
		}
	}
	if rep.Observations != 240 {
		t.Errorf("observations = %d, want 240", rep.Observations)
	}
	if rep.At != 79 {
		t.Errorf("report at = %v, want latest virtual time 79", rep.At)
	}
	assertFinite(t, reflect.ValueOf(*rep), "report")

	// Source order is settled at report time, so the order in which
	// sources are first seen — or a report taken while only some exist —
	// must not show in Sources() or in the report's bytes.
	names := []string{"zeta", "alpha", "mid", "pen-10", "pen-2", "beta", "pen-1", "omega"}
	seeds := make(map[string]int64, len(names))
	for i, n := range names {
		seeds[n] = int64(i) + 11
	}
	feed := func(e *Engine, order []string) {
		for _, src := range order {
			for _, o := range streamFor(src, 80, seeds[src]) {
				o.Source = src
				e.Observe(o)
			}
		}
	}
	reportJSON := func(e *Engine) []byte {
		t.Helper()
		got := e.Sources()
		if !sort.StringsAreSorted(got) || len(got) != len(names) {
			t.Fatalf("Sources() = %q, want all %d names sorted", got, len(names))
		}
		b, err := json.Marshal(e.Report())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	inOrder := NewEngine(Config{Threshold: 0.6, Reference: testRef()})
	feed(inOrder, names)
	want := reportJSON(inOrder)

	shuffled := append([]string(nil), names...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	reversed := make([]string, len(names))
	for i, n := range names {
		reversed[len(names)-1-i] = n
	}
	for _, tc := range []struct {
		name  string
		order []string
	}{{"shuffled", shuffled}, {"reversed", reversed}} {
		e := NewEngine(Config{Threshold: 0.6, Reference: testRef()})
		feed(e, tc.order)
		if got := reportJSON(e); !bytes.Equal(got, want) {
			t.Errorf("%s first sight changed the report:\n got %s\nwant %s", tc.name, got, want)
		}
	}

	split := NewEngine(Config{Threshold: 0.6, Reference: testRef()})
	feed(split, reversed[:3])
	if got := split.Sources(); !sort.StringsAreSorted(got) || len(got) != 3 {
		t.Errorf("Sources() after three first sights = %q, want 3 sorted names", got)
	}
	if rep := split.Report(); len(rep.Sources) != 3 {
		t.Errorf("interim report has %d sources, want 3", len(rep.Sources))
	}
	feed(split, reversed[3:])
	if got := reportJSON(split); !bytes.Equal(got, want) {
		t.Errorf("report, new sources, report changed the bytes:\n got %s\nwant %s", got, want)
	}
}

// assertFinite walks a value recursively and fails on any NaN or ±Inf.
func assertFinite(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Float64, reflect.Float32:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Errorf("%s = %v", path, f)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			assertFinite(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			assertFinite(t, v.Index(i), path)
		}
	case reflect.Ptr:
		if !v.IsNil() {
			assertFinite(t, v.Elem(), path)
		}
	}
}

func TestEngineDerivesAcceptanceFromThreshold(t *testing.T) {
	e := NewEngine(Config{Threshold: 0.5})
	e.Observe(Observation{Source: "s", At: 1, HasQ: true, Q: 0.9})
	e.Observe(Observation{Source: "s", At: 2, HasQ: true, Q: 0.2})
	e.Observe(Observation{Source: "s", At: 3})
	rep := e.Report()
	src := rep.Sources[0]
	if src.Accepted != 1 || src.Discarded != 1 || src.Epsilons != 1 {
		t.Errorf("accepted/discarded/epsilons = %d/%d/%d, want 1/1/1",
			src.Accepted, src.Discarded, src.Epsilons)
	}
}

func TestEngineAlertsOnCollapse(t *testing.T) {
	e := NewEngine(Config{Threshold: 0.6, Reference: testRef()})
	for i := 0; i < 40; i++ {
		e.Observe(Observation{Source: "pen", At: float64(i), HasQ: true, Q: 0.9})
	}
	for i := 40; i < 104; i++ {
		e.Observe(Observation{Source: "pen", At: float64(i), HasQ: true, Q: 0.05})
	}
	rep := e.Report()
	src := rep.Sources[0]
	if src.PageHinkley.Fired == 0 {
		t.Error("Page–Hinkley did not fire on a sustained collapse")
	}
	if len(src.PageHinkley.Epochs) == 0 {
		t.Error("no drift epochs recorded")
	} else if ep := src.PageHinkley.Epochs[0]; ep.At < 40 {
		t.Errorf("first epoch at t=%v, before the collapse began", ep.At)
	}
	if !src.KS.Drifting {
		t.Error("KS did not flag the collapsed window")
	}
	kinds := map[string]Severity{}
	for _, a := range rep.Alerts {
		kinds[a.Kind] = a.Severity
	}
	if kinds["drift-ph"] != SeverityError {
		t.Errorf("drift-ph alert = %q, want error", kinds["drift-ph"])
	}
	if kinds["drift-ks"] != SeverityError {
		t.Errorf("drift-ks alert = %q, want error", kinds["drift-ks"])
	}
	if kinds["low-accept"] != SeverityWarning {
		t.Errorf("low-accept alert = %q, want warning", kinds["low-accept"])
	}
	if rep.Health == HealthOptimal || rep.HealthScore >= 0.75 {
		t.Errorf("health %s (%v) despite error alerts", rep.Health, rep.HealthScore)
	}
}

func TestEngineReplaysBitIdentically(t *testing.T) {
	run := func() *Report {
		e := NewEngine(Config{Threshold: 0.6, Reference: testRef()})
		for _, src := range []string{"a", "b"} {
			for _, o := range streamFor(src, 150, 9) {
				o.Source = src
				e.Observe(o)
			}
		}
		return e.Report()
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("two replays differ:\n%+v\n%+v", a, b)
	}
}

func TestTrendsClassification(t *testing.T) {
	cases := []struct {
		vel, std  float64
		direction Direction
		vol       Volatility
	}{
		{0, 0.01, DirectionStable, VolatilityLow},
		{-0.01, 0.1, DirectionDeclining, VolatilityMedium},
		{0.01, 0.2, DirectionImproving, VolatilityHigh},
	}
	for _, c := range cases {
		tr := trendsOf(c.vel, c.std)
		if tr.Direction != c.direction || tr.Volatility != c.vol {
			t.Errorf("trendsOf(%v, %v) = %+v, want %s/%s", c.vel, c.std, tr, c.direction, c.vol)
		}
	}
}
