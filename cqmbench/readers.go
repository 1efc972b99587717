package main

// Readers for what the benchmark learns about cqmserve from outside the
// process: the Prometheus text page at /metrics, the pprof debug pages,
// and /proc/<pid>/{stat,status}. Each parser works on the raw bytes so it
// can be tested without a running server.

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSample is one sample line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels []promLabel
	value  float64
}

// promLabel is one name="value" pair of a sample, unescaped.
type promLabel struct{ name, value string }

// label returns the value of the named label, or "" when absent.
func (s promSample) label(name string) string {
	for _, l := range s.labels {
		if l.name == name {
			return l.value
		}
	}
	return ""
}

// promPage is a parsed /metrics body.
type promPage struct {
	samples []promSample
	bytes   int
}

// parseProm parses the text exposition format (version 0.0.4): comment
// lines are skipped, every other non-empty line is one sample.
func parseProm(body []byte) (*promPage, error) {
	page := &promPage{bytes: len(body)}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", lineNo, err)
		}
		page.samples = append(page.samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return page, nil
}

// parsePromLine parses `name{l="v",...} value` or `name value`.
func parsePromLine(line string) (promSample, error) {
	var s promSample
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("no metric name in %q", line)
	}
	s.name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			if rest == "" {
				return s, fmt.Errorf("unterminated label block in %q", line)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			if rest[0] == ',' {
				rest = rest[1:]
				continue
			}
			eq := strings.Index(rest, `="`)
			if eq <= 0 {
				return s, fmt.Errorf("bad label in %q", line)
			}
			name := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == '\\' && j+1 < len(rest) {
					j++
					switch rest[j] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(rest[j])
					}
					continue
				}
				if c == '"' {
					rest = rest[j+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return s, fmt.Errorf("unterminated label value in %q", line)
			}
			s.labels = append(s.labels, promLabel{name, val.String()})
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.value = v
	return s, nil
}

// series is the number of sample lines on the page.
func (p *promPage) series() int { return len(p.samples) }

// sum adds every sample of the named metric, across all label values.
func (p *promPage) sum(name string) float64 {
	total := 0.0
	for _, s := range p.samples {
		if s.name == name {
			total += s.value
		}
	}
	return total
}

// distinct counts the distinct values of label across the samples of the
// named metric.
func (p *promPage) distinct(name, label string) int {
	seen := map[string]bool{}
	for _, s := range p.samples {
		if s.name == name {
			seen[s.label(label)] = true
		}
	}
	return len(seen)
}

// histogram is one Prometheus histogram: cumulative bucket counts by upper
// bound, plus the sum and count of observations.
type histogram struct {
	bounds     []float64 // ascending; the last is +Inf
	cumulative []float64
	sum, count float64
}

// histogram collects the histogram family name (bucket, sum and count
// series) from the page. Only unlabelled histograms are read.
func (p *promPage) histogram(name string) (histogram, error) {
	var h histogram
	type bucket struct{ le, n float64 }
	var buckets []bucket
	for _, s := range p.samples {
		switch s.name {
		case name + "_bucket":
			le, err := strconv.ParseFloat(s.label("le"), 64)
			if err != nil {
				return h, fmt.Errorf("%s: bad le %q", name, s.label("le"))
			}
			buckets = append(buckets, bucket{le, s.value})
		case name + "_sum":
			h.sum = s.value
		case name + "_count":
			h.count = s.value
		}
	}
	if len(buckets) == 0 {
		return h, fmt.Errorf("histogram %s not on the page", name)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	for _, b := range buckets {
		h.bounds = append(h.bounds, b.le)
		h.cumulative = append(h.cumulative, b.n)
	}
	return h, nil
}

// minus returns the observations h gained since before, which must be an
// earlier read of the same histogram.
func (h histogram) minus(before histogram) histogram {
	d := histogram{bounds: h.bounds, sum: h.sum - before.sum, count: h.count - before.count}
	d.cumulative = make([]float64, len(h.cumulative))
	for i := range h.cumulative {
		d.cumulative[i] = h.cumulative[i]
		if i < len(before.cumulative) {
			d.cumulative[i] -= before.cumulative[i]
		}
	}
	return d
}

// mean is sum ÷ count (NaN for an empty histogram).
func (h histogram) mean() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	return h.sum / h.count
}

// quantile estimates the q-quantile the way Prometheus'
// histogram_quantile does: find the bucket holding rank q·count and
// interpolate linearly inside it, taking 0 as the lower edge of the first
// bucket. A rank in the +Inf bucket returns the highest finite bound.
func (h histogram) quantile(q float64) float64 {
	if h.count == 0 || len(h.bounds) == 0 {
		return math.NaN()
	}
	rank := q * h.count
	for i, c := range h.cumulative {
		if c < rank {
			continue
		}
		if math.IsInf(h.bounds[i], 1) {
			if i == 0 {
				return math.NaN()
			}
			return h.bounds[i-1]
		}
		lo, below := 0.0, 0.0
		if i > 0 {
			lo, below = h.bounds[i-1], h.cumulative[i-1]
		}
		if c <= below { // an empty bucket: counts never decrease
			return h.bounds[i]
		}
		return lo + (h.bounds[i]-lo)*(rank-below)/(c-below)
	}
	return h.bounds[len(h.bounds)-1]
}

// parseMemStats reads the integer runtime.MemStats fields that the pprof
// heap page prints at its end with ?debug=1, as "# Name = value" lines.
func parseMemStats(body []byte) (map[string]uint64, error) {
	out := map[string]uint64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "# ") {
			continue
		}
		name, val, ok := strings.Cut(line[2:], " = ")
		if !ok || strings.ContainsAny(name, " \t") {
			continue
		}
		if n, err := strconv.ParseUint(val, 10, 64); err == nil {
			out[name] = n
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, want := range []string{"Mallocs", "NumGC"} {
		if _, ok := out[want]; !ok {
			return nil, fmt.Errorf("heap profile has no %s line", want)
		}
	}
	return out, nil
}

// parseGoroutineTotal reads the total from the first line of the pprof
// goroutine page with ?debug=1: "goroutine profile: total N".
func parseGoroutineTotal(body []byte) (int, error) {
	line, _, _ := bytes.Cut(body, []byte("\n"))
	const prefix = "goroutine profile: total "
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return 0, fmt.Errorf("goroutine profile: unexpected first line %q", line)
	}
	return strconv.Atoi(strings.TrimSpace(string(line[len(prefix):])))
}

// parseSchedstat returns the on-CPU time in seconds from a
// /proc/<pid>/task/<tid>/schedstat line: "run_ns wait_ns timeslices". It
// is the thread's utime+stime at nanosecond resolution, where
// /proc/<pid>/stat counts 10 ms ticks.
func parseSchedstat(line []byte) (float64, error) {
	fields := strings.Fields(string(line))
	if len(fields) != 3 {
		return 0, fmt.Errorf("schedstat: %d fields in %q", len(fields), line)
	}
	ns, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat run time: %w", err)
	}
	return float64(ns) / 1e9, nil
}

// hostTicks are the totals of the aggregate "cpu" line of /proc/stat,
// summed over the machine's CPUs, in clock ticks.
type hostTicks struct {
	steal, total uint64
}

// parseProcStat reads the aggregate cpu line of /proc/stat. Steal, its
// eighth value, is time in which the hypervisor ran another guest while a
// vCPU of this machine was ready to run.
func parseProcStat(stat []byte) (hostTicks, error) {
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}, fmt.Errorf("proc stat: first line %q", line)
	}
	var t hostTicks
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return hostTicks{}, fmt.Errorf("proc stat field %d: %w", i+1, err)
		}
		// guest and guest_nice (9th, 10th) are already inside user and nice.
		if i < 8 {
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t, nil
}

// stealShare is the share of the ticks from a to b that were stolen.
func stealShare(a, b hostTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stealFloor is the steal share below which an interval always counts as
// undisturbed; one tick in a 1 s interval on 2 CPUs is 0.5 %.
const stealFloor = 0.02

// lowSteal marks the entries whose steal share is at most the median of
// all of them or below stealFloor. That keeps at least half of them, and
// all of them on a host that steals little.
func lowSteal(shares []float64) []bool {
	m := median(append([]float64(nil), shares...))
	keep := make([]bool, len(shares))
	for i, v := range shares {
		keep[i] = v <= m || v < stealFloor
	}
	return keep
}

// parseProcStatusKB returns a "Name:   N kB" field of /proc/<pid>/status
// in KiB.
func parseProcStatusKB(status []byte, field string) (uint64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != field {
			continue
		}
		f := strings.Fields(val)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: unexpected %q", field, val)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status has no %s", field)
}

// percentile picks the nearest-rank p-quantile (0 < p ≤ 1) of sorted and
// reports how many samples lie above it, so a caller can tell whether the
// tail it quotes rests on enough samples.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n - 1 - idx
}

// median of values (which it sorts in place).
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sort.Float64s(values)
	n := len(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

// drainedLine is cqmserve's final accounting line, printed after a drain.
type drainedLine struct {
	admitted, scored, accepted, discarded, epsilon  uint64
	overload, draining, noModel, internal, deadline uint64
	shed, restarts                                  uint64
}

// admittedRejects are the rejections of already-admitted frames.
func (d drainedLine) admittedRejects() uint64 {
	return d.noModel + d.internal + d.deadline + d.shed
}

// parseDrained parses "drained: admitted A, scored S (accept a / discard d
// / ε e), rejected o overload, r draining, n no-model, i internal, t
// deadline, s shed; k shard restarts".
func parseDrained(line string) (drainedLine, error) {
	var d drainedLine
	_, err := fmt.Sscanf(line,
		"drained: admitted %d, scored %d (accept %d / discard %d / ε %d), rejected %d overload, %d draining, %d no-model, %d internal, %d deadline, %d shed; %d shard restarts",
		&d.admitted, &d.scored, &d.accepted, &d.discarded, &d.epsilon,
		&d.overload, &d.draining, &d.noModel, &d.internal, &d.deadline, &d.shed, &d.restarts)
	if err != nil {
		return d, fmt.Errorf("parsing %q: %w", line, err)
	}
	return d, nil
}
