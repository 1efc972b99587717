package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"cqm/internal/ckpt"
	"cqm/internal/core"
	"cqm/internal/obs"
	"cqm/internal/particle"
	"cqm/internal/serve"
)

func TestParsePromReadsRegistryExposition(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("cqm_serve_rejected_total", "reason", "overloaded").Add(3)
	reg.Counter("cqm_serve_rejected_total", "reason", "shed").Add(4)
	reg.Counter("cqm_quality_observations_total", "source", `p"a\b`).Add(1)
	reg.Counter("cqm_quality_observations_total", "source", "p2").Add(2)
	reg.Gauge("cqm_quality_window_mean", "source", "p2").Set(0.25)
	h := reg.Histogram("cqm_serve_batch_size", []float64{1, 2, 4})
	for _, v := range []float64{1, 1, 2, 3, 8} {
		h.Observe(v)
	}
	var body bytes.Buffer
	if err := reg.WritePrometheus(&body); err != nil {
		t.Fatal(err)
	}
	page, err := parseProm(body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if page.bytes != body.Len() {
		t.Errorf("bytes = %d, want %d", page.bytes, body.Len())
	}
	// 2 + 2 counters, 1 gauge, 4 buckets + sum + count.
	if got := page.series(); got != 11 {
		t.Errorf("series = %d, want 11", got)
	}
	if got := page.sum("cqm_serve_rejected_total"); got != 7 {
		t.Errorf("rejected sum = %v, want 7", got)
	}
	if got := page.distinct("cqm_quality_observations_total", "source"); got != 2 {
		t.Errorf("distinct sources = %d, want 2", got)
	}
	escaped := false
	for _, smp := range page.samples {
		escaped = escaped || (smp.name == "cqm_quality_observations_total" && smp.label("source") == `p"a\b` && smp.value == 1)
	}
	if !escaped {
		t.Errorf("escaped label value not read back")
	}
	hist, err := page.histogram("cqm_serve_batch_size")
	if err != nil {
		t.Fatal(err)
	}
	if hist.count != 5 || hist.sum != 15 || hist.mean() != 3 {
		t.Errorf("histogram count %v sum %v mean %v, want 5 15 3", hist.count, hist.sum, hist.mean())
	}
	if !math.IsInf(hist.bounds[len(hist.bounds)-1], 1) {
		t.Errorf("last bound %v, want +Inf", hist.bounds[len(hist.bounds)-1])
	}
}

func TestParsePromRejectsMalformedLines(t *testing.T) {
	for _, line := range []string{
		"name{a=\"b\" 1",
		"name{a=\"b} 1",
		"{a=\"b\"} 1",
		"name",
		"name x",
	} {
		if _, err := parseProm([]byte(line + "\n")); err == nil {
			t.Errorf("%q parsed without error", line)
		}
	}
}

func TestHistogramQuantileInterpolatesLikePrometheus(t *testing.T) {
	h := histogram{
		bounds:     []float64{1, 2, 4, math.Inf(1)},
		cumulative: []float64{10, 30, 40, 40},
		count:      40,
		sum:        70,
	}
	cases := []struct{ q, want float64 }{
		{0.25, 1},   // rank 10: top of the first bucket
		{0.5, 1.5},  // rank 20: half-way through (1, 2]
		{0.875, 3},  // rank 35: half-way through (2, 4]
		{0.125, .5}, // rank 5: the first bucket starts at 0
	}
	for _, c := range cases {
		if got := h.quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	inf := histogram{bounds: []float64{1, math.Inf(1)}, cumulative: []float64{1, 10}, count: 10}
	if got := inf.quantile(0.9); got != 1 {
		t.Errorf("rank in +Inf bucket = %v, want the highest finite bound 1", got)
	}
	if got := (histogram{}).quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram quantile = %v, want NaN", got)
	}
}

func TestHistogramMinusIsThePhaseDelta(t *testing.T) {
	before := histogram{bounds: []float64{1, 2, math.Inf(1)}, cumulative: []float64{5, 5, 6}, sum: 9, count: 6}
	after := histogram{bounds: []float64{1, 2, math.Inf(1)}, cumulative: []float64{5, 9, 10}, sum: 17, count: 10}
	d := after.minus(before)
	if d.count != 4 || d.sum != 8 || d.mean() != 2 {
		t.Errorf("delta count %v sum %v mean %v, want 4 8 2", d.count, d.sum, d.mean())
	}
	if got := d.quantile(0.5); got != 1.5 {
		t.Errorf("delta median = %v, want 1.5", got)
	}
}

func TestParseMemStats(t *testing.T) {
	body := []byte(`heap profile: 1: 2 [3: 4] @ heap/1048576
1: 2 [3: 4] @ 0x1
#	0x1	main.main+0x1	/x.go:1

# runtime.MemStats
# Alloc = 123
# Mallocs = 4567
# Frees = 4000
# PauseNs = [1 2 3 0]
# NumGC = 12
# DebugGC = false
`)
	m, err := parseMemStats(body)
	if err != nil {
		t.Fatal(err)
	}
	if m["Mallocs"] != 4567 || m["NumGC"] != 12 || m["Alloc"] != 123 {
		t.Errorf("parsed %v", m)
	}
	if _, ok := m["PauseNs"]; ok {
		t.Errorf("array field parsed as a number")
	}
	if _, err := parseMemStats([]byte("# Alloc = 1\n")); err == nil {
		t.Errorf("page without Mallocs and NumGC accepted")
	}
}

func TestParseGoroutineTotal(t *testing.T) {
	n, err := parseGoroutineTotal([]byte("goroutine profile: total 137\n5 @ 0x1\n"))
	if err != nil || n != 137 {
		t.Errorf("got %d, %v; want 137", n, err)
	}
	if _, err := parseGoroutineTotal([]byte("heap profile: 1\n")); err == nil {
		t.Errorf("wrong page accepted")
	}
}

func TestParseSchedstat(t *testing.T) {
	got, err := parseSchedstat([]byte("2500000000 1234 77\n"))
	if err != nil || got != 2.5 {
		t.Errorf("schedstat = %v, %v; want 2.5 s", got, err)
	}
	for _, bad := range []string{"", "1 2", "x 2 3"} {
		if _, err := parseSchedstat([]byte(bad)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestCPUSecondsCountsThisProcess(t *testing.T) {
	before, err := cpuSeconds(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
	}
	after, err := cpuSeconds(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if d := after - before; d < 0.03 || d > 5 {
		t.Errorf("50 ms of spinning read as %v s of CPU", d)
	}
}

func TestParseProcStat(t *testing.T) {
	stat := []byte("cpu  100 5 50 800 10 1 4 30 7 0\ncpu0 50 2 25 400 5 0 2 15 3 0\nintr 1\n")
	got, err := parseProcStat(stat)
	// guest (7) is already inside user, so the total stops at steal.
	if err != nil || got != (hostTicks{steal: 30, total: 1000}) {
		t.Errorf("proc stat = %+v, %v; want steal 30 of 1000", got, err)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8\n", "cpu 1 2 3\n", "cpu 1 2 3 4 5 6 7 x\n"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if _, err := readHostTicks(); err != nil {
		t.Errorf("this machine's /proc/stat: %v", err)
	}
}

func TestStealShareOfAnInterval(t *testing.T) {
	a, b := hostTicks{steal: 10, total: 1000}, hostTicks{steal: 30, total: 1200}
	if got := stealShare(a, b); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("steal share = %v, want 0.1", got)
	}
	if got := stealShare(a, a); got != 0 {
		t.Errorf("empty interval has steal share %v", got)
	}
}

func TestLowStealDropsOnlyStolenIntervals(t *testing.T) {
	// A quiet host keeps every interval, whatever the ranking.
	quiet := lowSteal([]float64{0, 0.005, 0.01, 0.015})
	for i, k := range quiet {
		if !k {
			t.Errorf("quiet interval %d dropped", i)
		}
	}
	// Above the floor, intervals with more steal than the median go.
	got := lowSteal([]float64{0.3, 0.05, 0.01, 0.2, 0.04})
	want := []bool{false, true, true, false, true}
	if !slices.Equal(got, want) {
		t.Errorf("kept %v, want %v", got, want)
	}
	groups := []timedGroup{{times: []float64{9, 9}, steal: 0.3}, {times: []float64{1, 3}, steal: 0.01}, {times: []float64{2}, steal: 0.1}}
	if m := lowStealMedian(groups); m != 2 {
		t.Errorf("median of the low-steal groups = %v, want 2", m)
	}
}

func TestParseProcStatusKB(t *testing.T) {
	status := []byte("Name:\tcqmserve\nVmPeak:\t  900 kB\nVmHWM:\t   24576 kB\nVmRSS:\t   20000 kB\n")
	kb, err := parseProcStatusKB(status, "VmHWM")
	if err != nil || kb != 24576 {
		t.Errorf("VmHWM = %d, %v; want 24576", kb, err)
	}
	if _, err := parseProcStatusKB(status, "VmSwap"); err == nil {
		t.Errorf("missing field accepted")
	}
}

func TestPercentilePicksNearestRankAndCountsTheTail(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if v, beyond := percentile(vals, 0.99); v != 990 || beyond != 10 {
		t.Errorf("p99 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if v, beyond := percentile(vals, 0.5); v != 500 || beyond != 500 {
		t.Errorf("p50 = %v with %d beyond, want 500 with 500", v, beyond)
	}
	if v, beyond := percentile([]float64{7}, 0.99); v != 7 || beyond != 0 {
		t.Errorf("single sample p99 = %v with %d beyond", v, beyond)
	}
	if v, _ := percentile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("empty percentile = %v, want NaN", v)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestParseDrained(t *testing.T) {
	line := "drained: admitted 100, scored 97 (accept 60 / discard 20 / ε 17), rejected 4 overload, 1 draining, 0 no-model, 1 internal, 0 deadline, 2 shed; 0 shard restarts"
	d, err := parseDrained(line)
	if err != nil {
		t.Fatal(err)
	}
	if d.admitted != 100 || d.scored != 97 || d.overload != 4 || d.draining != 1 || d.admittedRejects() != 3 {
		t.Errorf("parsed %+v", d)
	}
	if _, err := parseDrained("drained: admitted x"); err == nil {
		t.Errorf("malformed line accepted")
	}
}

func TestCRC16MatchesTheParticleCodec(t *testing.T) {
	for n := 0; n <= 40; n++ {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*37 + n)
		}
		if got, want := crc16(data), particle.CRC16(data); got != want {
			t.Fatalf("crc16 over %d bytes = 0x%04X, want 0x%04X", n, got, want)
		}
	}
}

func testInputs(t *testing.T) *inputs {
	t.Helper()
	in, err := prepare(t.TempDir(), 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestWriteFrameIsAValidRequest(t *testing.T) {
	in := testInputs(t)
	f := frameRef{pen: 7, item: int32(in.itemOf(7, 5))}
	var buf [64]byte
	n := in.writeFrame(buf[:], f, 513, 123456)
	req, err := serve.DecodeRequest(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	it := in.work.Item(7, 5)
	if req.Node != serve.PenNode(7) || req.Seq != 513 || req.SentMillis != 123456 || req.ClassID != it.ClassID {
		t.Errorf("decoded %+v", req)
	}
	for i := range it.Cues {
		if req.Cues[i] != it.Cues[i] {
			t.Errorf("cue %d = %v, want %v", i, req.Cues[i], it.Cues[i])
		}
	}
}

func TestCheckResponseAgainstReference(t *testing.T) {
	in := testInputs(t)
	f := frameRef{pen: 2, item: int32(in.itemOf(2, 0))}
	ref := in.refs[f.item]
	good, err := serve.EncodeResponse(serve.Response{Node: in.nodes[2], Status: ref.status, Q: ref.q})
	if err != nil {
		t.Fatal(err)
	}
	if rejected, err := in.checkResponse(good, f); err != nil || rejected {
		t.Errorf("reference answer: rejected %v, err %v", rejected, err)
	}
	wrong := serve.StatusAccepted
	if ref.status == serve.StatusAccepted {
		wrong = serve.StatusDiscarded
	}
	bad, _ := serve.EncodeResponse(serve.Response{Node: in.nodes[2], Status: wrong, Q: 0.5})
	if _, err := in.checkResponse(bad, f); err == nil {
		t.Errorf("wrong decision accepted")
	}
	other, _ := serve.EncodeResponse(serve.Response{Node: in.nodes[3], Status: ref.status, Q: ref.q})
	if _, err := in.checkResponse(other, f); err == nil {
		t.Errorf("answer for another node accepted")
	}
	rej, _ := serve.EncodeResponse(serve.Response{Node: in.nodes[2], Rejected: true, Reject: serve.RejectShed})
	if rejected, err := in.checkResponse(rej, f); err != nil || !rejected {
		t.Errorf("reject frame: rejected %v, err %v", rejected, err)
	}
}

func TestBatchBodyStampsEveryRequest(t *testing.T) {
	in := testInputs(t)
	frames := []frameRef{{pen: 0, item: 1}, {pen: 9, item: 4}}
	b := in.encodeBatch(frames)
	for _, ms := range []uint32{0, 7, 4294967295} {
		var body struct {
			Requests []serve.JSONRequest `json:"requests"`
		}
		if err := json.Unmarshal(b.stamp(nil, ms), &body); err != nil {
			t.Fatalf("stamp %d: %v", ms, err)
		}
		for i, r := range body.Requests {
			it := in.items[frames[i].item]
			if r.Source != in.names[frames[i].pen] || int(r.Seq) != i || r.SentMillis != ms || r.Class != int(it.ClassID) {
				t.Errorf("stamp %d request %d = %+v", ms, i, r)
			}
			for k := range it.Cues {
				if r.Cues[k] != it.Cues[k] {
					t.Errorf("cue %d does not round-trip: %v vs %v", k, r.Cues[k], it.Cues[k])
				}
			}
		}
	}
}

func TestWindowsSplitAtCPUSamples(t *testing.T) {
	const s = int64(1e9)
	tl := &tally{}
	for i := int64(0); i < 25; i++ {
		tl.samples = append(tl.samples, sample{done: i * s / 10, latency: i * 1e6, decided: 1})
	}
	cpu := []cpuSample{
		{at: 0},
		{at: s, server: 0.5, host: hostTicks{steal: 50, total: 200}},
		{at: 2 * s, server: 1.5, host: hostTicks{steal: 50, total: 400}},
		{at: 2*s + s/2, server: 1.6, host: hostTicks{steal: 50, total: 500}},
	}
	ws := windows(tl, cpu)
	if len(ws) != 2 {
		t.Fatalf("%d windows, want 2 (the short closing window dropped)", len(ws))
	}
	if ws[0].decided != 10 || ws[1].decided != 10 || ws[0].serverCPU != 0.5 || ws[1].serverCPU != 1 || ws[0].steal != 0.25 || ws[1].steal != 0 {
		t.Errorf("windows %+v", ws)
	}
	sort.Float64s(ws[1].latencies)
	if ws[1].latencies[0] != 10 {
		t.Errorf("second window starts with latency %v ms, want 10", ws[1].latencies[0])
	}
	one := windows(tl, cpu[:2])
	if len(one) != 1 || one[0].decided != 10 {
		t.Errorf("single window %+v", one)
	}
}

func TestBatchAnswerOfTheServerMatchesTheExpectedBytes(t *testing.T) {
	in := testInputs(t)
	var m core.Measure
	if _, err := ckpt.ReadArtifact(in.artifact, ckpt.KindMeasure, &m); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Shards: 2, Threshold: in.threshold, Handle: ckpt.NewHandle(&m)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	var frames []frameRef
	for p := 0; p < 10; p++ {
		for r := 0; r < 3; r++ {
			frames = append(frames, frameRef{pen: int32(p), item: int32(in.itemOf(p, r))})
		}
	}
	b := in.encodeBatch(frames)
	l := &httpLoad{in: in}
	for _, ms := range []uint32{0, 1, 98765} {
		rec := httptest.NewRecorder()
		srv.HTTPHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/score/batch", bytes.NewReader(b.stamp(nil, ms))))
		if rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
		if !b.matches(rec.Body.Bytes(), ms) {
			t.Errorf("stamp %d: server answer differs from the expected bytes:\n%s", ms, rec.Body.Bytes())
		}
		if b.matches(rec.Body.Bytes(), ms+1) {
			t.Errorf("stamp %d: answer matched a different stamp", ms)
		}
		decided, rejected, err := l.check(&b, rec.Body.Bytes(), ms)
		if err != nil || decided != uint64(len(frames)) || rejected != 0 {
			t.Errorf("check: %d decided, %d rejected, %v", decided, rejected, err)
		}
		flipped := bytes.Replace(rec.Body.Bytes(), []byte(`"accepted"`), []byte(`"discarded"`), 1)
		if bytes.Equal(flipped, rec.Body.Bytes()) {
			t.Fatal("no accepted answer to flip")
		}
		if _, _, err := l.check(&b, flipped, ms); err == nil {
			t.Errorf("stamp %d: a flipped decision passed the check", ms)
		}
	}
}
