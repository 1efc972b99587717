// Command cqmbench is the repository's benchmark: it launches the real
// cqmserve binary, drives it over loopback from this one process, reads
// the server only from outside (client timings, /metrics, /debug/pprof,
// /proc/<pid>), checks every answer against an in-process reference, and
// optionally replays the same frames through the layers in process with a
// span around each call.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash cqmbench/run.sh --workload steady|fleet-join|http-batch|all \
//	    --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// workload names the three traffic mixes.
var workloads = []string{"steady", "fleet-join", "http-batch"}

// Shape of the workloads. See README.md for why each value was chosen.
const (
	warmPens        = 1000 // steady and http-batch fleet, all warmed before timing
	conns           = 2    // = nproc: connections (binary) or clients (HTTP)
	steadyWindow    = 512  // in-flight frames per binary connection
	warmFor         = time.Second
	steadyWindowLen = time.Second            // steady: rates and latencies are medians over windows this long
	httpWindowLen   = 3 * time.Second        // http-batch: long enough for ten requests beyond p99
	joinPens        = 20000                  // fleet-join: never-seen pens per round
	joinWindow      = 4                      // fleet-join: in-flight frames per connection
	httpBatch       = 250                    // frames per POST /score/batch body
	httpRounds      = 8                      // pen rounds encoded as bodies (cycled)
	setupPerGroup   = 5                      // cqmserve launches timed for setup_s per group
	timedSegments   = 5                      // steady, http-batch: the timed phase's parts
	scrapes         = 120                    // GET /metrics for scrape_mean_ms, in scrapeGroups groups
	scrapeGroups    = timedSegments + 1      // after the warm-up, between segments, after the load
	warmScrapes     = 3                      // untimed scrapes before the timed ones
	settle          = 500 * time.Millisecond // pause between the load and the scrapes
	joinScrapes     = 5                      // the same per fleet-join round (pages are ~10 MB)
	tracedFrames    = 20000                  // timed-phase frames the traced run replays
	minJoinRounds   = 3
	bytesPerKiB     = 1024.0
	framesPerGCRow  = 10000.0
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	server   string
	workDir  string
}

func main() {
	var opts options
	flag.StringVar(&opts.workload, "workload", "", "steady, fleet-join, http-batch, or all")
	flag.Int64Var(&opts.seed, "seed", 1, "input seed: request pool, pen order")
	flag.IntVar(&opts.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&opts.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics (counts from outside plus the traced in-process run)")
	flag.StringVar(&opts.server, "server", ".bench_build/cqmserve", "cqmserve binary to launch")
	flag.StringVar(&opts.workDir, "workdir", ".bench_build", "directory for the model artifact, temp state and span files")
	flag.Parse()
	if err := run(opts); err != nil {
		fmt.Fprintf(os.Stderr, "cqmbench: %v\n", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(opts options) error {
	names := []string{opts.workload}
	if opts.workload == "all" {
		names = workloads
	}
	for _, n := range names {
		if !slices.Contains(workloads, n) {
			return fmt.Errorf("unknown workload %q (want one of %s or all)", n, strings.Join(workloads, ", "))
		}
	}
	if opts.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if opts.trace != 0 && opts.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if _, err := os.Stat(opts.server); err != nil {
		return fmt.Errorf("cqmserve binary: %w", err)
	}
	combined := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		res, err := runWorkload(opts, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		line, err := json.Marshal(res) //lint:ignore determinism-taint the result line is a measurement: wall-clock timings are its payload
		if err != nil {
			return err
		}
		if len(names) == 1 {
			fmt.Println(string(line))
			return nil
		}
		fmt.Printf("%s %s\n", name, line)
		combined.Correct = combined.Correct && res.Correct
		combined.Attempted += res.Attempted
		combined.Failed += res.Failed
		for k, v := range res.Metrics {
			combined.Metrics[name+"."+k] = v
		}
	}
	line, err := json.Marshal(combined) //lint:ignore determinism-taint the result line is a measurement: wall-clock timings are its payload
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// bench is the state of one workload run.
type bench struct {
	opts  options
	in    *inputs
	start time.Time // SentMillis origin
	// correctness: the first failed check, which fails the run.
	failure error
	// setup_s samples, in seconds, from every launch group so far.
	setupGroups []timedGroup
}

// timedGroup is a burst of short timings and the host's steal share
// while it ran: one timing per launch, or for scrapes the burst's mean.
type timedGroup struct {
	times []float64
	steal float64
}

// lowStealMedian is the median of the timings of the groups whose steal
// share is at most the median group's.
func lowStealMedian(groups []timedGroup) float64 {
	steals := make([]float64, len(groups))
	for i, g := range groups {
		steals[i] = g.steal
	}
	var times []float64
	for i, keep := range lowSteal(steals) {
		if keep {
			times = append(times, groups[i].times...)
		}
	}
	return median(times)
}

func (b *bench) fail(err error) {
	if err != nil && b.failure == nil {
		b.failure = err
	}
}

// phaseReads are the outside reads taken before a timed phase.
type phaseReads struct {
	page *promPage
	mem  map[string]uint64
}

// roundStats is what one timed server lifetime yields.
type roundStats struct {
	load                   *tally
	throughput             float64
	p50, p99               float64
	p99Beyond              int // fewest samples beyond p99 in any window
	windows                int
	kept                   int     // windows with low steal, which the medians are over
	steal                  float64 // median steal share of all windows
	windowFPS              []float64
	windowKept             []bool
	serverCPUus, clientCPU float64 // µs per frame
	rssMiB                 float64
	scrapes                []timedGroup // ms
	metricsKiB             float64
	batchMean              float64
	sojournP50             float64
	rejectShare            float64
	sources, series        int
	allocsPerFrame         float64
	gcPer10k               float64
	goroutinesPerConn      float64
}

func runWorkload(opts options, name string) (*result, error) {
	dir, err := os.MkdirTemp(opts.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	pens := warmPens
	if name == "fleet-join" {
		pens = joinPens
	}
	in, err := prepare(dir, opts.seed, pens)
	if err != nil {
		return nil, err
	}
	b := &bench{opts: opts, in: in, start: time.Now()}

	var rounds []*roundStats
	var plan *replayPlan
	switch name {
	case "steady":
		r, p, err := b.runSteady()
		if err != nil {
			return nil, err
		}
		rounds, plan = []*roundStats{r}, p
	case "http-batch":
		r, p, err := b.runHTTP()
		if err != nil {
			return nil, err
		}
		rounds, plan = []*roundStats{r}, p
	case "fleet-join":
		rounds, plan, err = b.runJoin()
		if err != nil {
			return nil, err
		}
	}

	res := &result{Metrics: map[string]metric{}}
	var decided uint64
	for _, r := range rounds {
		res.Attempted += r.load.sent
		decided += r.load.decided
	}
	res.Failed = res.Attempted - decided
	// On fleet-join, where a round is one window, figures are medians over
	// the rounds with low steal (see lowSteal).
	steals := make([]float64, len(rounds))
	for i, r := range rounds {
		steals[i] = r.steal
	}
	keep := lowSteal(steals)
	pick := func(f func(r *roundStats) float64) float64 {
		var vals []float64
		for i, r := range rounds {
			if keep[i] {
				vals = append(vals, f(r))
			}
		}
		return median(vals)
	}
	var allScrapes []timedGroup
	for _, r := range rounds {
		allScrapes = append(allScrapes, r.scrapes...)
	}
	e2e := []struct {
		name, unit string
		value      float64
	}{
		{"throughput_fps", "frames/s", pick(func(r *roundStats) float64 { return r.throughput })},
		{"latency_p50_ms", "ms", pick(func(r *roundStats) float64 { return r.p50 })},
		{"latency_p99_ms", "ms", pick(func(r *roundStats) float64 { return r.p99 })},
		{"decided_share", "share", float64(decided) / float64(res.Attempted)},
		{"setup_s", "s", lowStealMedian(b.setupGroups)},
		{"server_cpu_us_per_frame", "us", pick(func(r *roundStats) float64 { return r.serverCPUus })},
		{"rss_mb", "MiB", pick(func(r *roundStats) float64 { return r.rssMiB })},
		{"scrape_mean_ms", "ms", lowStealMedian(allScrapes)},
		{"metrics_kb", "KiB", pick(func(r *roundStats) float64 { return r.metricsKiB })},
	}
	samples, beyond, nwin := 0, -1, 0
	for _, r := range rounds {
		samples += len(r.load.samples)
		nwin += r.windows
		if beyond < 0 || r.p99Beyond < beyond {
			beyond = r.p99Beyond
		}
	}
	unit := "frames"
	if !rounds[0].load.samplesAreFrames {
		unit = "batch requests"
	}
	fmt.Printf("workload %s, seed %d, %d s, %d timed round(s)\n", name, opts.seed, opts.seconds, len(rounds))
	fmt.Printf("  pool: %s\n", in.poolMix())
	fmt.Printf("  latency samples: %d %s in %d windows (at least %d beyond p99 in each)\n", samples, unit, nwin, beyond)
	fmt.Printf("  generator CPU %.3f us/frame beside server CPU %.3f us/frame\n",
		pick(func(r *roundStats) float64 { return r.clientCPU }),
		pick(func(r *roundStats) float64 { return r.serverCPUus }))
	for i, r := range rounds {
		fmt.Printf("  round %d frames/s by window:", i+1)
		for j, v := range r.windowFPS {
			mark := ""
			if !r.windowKept[j] {
				mark = "x" // dropped for its steal
			}
			fmt.Printf(" %.0f%s", v, mark)
		}
		fmt.Printf(" | steal %.3f, %d of %d windows kept | p50 %.3f p99 %.3f cpu %.1f client %.1f scrape %.1f rss %.1f\n",
			r.steal, r.kept, r.windows, r.p50, r.p99, r.serverCPUus, r.clientCPU, lowStealMedian(r.scrapes), r.rssMiB)
	}
	if len(rounds) > 1 {
		kept := 0
		for _, k := range keep {
			if k {
				kept++
			}
		}
		fmt.Printf("  %d of %d rounds kept for their low steal\n", kept, len(rounds))
	}
	fmt.Printf("  fixed work: %d sources, %d series, %.0f page bytes\n",
		rounds[0].sources, rounds[0].series, rounds[0].metricsKiB*bytesPerKiB)
	if opts.trace == 0 {
		for _, m := range e2e {
			res.Metrics[m.name] = metric{m.value, m.unit}
		}
	}

	if opts.trace == 1 {
		res.Metrics["host.steal_share"] = metric{median(slices.Clone(steals)), "share"}
		plan.batchMean = pick(func(r *roundStats) float64 { return r.batchMean })
		spans := filepath.Join(opts.workDir, "spans", name+".csv")
		//lint:ignore determinism-taint the traced layers write only journals and model copies into a temp dir deleted after the run, and span timings by definition
		tr, err := runTraced(in, plan, dir, spans)
		if err != nil {
			b.fail(err)
		} else {
			layerMetrics(res, plan, tr, pick)
			fmt.Printf("  spans written to %s\n", spans)
		}
	}

	fmt.Println("  metric                              value  unit")
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.fail(fmt.Errorf("metric %s is %v", k, m.Value))
		}
		fmt.Printf("  %-32s %12.6g  %s\n", k, m.Value, m.Unit)
	}
	res.Correct = b.failure == nil
	if b.failure != nil {
		fmt.Printf("  CHECK FAILED: %v\n", b.failure)
		fmt.Fprintf(os.Stderr, "cqmbench: %s: check failed: %v\n", name, b.failure)
		for k, m := range res.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				res.Metrics[k] = metric{0, m.Unit}
			}
		}
	}
	return res, nil
}

// layerMetrics fills the per-layer metrics: counts read from outside
// after the timed run(s), timings from the traced run.
func layerMetrics(res *result, plan *replayPlan, tr *traceResult, pick func(func(*roundStats) float64) float64) {
	l := tr.layers
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	set("particle.decode_ns", "ns", l[spDecode].mean())
	set("serve.read_request_ns", "ns", l[spReadRequest].mean())
	set("serve.encode_response_ns", "ns", l[spEncodeResponse].mean())
	set("serve.submit_us", "us", l[spSubmit].mean()/1e3)
	set("serve.http_ns_per_frame", "ns", float64(l[spHTTP].self)/float64(tr.httpFrames))
	set("core.score_ns_per_frame", "ns", float64(l[spScoreBatch].self)/float64(tr.frames))
	set("quality.observe_ns", "ns", l[spObserveKnown].mean())
	set("quality.first_sight_ns", "ns", l[spObserveFirst].mean())
	set("obs.expose_ms", "ms", tr.exposeMs)
	set("ckpt.model_load_ms", "ms", tr.modelLoadMs)
	set("adapt.decide_ns", "ns", l[spDecide].mean())
	set("trace.overhead_share", "share", tr.overhead)

	set("serve.batch_mean", "frames", pick(func(r *roundStats) float64 { return r.batchMean }))
	set("serve.sojourn_p50_ms", "ms", pick(func(r *roundStats) float64 { return r.sojournP50 }))
	set("serve.reject_share", "share", pick(func(r *roundStats) float64 { return r.rejectShare }))
	set("quality.sources", "count", pick(func(r *roundStats) float64 { return float64(r.sources) }))
	set("obs.series", "count", pick(func(r *roundStats) float64 { return float64(r.series) }))
	set("cqmserve.allocs_per_frame", "count", pick(func(r *roundStats) float64 { return r.allocsPerFrame }))
	set("cqmserve.gc_per_10k_frames", "count", pick(func(r *roundStats) float64 { return r.gcPer10k }))
	set("cqmserve.goroutines_per_conn", "count", pick(func(r *roundStats) float64 { return r.goroutinesPerConn }))
	set("bench.client_cpu_us_per_frame", "us", pick(func(r *roundStats) float64 { return r.clientCPU }))

	fmt.Printf("  traced run: %d frames, %d HTTP frames, ScoreBatch at %d; replay %.1f ms traced, %.1f ms untraced (overhead %.1f%%)\n",
		tr.frames, tr.httpFrames, int(plan.batchMean+0.5), float64(tr.tracedWall)/1e6, float64(tr.untracedWall)/1e6, 100*tr.overhead)
	fmt.Println("  span                                  count   self total ms   mean self ns")
	for k := 0; k < spanKinds; k++ {
		fmt.Printf("  %-36s %7d %15.3f %14.1f\n", spanNames[k], l[k].count, float64(l[k].self)/1e6, l[k].mean())
	}
}

// measureSetup launches cqmserve setupPerGroup times and records each
// launch's time from process start to the first answered frame. Groups
// land at several moments of a run, so that setup_s, their median, does
// not hang on one moment of the host.
func (b *bench) measureSetup() error {
	probe := frameRef{pen: 0, item: int32(b.in.firstItem[0])}
	from, err := readHostTicks()
	if err != nil {
		return err
	}
	var g timedGroup
	for i := 0; i < setupPerGroup; i++ {
		srv, err := launch(b.opts.server, serverArgs(b.in))
		if err != nil {
			return err
		}
		elapsed, err := b.firstAnswer(srv, probe)
		if err != nil {
			srv.kill()
			return err
		}
		d, err := srv.stop()
		b.fail(err)
		if err == nil && (d.admitted != 1 || d.scored != 1) {
			b.fail(fmt.Errorf("set-up probe: server admitted %d, scored %d of 1 frame", d.admitted, d.scored))
		}
		g.times = append(g.times, elapsed.Seconds())
	}
	to, err := readHostTicks()
	if err != nil {
		return err
	}
	g.steal = stealShare(from, to)
	b.setupGroups = append(b.setupGroups, g)
	return nil
}

// firstAnswer sends one frame on a new connection and returns the time
// from the server's launch to the checked answer.
func (b *bench) firstAnswer(srv *server, f frameRef) (time.Duration, error) {
	c, err := srv.dialBinary()
	if err != nil {
		return 0, err
	}
	defer c.Close()
	var buf [64]byte
	n := b.in.writeFrame(buf[:], f, 0, uint32(time.Since(b.start)/time.Millisecond))
	if _, err := c.Write(buf[:n]); err != nil {
		return 0, err
	}
	var resp [22]byte
	_ = c.SetReadDeadline(time.Now().Add(readyTimeout))
	if _, err := io.ReadFull(c, resp[:]); err != nil {
		return 0, fmt.Errorf("reading first answer: %w", err)
	}
	elapsed := time.Since(srv.launched)
	rejected, err := b.in.checkResponse(resp[:], f)
	if err == nil && rejected {
		err = errors.New("first frame rejected")
	}
	b.fail(err)
	return elapsed, nil
}

// readsBefore takes the outside reads that open a timed phase.
func (b *bench) readsBefore(srv *server) (*phaseReads, error) {
	var r phaseReads
	var err error
	if r.page, _, err = srv.metrics(); err != nil {
		return nil, err
	}
	r.mem, err = srv.memStats()
	return &r, err
}

// readsAfter closes a timed phase: the pprof and metrics pages, the
// scrape timings, the page size and the peak RSS. Rates and latencies are
// medians over the phase's windows.
func (b *bench) readsAfter(srv *server, before *phaseReads, ph *phase, idle, connections, scrapes, warmScrapes int) (*roundStats, error) {
	load := ph.load
	mem, err := srv.memStats()
	if err != nil {
		return nil, err
	}
	times, body, err := timeScrapes(srv, scrapes, warmScrapes)
	if err != nil {
		return nil, err
	}
	page, err := parseProm(body)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB(srv.pid)
	if err != nil {
		return nil, err
	}
	frames := float64(load.sent)
	delta := func(k string) float64 { return float64(mem[k] - before.mem[k] - ph.excluded[k]) }
	st := &roundStats{
		load:              load,
		rssMiB:            rss,
		scrapes:           []timedGroup{times},
		metricsKiB:        float64(page.bytes) / bytesPerKiB,
		allocsPerFrame:    delta("Mallocs") / frames,
		gcPer10k:          delta("NumGC") * framesPerGCRow / frames,
		goroutinesPerConn: float64(ph.goroutines-idle) / float64(connections),
		sources:           page.distinct("cqm_quality_observations_total", "source"),
		series:            page.series(),
	}
	var tput, p50s, p99s, scpu, ccpu, steals []float64
	st.p99Beyond = -1
	ws := ph.windows
	for _, w := range ws {
		steals = append(steals, w.steal)
	}
	st.steal = median(append([]float64(nil), steals...))
	keep := lowSteal(steals)
	for i, w := range ws {
		st.windows++
		st.windowFPS = append(st.windowFPS, float64(w.decided)/w.seconds)
		st.windowKept = append(st.windowKept, keep[i])
		if !keep[i] {
			continue
		}
		st.kept++
		p50, p99, beyond := latencyStats(w.latencies)
		tput = append(tput, float64(w.decided)/w.seconds)
		p50s = append(p50s, p50)
		p99s = append(p99s, p99)
		scpu = append(scpu, w.serverCPU*1e6/float64(w.frames))
		ccpu = append(ccpu, w.client*1e6/float64(w.frames))
		if st.p99Beyond < 0 || beyond < st.p99Beyond {
			st.p99Beyond = beyond
		}
	}
	st.throughput, st.p50, st.p99 = median(tput), median(p50s), median(p99s)
	st.serverCPUus, st.clientCPU = median(scpu), median(ccpu)
	if hb, err := before.page.histogram("cqm_serve_batch_size"); err == nil {
		if ha, err := page.histogram("cqm_serve_batch_size"); err == nil {
			st.batchMean = ha.minus(hb).mean()
		}
	}
	sa, err := page.histogram("cqm_serve_queue_sojourn_ms")
	if err != nil {
		return nil, err
	}
	sb, err := before.page.histogram("cqm_serve_queue_sojourn_ms")
	if err != nil {
		return nil, err
	}
	st.sojournP50 = sa.minus(sb).quantile(0.5)
	admitted := page.sum("cqm_serve_admitted_total") - before.page.sum("cqm_serve_admitted_total")
	rejected := page.sum("cqm_serve_rejected_total") - before.page.sum("cqm_serve_rejected_total")
	st.rejectShare = rejected / admitted
	if load.mismatch != nil {
		b.fail(load.mismatch)
	}
	if load.decided+load.rejected != load.sent {
		b.fail(fmt.Errorf("sent %d frames, %d answered", load.sent, load.decided+load.rejected))
	}
	return st, nil
}

// timeScrapes pauses for settle, scrapes /metrics warm times untimed and
// then n times back to back, timed. It returns the mean of the n timings
// in ms with the host's steal share over them, and the last page.
//
// The mean, not the median: each scrape allocates about as much as the
// idle server's heap goal leaves room for, so roughly every other scrape
// runs a server GC and takes twice as long. The median then sits on
// whichever mode holds the larger share, and that share moves with the
// live heap from run to run. Back to back, the mean carries the GC
// amortised per scrape, which does not.
func timeScrapes(srv *server, n, warm int) (timedGroup, []byte, error) {
	var g timedGroup
	var body []byte
	time.Sleep(settle)
	var from hostTicks
	var total time.Duration
	for i := -warm; i < n; i++ {
		var d time.Duration
		var err error
		if i == 0 {
			if from, err = readHostTicks(); err != nil {
				return g, nil, err
			}
		}
		if body, d, err = srv.get("/metrics"); err != nil {
			return g, nil, err
		}
		if i >= 0 {
			total += d
		}
	}
	g.times = []float64{float64(total) / 1e6 / float64(n)}
	to, err := readHostTicks()
	if err != nil {
		return g, nil, err
	}
	g.steal = stealShare(from, to)
	return g, body, nil
}

// checkDrain compares the server's final accounting with what the
// generator sent and saw decided over the server's whole life.
func (b *bench) checkDrain(srv *server, sent, decided uint64) {
	d, err := srv.stop()
	if err != nil {
		b.fail(err)
		return
	}
	if d.admitted+d.overload+d.draining != sent {
		b.fail(fmt.Errorf("server admitted %d and refused %d of %d frames sent", d.admitted, d.overload+d.draining, sent))
	}
	if d.scored != decided {
		b.fail(fmt.Errorf("server scored %d frames, generator saw %d decided", d.scored, decided))
	}
}

// timer returns a channel closed after d.
func timer(d time.Duration) <-chan struct{} {
	c := make(chan struct{})
	time.AfterFunc(d, func() { close(c) })
	return c
}

// phase is the timed part of a server's life.
type phase struct {
	load       *tally
	windows    []window
	scrapes    []timedGroup      // scrape groups in the pauses between segments
	excluded   map[string]uint64 // server Mallocs and NumGC during those pauses
	goroutines int               // goroutine total under load
}

// timedPhase runs the load for --seconds in timedSegments equal segments.
// Between segments the load pauses for a scrape group and a set-up group,
// so that scrape_mean_ms and setup_s sample the host across the run, as the
// load's windows do, rather than only at its ends. The server's
// allocations and GCs in the pauses are set aside.
func (b *bench) timedPhase(srv *server, run func(stop <-chan struct{}) (*tally, error), windowLen time.Duration) (*phase, error) {
	seg := time.Duration(b.opts.seconds) * time.Second / timedSegments
	ph := &phase{load: &tally{}, excluded: map[string]uint64{}}
	for i := 0; i < timedSegments; i++ {
		if i > 0 {
			from, err := srv.memStats()
			if err != nil {
				return nil, err
			}
			g, _, err := timeScrapes(srv, scrapes/scrapeGroups, warmScrapes)
			if err != nil {
				return nil, err
			}
			ph.scrapes = append(ph.scrapes, g)
			if err := b.measureSetup(); err != nil {
				return nil, err
			}
			to, err := srv.memStats()
			if err != nil {
				return nil, err
			}
			for _, k := range []string{"Mallocs", "NumGC"} {
				ph.excluded[k] += to[k] - from[k]
			}
		}
		var gor <-chan int
		if i == 0 {
			gor = sampleGoroutines(srv, seg)
		}
		sampler := startCPUSampler(srv.pid, b.start, windowLen)
		t, err := run(timer(seg))
		if err != nil {
			return nil, err
		}
		cpu, err := sampler.finish()
		if err != nil {
			return nil, err
		}
		ph.windows = append(ph.windows, windows(t, cpu)...)
		ph.load.add(t)
		if gor != nil {
			ph.goroutines = <-gor
		}
	}
	return ph, nil
}

// sampleGoroutines reads the goroutine total once, halfway through a
// phase of length d, and delivers it on the returned channel.
func sampleGoroutines(srv *server, d time.Duration) <-chan int {
	c := make(chan int, 1)
	go func() {
		time.Sleep(d / 2)
		n, err := srv.goroutines()
		if err != nil {
			n = -1
		}
		c <- n
	}()
	return c
}

// runSteady: 1,000 warm pens on the binary front.
func (b *bench) runSteady() (*roundStats, *replayPlan, error) {
	seq := &sequence{in: b.in, order: penOrder(warmPens, b.opts.seed, false)}
	if err := b.measureSetup(); err != nil {
		return nil, nil, err
	}
	srv, err := launch(b.opts.server, serverArgs(b.in))
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		select {
		case <-srv.exited:
		default:
			srv.kill()
		}
	}()
	idle, err := srv.goroutines()
	if err != nil {
		return nil, nil, err
	}
	load, err := newBinLoad(srv, b.in, seq, conns, steadyWindow, b.start)
	if err != nil {
		return nil, nil, err
	}
	total := &tally{}
	// Untimed: first sight of every pen, then a warm period.
	seq.total = warmPens
	warm, err := load.run(nil)
	if err != nil {
		return nil, nil, err
	}
	total.add(warm)
	seq.total = 0
	if warm, err = load.run(timer(warmFor)); err != nil {
		return nil, nil, err
	}
	total.add(warm)
	timedFrom := load.cursor.Load()
	// The first scrape and set-up groups run while the warm server idles.
	firstScrapes, _, err := timeScrapes(srv, scrapes/scrapeGroups, warmScrapes)
	if err != nil {
		return nil, nil, err
	}
	if err := b.measureSetup(); err != nil {
		return nil, nil, err
	}

	before, err := b.readsBefore(srv)
	if err != nil {
		return nil, nil, err
	}
	ph, err := b.timedPhase(srv, load.run, steadyWindowLen)
	if err != nil {
		return nil, nil, err
	}
	st, err := b.readsAfter(srv, before, ph, idle, conns, scrapes/scrapeGroups, warmScrapes)
	if err != nil {
		return nil, nil, err
	}
	st.scrapes = append(append([]timedGroup{firstScrapes}, ph.scrapes...), st.scrapes...)
	total.add(ph.load)
	load.close()
	b.checkDrain(srv, total.sent, total.decided)
	if err := b.measureSetup(); err != nil {
		return nil, nil, err
	}
	if st.sources != warmPens {
		b.fail(fmt.Errorf("server tracks %d sources, want %d", st.sources, warmPens))
	}

	plan := &replayPlan{}
	for n := int64(0); n < warmPens; n++ {
		plan.frames = append(plan.frames, seq.at(n))
	}
	for n := int64(0); n < tracedFrames; n++ {
		plan.frames = append(plan.frames, seq.at(timedFrom+n))
	}
	plan.bodies = b.bodiesOf(plan.frames)
	return st, plan, nil
}

// bodiesOf groups frames into batch bodies of httpBatch frames.
func (b *bench) bodiesOf(frames []frameRef) []batchBody {
	var bodies []batchBody
	for lo := 0; lo < len(frames); lo += httpBatch {
		bodies = append(bodies, b.in.encodeBatch(frames[lo:min(lo+httpBatch, len(frames))]))
	}
	return bodies
}

// runHTTP: the same 1,000 warm pens on POST /score/batch.
func (b *bench) runHTTP() (*roundStats, *replayPlan, error) {
	seq := &sequence{in: b.in, order: penOrder(warmPens, b.opts.seed, false)}
	var frames []frameRef
	for n := int64(0); n < warmPens*httpRounds; n++ {
		frames = append(frames, seq.at(n))
	}
	bodies := b.bodiesOf(frames)
	if err := b.measureSetup(); err != nil {
		return nil, nil, err
	}
	srv, err := launch(b.opts.server, serverArgs(b.in))
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		select {
		case <-srv.exited:
		default:
			srv.kill()
		}
	}()
	idle, err := srv.goroutines()
	if err != nil {
		return nil, nil, err
	}
	load := newHTTPLoad(srv, b.in, bodies, conns, b.start)
	defer func() {
		for _, c := range load.clients {
			c.CloseIdleConnections()
		}
	}()
	total := &tally{}
	warm, err := load.run(nil, warmPens/httpBatch)
	if err != nil {
		return nil, nil, err
	}
	total.add(warm)
	if warm, err = load.run(timer(warmFor), 0); err != nil {
		return nil, nil, err
	}
	total.add(warm)
	timedFrom := load.cursor.Load()
	// The first scrape and set-up groups run while the warm server idles.
	firstScrapes, _, err := timeScrapes(srv, scrapes/scrapeGroups, warmScrapes)
	if err != nil {
		return nil, nil, err
	}
	if err := b.measureSetup(); err != nil {
		return nil, nil, err
	}

	before, err := b.readsBefore(srv)
	if err != nil {
		return nil, nil, err
	}
	run := func(stop <-chan struct{}) (*tally, error) { return load.run(stop, 0) }
	ph, err := b.timedPhase(srv, run, httpWindowLen)
	if err != nil {
		return nil, nil, err
	}
	st, err := b.readsAfter(srv, before, ph, idle, conns, scrapes/scrapeGroups, warmScrapes)
	if err != nil {
		return nil, nil, err
	}
	st.scrapes = append(append([]timedGroup{firstScrapes}, ph.scrapes...), st.scrapes...)
	total.add(ph.load)
	for _, c := range load.clients {
		c.CloseIdleConnections()
	}
	b.checkDrain(srv, total.sent, total.decided)
	if err := b.measureSetup(); err != nil {
		return nil, nil, err
	}
	if st.sources != warmPens {
		b.fail(fmt.Errorf("server tracks %d sources, want %d", st.sources, warmPens))
	}

	// The traced run replays the first-sight bodies and then the timed
	// phase's bodies from where it began.
	plan := &replayPlan{}
	nb := int64(len(bodies))
	for n := int64(0); n < warmPens/httpBatch; n++ {
		plan.bodies = append(plan.bodies, bodies[n%nb])
	}
	for n := int64(0); n < tracedFrames/httpBatch; n++ {
		plan.bodies = append(plan.bodies, bodies[(timedFrom+n)%nb])
	}
	for _, body := range plan.bodies {
		plan.frames = append(plan.frames, body.frames...)
	}
	return st, plan, nil
}

// runJoin: rounds of a fixed amount of work, each on a fresh server:
// joinPens never-seen pens, in a seeded order, each sending one frame.
// Rounds repeat while time is left, at least minJoinRounds.
func (b *bench) runJoin() ([]*roundStats, *replayPlan, error) {
	seq := &sequence{in: b.in, order: penOrder(joinPens, b.opts.seed, true), total: joinPens}
	var rounds []*roundStats
	begin := time.Now()
	budget := time.Duration(b.opts.seconds) * time.Second
	// A further round starts only while it is expected to end within the
	// budget, judged by the mean round so far.
	for len(rounds) < minJoinRounds || time.Since(begin)+time.Since(begin)/time.Duration(len(rounds)) <= budget {
		// A set-up group before every round, and one after the last.
		if err := b.measureSetup(); err != nil {
			return nil, nil, err
		}
		st, err := b.joinRound(seq)
		if err != nil {
			return nil, nil, err
		}
		if len(rounds) > 0 && (st.sources != rounds[0].sources || st.series != rounds[0].series) {
			b.fail(fmt.Errorf("fixed work drifted: round %d has %d sources and %d series, round 1 had %d and %d",
				len(rounds)+1, st.sources, st.series, rounds[0].sources, rounds[0].series))
		}
		rounds = append(rounds, st)
	}
	if err := b.measureSetup(); err != nil {
		return nil, nil, err
	}
	if rounds[0].sources != joinPens {
		b.fail(fmt.Errorf("server tracks %d sources, want %d", rounds[0].sources, joinPens))
	}
	plan := &replayPlan{}
	for n := int64(0); n < seq.total; n++ {
		plan.frames = append(plan.frames, seq.at(n))
	}
	plan.bodies = b.bodiesOf(plan.frames)
	return rounds, plan, nil
}

func (b *bench) joinRound(seq *sequence) (*roundStats, error) {
	srv, err := launch(b.opts.server, serverArgs(b.in))
	if err != nil {
		return nil, err
	}
	defer func() {
		select {
		case <-srv.exited:
		default:
			srv.kill()
		}
	}()
	idle, err := srv.goroutines()
	if err != nil {
		return nil, err
	}
	before, err := b.readsBefore(srv)
	if err != nil {
		return nil, err
	}
	load, err := newBinLoad(srv, b.in, seq, conns, joinWindow, b.start)
	if err != nil {
		return nil, err
	}
	// The goroutine sample lands a quarter into the join's expected
	// length; the join always takes longer than that.
	gor := sampleGoroutines(srv, 500*time.Millisecond)
	// One window: a round is a fixed amount of work, measured whole.
	sampler := startCPUSampler(srv.pid, b.start, time.Hour)
	timed, err := load.run(nil)
	if err != nil {
		return nil, err
	}
	cpu, err := sampler.finish()
	if err != nil {
		return nil, err
	}
	ph := &phase{load: timed, windows: windows(timed, cpu), goroutines: <-gor}
	st, err := b.readsAfter(srv, before, ph, idle, conns, joinScrapes, 1)
	if err != nil {
		return nil, err
	}
	load.close()
	b.checkDrain(srv, timed.sent, timed.decided)
	return st, nil
}
