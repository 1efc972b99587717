package main

// The traced run: the layers cqmserve wires together, built in process
// through their public constructors, replaying a workload's exact frames
// with a span around every call into a layer. It is separate from the
// timed runs, which read the server only from outside.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"cqm/internal/adapt"
	"cqm/internal/ckpt"
	"cqm/internal/core"
	"cqm/internal/obs"
	"cqm/internal/particle"
	"cqm/internal/quality"
	"cqm/internal/sensor"
	"cqm/internal/serve"
)

// Span names: one per public call the replay makes, plus the roots that
// group a frame's calls.
const (
	spFrame = iota
	spDecode
	spReadRequest
	spSubmit
	spEncodeResponse
	spObserveFirst
	spObserveKnown
	spDecide
	spScoreBatch
	spHTTP
	spExpose
	spModelLoad
	spanKinds
)

var spanNames = [spanKinds]string{
	"frame", "particle.Decode", "serve.ReadRequest", "serve.Server.Submit",
	"serve.EncodeResponse", "quality.Engine.Observe/first", "quality.Engine.Observe/known",
	"adapt.Supervisor.Decide", "core.Measure.ScoreBatch", "serve.HTTPHandler.ServeHTTP",
	"obs.Registry.WritePrometheus", "ckpt.ModelWatcher.Poll/first",
}

// span is one timed call. Spans of one frame share its trace id.
type span struct {
	kind       uint8
	parent     int32 // index of the enclosing span, -1 for a root
	trace      int64
	start, end int64 // ns since the tracer's origin
}

// tracer keeps spans in memory; with on false it records nothing, which
// is how the replay is timed without tracing.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
}

func (t *tracer) begin(kind int, parent int32, trace int64) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{kind: uint8(kind), parent: parent, trace: trace, start: time.Since(t.origin).Nanoseconds()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = time.Since(t.origin).Nanoseconds()
	}
}

// layerTime is the count and summed self time of one span kind.
type layerTime struct {
	count int
	self  time.Duration
	each  []time.Duration // per-span self time, for medians
}

func (l layerTime) mean() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.self) / float64(l.count)
}

// selfTimes computes each span's duration minus the time its children
// cover (children of one span never overlap: the replay is sequential).
func (t *tracer) selfTimes() [spanKinds]layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out [spanKinds]layerTime
	for i, s := range t.spans {
		self := time.Duration(s.end - s.start - child[i])
		lt := &out[s.kind]
		lt.count++
		lt.self += self
		lt.each = append(lt.each, self)
	}
	return out
}

// writeSpans writes every span as CSV: name, trace, parent, start and end
// in ns since the traced run began.
func (t *tracer) writeSpans(path string) error {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	fmt.Fprintln(w, "index,name,trace,parent,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, spanNames[s.kind], s.trace, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return writeFileAtomic(path, buf.Bytes())
}

// replayPlan is what the traced run replays for one workload: the frames
// (in send order) and the batch bodies for the HTTP front.
type replayPlan struct {
	frames    []frameRef
	bodies    []batchBody
	batchMean float64 // the timed run's serve.batch_mean; ScoreBatch runs at this size
}

// traceResult is the traced run's per-layer numbers.
type traceResult struct {
	layers       [spanKinds]layerTime
	frames       int
	httpFrames   int
	overhead     float64 // traced ÷ untraced wall of the frame replay − 1
	tracedWall   time.Duration
	untracedWall time.Duration
	modelLoadMs  float64
	exposeMs     float64
}

// runTraced replays plan's frames three times, each through a freshly
// built set of layers: with spans off, on, and off again. The traced pass
// also times the once-per-batch and once-per-run calls. It returns the
// traced pass's per-layer self times and the tracing overhead of the
// frame replay, against the mean of the two untraced passes, so that
// neither side gets all the cold-start costs (heap growth, page faults).
func runTraced(in *inputs, plan *replayPlan, workDir, spansPath string) (*traceResult, error) {
	var untraced time.Duration
	var on *tracer
	var traced time.Duration
	for pass := 0; pass < 3; pass++ {
		tr := &tracer{on: pass == 1, origin: time.Now()}
		wall, err := replay(in, plan, workDir, tr)
		if err != nil {
			return nil, fmt.Errorf("replay pass %d (spans %v): %w", pass+1, tr.on, err)
		}
		if tr.on {
			on, traced = tr, wall
		} else {
			untraced += wall / 2
		}
	}
	res := &traceResult{
		layers:       on.selfTimes(),
		frames:       len(plan.frames),
		tracedWall:   traced,
		untracedWall: untraced,
		overhead:     float64(traced)/float64(untraced) - 1,
	}
	for _, b := range plan.bodies {
		res.httpFrames += len(b.frames)
	}
	res.modelLoadMs = medianMs(res.layers[spModelLoad].each)
	res.exposeMs = medianMs(res.layers[spExpose].each)
	if spansPath != "" {
		if err := on.writeSpans(spansPath); err != nil { //lint:ignore determinism-taint span files hold wall-clock timings by definition
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

func medianMs(ds []time.Duration) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = float64(d) / 1e6
	}
	return median(vals)
}

// Repeats of the calls that happen once per run, so their figure is a
// median.
const (
	modelLoads = 5
	exposes    = 3
)

// replay builds the layers and sends the plan's frames through them. It
// returns the wall time of the frame replay; with spans on it then times
// ScoreBatch, the HTTP handler and exposition as well.
func replay(in *inputs, plan *replayPlan, workDir string, tr *tracer) (time.Duration, error) {
	// ckpt: the first Poll of a fresh watcher loads and validates the
	// artifact, as at cqmserve start-up.
	var handle *ckpt.Handle
	var watcher *ckpt.ModelWatcher
	for i := 0; i < modelLoads; i++ {
		handle = ckpt.NewHandle(nil)
		var err error
		watcher, err = ckpt.NewModelWatcher(ckpt.WatchConfig{Path: in.artifact}, handle)
		if err != nil {
			return 0, err
		}
		sp := tr.begin(spModelLoad, -1, int64(i))
		_, err = watcher.Poll()
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("loading model: %w", err)
		}
	}

	reg := obs.NewRegistry()
	engine := quality.NewEngine(quality.Config{Threshold: in.threshold, Metrics: reg})
	// The direct Observe calls go to a twin of the server's engine, so the
	// server's engine sees each frame once, as in cqmserve.
	twin := quality.NewEngine(quality.Config{Threshold: in.threshold, Metrics: obs.NewRegistry()})
	srv, err := serve.New(serve.Config{
		Shards:       2,
		QueueDepth:   1024,
		BatchSize:    256,
		Threshold:    in.threshold,
		Handle:       handle,
		Metrics:      reg,
		Quality:      engine,
		ShedTarget:   25 * time.Millisecond,
		ShedInterval: 100 * time.Millisecond,
	})
	if err != nil {
		return 0, err
	}
	defer srv.Drain()

	supDir, err := os.MkdirTemp(workDir, "adapt-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(supDir)
	sup, err := adapt.New(adapt.Config{
		Dir:       filepath.Join(supDir, "state"),
		ModelPath: in.artifact,
		Watcher:   watcher,
		Handle:    handle,
		Threshold: in.threshold,
	})
	if err != nil {
		return 0, fmt.Errorf("adapt supervisor: %w", err)
	}
	defer sup.Close()

	begin := time.Now()
	seen := make(map[int32]bool)
	var frame [64]byte
	for n, f := range plan.frames {
		trace := int64(n)
		ms := uint32(time.Since(begin) / time.Millisecond)
		size := in.writeFrame(frame[:], f, uint16(n), ms)
		ref := in.refs[f.item]
		root := tr.begin(spFrame, -1, trace)

		sp := tr.begin(spDecode, root, trace)
		_, derr := particle.Decode(frame[:particle.FrameLen])
		tr.end(sp)
		if derr != nil {
			return 0, derr
		}

		sp = tr.begin(spReadRequest, root, trace)
		req, rerr := serve.ReadRequest(bytes.NewReader(frame[:size]))
		tr.end(sp)
		if rerr != nil {
			return 0, rerr
		}

		// The twin receives the frames the server's engine receives, so a
		// new source's first sight is timed on an engine that holds every
		// earlier source. It is then observed once more as a known
		// source: on fleet-join each pen sends a single frame.
		o := quality.Observation{Source: in.names[f.pen], At: float64(ms) / 1000, Q: ref.q, HasQ: ref.status != serve.StatusEpsilon}
		if !seen[f.pen] {
			seen[f.pen] = true
			sp = tr.begin(spObserveFirst, root, trace)
			twin.Observe(o)
			tr.end(sp)
		}
		sp = tr.begin(spObserveKnown, root, trace)
		twin.Observe(o)
		tr.end(sp)

		sp = tr.begin(spSubmit, root, trace)
		out, serr := srv.Submit(req)
		tr.end(sp)
		if serr != nil {
			return 0, fmt.Errorf("submit frame %d: %w", n, serr)
		}
		if out.Status != ref.status || (ref.status != serve.StatusEpsilon && out.Q != ref.q) { //lint:ignore floatcmp the decision must equal the reference bit for bit
			return 0, fmt.Errorf("frame %d: Submit decided %s q %v, reference %s q %v", n, out.Status, out.Q, ref.status, ref.q)
		}

		sp = tr.begin(spEncodeResponse, root, trace)
		_, eerr := serve.EncodeResponse(serve.Response{Node: req.Node, Seq: req.Seq, SentMillis: req.SentMillis, Status: out.Status, Q: out.Q})
		tr.end(sp)
		if eerr != nil {
			return 0, eerr
		}

		sp = tr.begin(spDecide, root, trace)
		//lint:ignore determinism-taint the supervisor journals into a temp dir deleted after the replay
		sup.Decide(adapt.Decision{
			Source:   in.names[f.pen],
			At:       float64(ms) / 1000,
			Cues:     req.Cues,
			Class:    sensor.ContextByID(int(req.ClassID)),
			Q:        out.Q,
			HasQ:     out.Status != serve.StatusEpsilon,
			Accepted: out.Status == serve.StatusAccepted,
		})
		tr.end(sp)
		tr.end(root)
	}
	wall := time.Since(begin)
	if !tr.on {
		return wall, nil
	}

	// core: ScoreBatch over the same frames at the timed run's mean batch.
	size := int(plan.batchMean + 0.5)
	if size < 1 {
		size = 1
	}
	m := handle.Load()
	batch := make([]core.Observation, 0, size)
	for lo := 0; lo < len(plan.frames); lo += size {
		hi := min(lo+size, len(plan.frames))
		batch = batch[:0]
		for _, f := range plan.frames[lo:hi] {
			it := in.items[f.item]
			batch = append(batch, core.Observation{Cues: it.Cues, Class: sensor.ContextByID(int(it.ClassID))})
		}
		sp := tr.begin(spScoreBatch, -1, int64(lo))
		qs, ok, err := m.ScoreBatch(batch, nil)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		for i, f := range plan.frames[lo:hi] {
			ref := in.refs[f.item]
			if ok[i] != (ref.status != serve.StatusEpsilon) || (ok[i] && qs[i] != ref.q) { //lint:ignore floatcmp the score must equal the reference bit for bit
				return 0, fmt.Errorf("ScoreBatch frame %d: q %v ok %v, reference %s q %v", lo+i, qs[i], ok[i], ref.status, ref.q)
			}
		}
	}

	// HTTP front: the handler on pre-encoded batch bodies.
	handler := srv.HTTPHandler()
	var body []byte
	for i := range plan.bodies {
		b := &plan.bodies[i]
		ms := uint32(time.Since(begin) / time.Millisecond)
		body = b.stamp(body, ms)
		req := httptest.NewRequest(http.MethodPost, "/score/batch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		sp := tr.begin(spHTTP, -1, int64(i))
		handler.ServeHTTP(rec, req)
		tr.end(sp)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("batch body %d: HTTP %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		l := &httpLoad{in: in, bodies: plan.bodies}
		if _, rejected, err := l.check(b, rec.Body.Bytes(), ms); err != nil {
			return 0, err
		} else if rejected > 0 {
			return 0, fmt.Errorf("batch body %d: %d frames rejected in process", i, rejected)
		}
	}

	// obs: exposition of the end-of-run registry.
	for i := 0; i < exposes; i++ {
		sp := tr.begin(spExpose, -1, int64(i))
		err := reg.WritePrometheus(io.Discard)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
	}
	return wall, nil
}
