package main

// The load generator: closed loops over the binary front (pipelined
// connections with a fixed in-flight window) and over POST /score/batch
// (clients that each wait for their batch's answer before sending the
// next). Frames and bodies are encoded before timing; at send time only
// the sequence number and the send stamp are written.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cqm/internal/particle"
	"cqm/internal/serve"
)

// tally is what one phase of load observed.
type tally struct {
	sent, decided, rejected uint64
	samples                 []sample
	samplesAreFrames        bool  // false: one sample per batch request
	mismatch                error // first answer that differs from the reference
}

// sample is one answered frame, or one answered batch request.
type sample struct {
	done    int64 // completion time, ns since the run's origin
	latency int64 // ns from send to answer
	decided int64 // frames of the sample answered with a decision
	frames  int64 // frames the sample answers
}

func (t *tally) add(o *tally) {
	t.sent += o.sent
	t.decided += o.decided
	t.rejected += o.rejected
	t.samples = append(t.samples, o.samples...)
	t.samplesAreFrames = t.samplesAreFrames || o.samplesAreFrames
	if t.mismatch == nil {
		t.mismatch = o.mismatch
	}
}

// binLoad drives pipelined connections to the binary front.
type binLoad struct {
	in     *inputs
	seq    *sequence
	start  time.Time // SentMillis counts milliseconds from here
	conns  []*binConn
	cursor atomic.Int64
}

// binConn is one connection with a window of slots; a slot carries its
// request's frame and send time to the reader.
type binConn struct {
	conn   *net.TCPConn
	w      *bufio.Writer
	slots  chan uint16
	window int
	frame  []atomic.Int64 // frame index per slot
	sentAt []atomic.Int64 // send time per slot, ns since start
	// Owned by the reader between slot hand-offs; read by the phase owner
	// once every slot is back in the ring.
	stats   tally
	readErr atomic.Pointer[error]
	done    chan struct{}
}

func newBinLoad(srv *server, in *inputs, seq *sequence, conns, window int, start time.Time) (*binLoad, error) {
	if window < 1 || window > maxWindow {
		return nil, fmt.Errorf("window %d outside 1..%d", window, maxWindow)
	}
	l := &binLoad{in: in, seq: seq, start: start}
	for i := 0; i < conns; i++ {
		c, err := srv.dialBinary()
		if err != nil {
			l.close()
			return nil, fmt.Errorf("dialing binary front: %w", err)
		}
		bc := &binConn{
			conn:   c,
			w:      bufio.NewWriterSize(c, 64<<10),
			slots:  make(chan uint16, window),
			window: window,
			frame:  make([]atomic.Int64, window),
			sentAt: make([]atomic.Int64, window),
			done:   make(chan struct{}),
		}
		for s := 0; s < window; s++ {
			bc.slots <- uint16(s)
		}
		l.conns = append(l.conns, bc)
		go bc.read(l)
	}
	return l, nil
}

// read checks every response against the reference and returns its slot.
func (c *binConn) read(l *binLoad) {
	defer close(c.done)
	r := bufio.NewReaderSize(c.conn, 64<<10)
	var resp [particle.FrameLen]byte
	for {
		if _, err := io.ReadFull(r, resp[:]); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				c.readErr.Store(&err)
			}
			return
		}
		now := time.Since(l.start).Nanoseconds()
		slot := int(resp[11])<<8 | int(resp[12])
		if slot >= c.window {
			err := fmt.Errorf("response outside the slot window: % x", resp)
			c.readErr.Store(&err)
			return
		}
		f := l.seq.at(c.frame[slot].Load())
		rejected, err := l.in.checkResponse(resp[:], f)
		smp := sample{done: now, latency: now - c.sentAt[slot].Load(), frames: 1}
		switch {
		case err != nil:
			if c.stats.mismatch == nil {
				c.stats.mismatch = err
			}
		case rejected:
			c.stats.rejected++
		default:
			c.stats.decided++
			smp.decided = 1
		}
		c.stats.samples = append(c.stats.samples, smp)
		c.slots <- uint16(slot)
	}
}

// run sends frames until stop is closed or the sequence ends, then waits
// for every answer. It returns the phase's tally.
func (l *binLoad) run(stop <-chan struct{}) (*tally, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(l.conns))
	for i, c := range l.conns {
		wg.Add(1)
		go func(i int, c *binConn) {
			defer wg.Done()
			errs[i] = c.send(l, stop)
		}(i, c)
	}
	wg.Wait()
	total := &tally{samplesAreFrames: true}
	for i, c := range l.conns {
		if errs[i] != nil {
			return nil, errs[i]
		}
		total.add(&c.stats)
		c.stats = tally{}
	}
	return total, nil
}

// send is one connection's closed loop: every free slot is folded into a
// write burst, all frames of a burst carry the burst's send stamp, and the
// loop ends by waiting until all slots are back.
func (c *binConn) send(l *binLoad, stop <-chan struct{}) error {
	var buf [64]byte
	sent := uint64(0)
	finished := false
	for !finished {
		var slot uint16
		select {
		case <-stop:
			finished = true
			continue
		case slot = <-c.slots:
		}
		now := time.Since(l.start)
		ms := uint32(now / time.Millisecond)
		burst := 0
		for {
			n := l.cursor.Add(1) - 1
			if l.seq.total > 0 && n >= l.seq.total {
				c.slots <- slot
				finished = true
				break
			}
			c.frame[slot].Store(n)
			c.sentAt[slot].Store(now.Nanoseconds())
			size := l.in.writeFrame(buf[:], l.seq.at(n), slot, ms)
			if _, err := c.w.Write(buf[:size]); err != nil {
				return fmt.Errorf("send: %w", err)
			}
			sent++
			burst++
			var more bool
			select {
			case slot = <-c.slots:
				more = true
			default:
			}
			if !more {
				break
			}
		}
		if burst > 0 {
			if err := c.w.Flush(); err != nil {
				return fmt.Errorf("flush: %w", err)
			}
		}
	}
	// Closed loop: when every slot is back, every frame was answered.
	deadline := time.After(stopTimeout)
	for held := 0; held < c.window; held++ {
		select {
		case <-c.slots:
		case <-c.done:
			if p := c.readErr.Load(); p != nil {
				return fmt.Errorf("reading responses: %w", *p)
			}
			return fmt.Errorf("connection closed with %d frames unanswered", c.window-held)
		case <-deadline:
			return fmt.Errorf("%d frames unanswered after %v", c.window-held, stopTimeout)
		}
	}
	for s := 0; s < c.window; s++ {
		c.slots <- uint16(s)
	}
	c.stats.sent = sent
	return nil
}

// close hangs up every connection and waits for the readers.
func (l *binLoad) close() {
	for _, c := range l.conns {
		_ = c.conn.CloseWrite()
		<-c.done
		_ = c.conn.Close()
	}
}

// httpLoad drives POST /score/batch clients, each on its own keep-alive
// connection.
type httpLoad struct {
	in      *inputs
	url     string
	bodies  []batchBody
	start   time.Time
	clients []*http.Client
	cursor  atomic.Int64
}

func newHTTPLoad(srv *server, in *inputs, bodies []batchBody, clients int, start time.Time) *httpLoad {
	l := &httpLoad{in: in, url: "http://" + srv.httpAddr + "/score/batch", bodies: bodies, start: start}
	for i := 0; i < clients; i++ {
		l.clients = append(l.clients, &http.Client{Transport: &http.Transport{
			DisableCompression:  true,
			MaxIdleConnsPerHost: 1,
		}, Timeout: 60 * time.Second})
	}
	return l
}

// run sends batches until stop is closed or limit bodies were sent (0 =
// no limit). Each answer is checked against the reference as it arrives.
func (l *httpLoad) run(stop <-chan struct{}, limit int64) (*tally, error) {
	results := make([]tally, len(l.clients))
	errs := make([]error, len(l.clients))
	var wg sync.WaitGroup
	for i, client := range l.clients {
		wg.Add(1)
		go func(res *tally, errp *error, client *http.Client) {
			defer wg.Done()
			var buf []byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := l.cursor.Add(1) - 1
				if limit > 0 && n >= limit {
					return
				}
				b := &l.bodies[n%int64(len(l.bodies))]
				sent := time.Since(l.start)
				ms := uint32(sent / time.Millisecond)
				buf = b.stamp(buf, ms)
				resp, err := client.Post(l.url, "application/json", bytes.NewReader(buf))
				if err != nil {
					*errp = err
					return
				}
				data, err := io.ReadAll(resp.Body)
				_ = resp.Body.Close() // fully read; a close error changes nothing
				done := time.Since(l.start).Nanoseconds()
				if err != nil {
					*errp = err
					return
				}
				if resp.StatusCode != http.StatusOK {
					*errp = fmt.Errorf("POST /score/batch: %s: %s", resp.Status, bytes.TrimSpace(data))
					return
				}
				decided, rejected, err := l.check(b, data, ms)
				if err != nil && res.mismatch == nil {
					res.mismatch = err
				}
				res.sent += uint64(len(b.frames))
				res.decided += decided
				res.rejected += rejected
				res.samples = append(res.samples, sample{
					done: done, latency: done - sent.Nanoseconds(),
					decided: int64(decided), frames: int64(len(b.frames)),
				})
			}
		}(&results[i], &errs[i], client)
	}
	wg.Wait()
	total := &tally{}
	for i := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		total.add(&results[i])
	}
	return total, nil
}

// check compares one batch answer with the reference. The answer to a
// fully decided batch is byte-for-byte predictable, so that case is one
// comparison; anything else is decoded and checked request by request.
// An error reports the first answer that is not the reference's; the
// frames counted before it stand.
func (l *httpLoad) check(b *batchBody, data []byte, ms uint32) (decided, rejected uint64, err error) {
	if b.matches(data, ms) {
		return uint64(len(b.frames)), 0, nil
	}
	var out struct {
		Responses []serve.JSONResponse `json:"responses"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return 0, 0, fmt.Errorf("decoding batch answer: %w", err)
	}
	if len(out.Responses) != len(b.frames) {
		return 0, 0, fmt.Errorf("batch of %d answered with %d responses", len(b.frames), len(out.Responses))
	}
	for i, r := range out.Responses {
		f := b.frames[i]
		if r.Source != l.in.names[f.pen] || int(r.Seq) != i || r.SentMillis != ms {
			return decided, rejected, fmt.Errorf("response %d echoes %q/%d/%d, sent %q/%d/%d", i, r.Source, r.Seq, r.SentMillis, l.in.names[f.pen], i, ms)
		}
		if r.Status == "rejected" {
			rejected++
			continue
		}
		ref := l.in.refs[f.item]
		if err := matchJSON(r, ref); err != nil {
			return decided, rejected, fmt.Errorf("pen %s item %d: %w", l.in.names[f.pen], f.item, err)
		}
		decided++
	}
	return decided, rejected, nil
}

// matchJSON checks a JSON answer against the reference decision; q must
// be the reference's float64 exactly.
func matchJSON(r serve.JSONResponse, ref refAnswer) error {
	if r.Status != ref.status.String() {
		return fmt.Errorf("status %s, reference %s", r.Status, ref.status)
	}
	if ref.status == serve.StatusEpsilon {
		if r.Q != nil {
			return fmt.Errorf("ε answer carries q %v", *r.Q)
		}
		return nil
	}
	if r.Q == nil || *r.Q != ref.q { //lint:ignore floatcmp the answer must equal the reference bit for bit
		return fmt.Errorf("q %v, reference %v", r.Q, ref.q)
	}
	return nil
}

// cpuSample is the CPU time of the server and of the generator at one
// instant of a phase.
type cpuSample struct {
	at             int64 // ns since the run's origin
	server, client float64
	host           hostTicks
}

// cpuSampler reads both processes' CPU time every interval until stopped.
type cpuSampler struct {
	samples []cpuSample
	stop    chan struct{}
	done    chan struct{}
	err     error
}

func startCPUSampler(pid int, origin time.Time, every time.Duration) *cpuSampler {
	s := &cpuSampler{stop: make(chan struct{}), done: make(chan struct{})}
	read := func() {
		at := time.Since(origin).Nanoseconds()
		server, err := cpuSeconds(pid)
		if err != nil {
			s.err = err
			return
		}
		client, err := cpuSeconds(os.Getpid())
		if err != nil {
			s.err = err
			return
		}
		host, err := readHostTicks()
		if err != nil {
			s.err = err
			return
		}
		s.samples = append(s.samples, cpuSample{at: at, server: server, client: client, host: host})
	}
	read()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return s
}

// finish takes the closing sample and returns every sample.
func (s *cpuSampler) finish() ([]cpuSample, error) {
	close(s.stop)
	<-s.done
	return s.samples, s.err
}

// window is the load between two consecutive CPU samples.
type window struct {
	seconds           float64
	frames, decided   int64
	serverCPU, client float64 // seconds
	steal             float64 // share of the host's CPU ticks stolen
	latencies         []float64
}

// windows splits a phase's answers at the CPU sample instants. The
// closing, shorter window is kept only when it is the only one.
func windows(t *tally, cpu []cpuSample) []window {
	var out []window
	for i := 0; i+1 < len(cpu); i++ {
		lo, hi := cpu[i], cpu[i+1]
		w := window{
			seconds:   float64(hi.at-lo.at) / 1e9,
			serverCPU: hi.server - lo.server,
			client:    hi.client - lo.client,
			steal:     stealShare(lo.host, hi.host),
		}
		for _, s := range t.samples {
			if s.done >= lo.at && s.done < hi.at {
				w.decided += s.decided
				w.frames += s.frames
				w.latencies = append(w.latencies, float64(s.latency)/1e6)
			}
		}
		out = append(out, w)
	}
	if len(out) > 1 && out[len(out)-1].seconds < 0.9*out[0].seconds {
		out = out[:len(out)-1]
	}
	return out
}

// latencyStats sorts the samples' latencies (ms) and returns p50 and p99
// with the number of samples beyond p99.
func latencyStats(lat []float64) (p50, p99 float64, beyond int) {
	sort.Float64s(lat)
	p50, _ = percentile(lat, 0.50)
	p99, beyond = percentile(lat, 0.99)
	return p50, p99, beyond
}
