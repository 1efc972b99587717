package main

// Launching cqmserve and reading it from outside: its stdout lines, its
// HTTP surface (/metrics, /debug/pprof) and /proc/<pid>.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Bounds on how long the server may take to come up and to drain.
const (
	readyTimeout = 30 * time.Second
	stopTimeout  = 10 * time.Second
)

// server is one running cqmserve process.
type server struct {
	cmd      *exec.Cmd
	pid      int
	httpAddr string
	binAddr  string
	launched time.Time

	ready   chan struct{} // closed once both listener lines were printed
	exited  chan struct{} // closed once the process has been reaped
	mu      sync.Mutex
	lines   []string
	waitErr error
	stderr  bytes.Buffer
	http    *http.Client
}

// serverArgs are the flags of the deployed configuration the benchmark
// measures: the trained artifact with its threshold passed explicitly
// (with -model, cqmserve would otherwise fall back to 0.5), both fronts
// on ephemeral loopback ports, and pprof for the outside readers.
func serverArgs(in *inputs) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-binary", "127.0.0.1:0",
		"-model", in.artifact,
		"-threshold", strconv.FormatFloat(in.threshold, 'g', -1, 64),
		"-pprof",
	}
}

// launch starts cqmserve and waits until it has printed the addresses
// of both fronts.
func launch(bin string, args []string) (*server, error) {
	s := &server{
		ready:  make(chan struct{}),
		exited: make(chan struct{}),
		http:   &http.Client{Transport: &http.Transport{DisableCompression: true}, Timeout: 60 * time.Second},
	}
	s.cmd = exec.Command(bin, args...)
	// The kernel kills the server if the benchmark dies without stopping it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Stderr = &s.stderr
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.launched = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s.pid = s.cmd.Process.Pid
	go s.readStdout(out)
	select {
	case <-s.ready:
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("cqmserve exited before serving: %v; stderr: %s", s.waitErr, s.stderrText())
	case <-time.After(readyTimeout):
		s.kill()
		return nil, fmt.Errorf("cqmserve not ready after %v", readyTimeout)
	}
}

// readStdout collects stdout lines, publishes the listener addresses, and
// reaps the process once stdout closes.
func (s *server) readStdout(out io.Reader) {
	sc := bufio.NewScanner(out)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		s.mu.Lock()
		s.lines = append(s.lines, line)
		if rest, ok := strings.CutPrefix(line, "http: http://"); ok {
			s.httpAddr, _, _ = strings.Cut(rest, "/")
		}
		if rest, ok := strings.CutPrefix(line, "binary: "); ok {
			s.binAddr, _, _ = strings.Cut(rest, " ")
		}
		ready := s.httpAddr != "" && s.binAddr != ""
		s.mu.Unlock()
		if ready && !signalled {
			signalled = true
			close(s.ready)
		}
	}
	_, _ = io.Copy(io.Discard, out)
	err := s.cmd.Wait()
	s.mu.Lock()
	s.waitErr = err
	s.mu.Unlock()
	close(s.exited)
}

func (s *server) stderrText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.TrimSpace(s.stderr.String())
}

// kill ends the process without a drain and reaps it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// signalWatcher is the goroutine os/signal starts on a process's first
// signal.Notify call, after enabling the signal it registers.
const signalWatcher = "os/signal.loop"

// awaitSignalHandler waits until cqmserve has registered its SIGTERM
// handler, which it does only after both listeners have printed their
// addresses: a SIGTERM that lands in that gap kills the process without a
// drain (in a probe, 8 of 20 launches signalled right after the listener
// lines died that way). The registration is read from outside as the
// os/signal watcher goroutine on the pprof goroutine page.
func (s *server) awaitSignalHandler() error {
	deadline := time.Now().Add(readyTimeout)
	for {
		body, _, err := s.get("/debug/pprof/goroutine?debug=1")
		if err != nil {
			return err
		}
		if bytes.Contains(body, []byte(signalWatcher)) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cqmserve registered no signal handler within %v", readyTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for a clean exit, and checks the drain
// accounting the server prints: every admitted frame was scored or
// rejected with a reason.
func (s *server) stop() (drainedLine, error) {
	if err := s.awaitSignalHandler(); err != nil {
		s.kill()
		return drainedLine{}, err
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return drainedLine{}, fmt.Errorf("signalling cqmserve: %w", err)
	}
	select {
	case <-s.exited:
	case <-time.After(stopTimeout):
		s.kill()
		return drainedLine{}, fmt.Errorf("cqmserve did not exit within %v of SIGTERM", stopTimeout)
	}
	s.http.CloseIdleConnections()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.waitErr != nil {
		return drainedLine{}, fmt.Errorf("cqmserve exit: %v; stderr: %s", s.waitErr, strings.TrimSpace(s.stderr.String()))
	}
	for _, line := range s.lines {
		if strings.HasPrefix(line, "drained: ") {
			d, err := parseDrained(line)
			if err != nil {
				return d, err
			}
			if d.admitted != d.scored+d.admittedRejects() {
				return d, fmt.Errorf("drain accounting: admitted %d, scored %d + rejected after admission %d", d.admitted, d.scored, d.admittedRejects())
			}
			return d, nil
		}
	}
	return drainedLine{}, fmt.Errorf("cqmserve printed no drained line")
}

// get fetches path from the HTTP front and reports how long it took.
func (s *server) get(path string) ([]byte, time.Duration, error) {
	start := time.Now()
	resp, err := s.http.Get("http://" + s.httpAddr + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	elapsed := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("reading %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, elapsed, nil
}

// metrics scrapes and parses /metrics.
func (s *server) metrics() (*promPage, time.Duration, error) {
	body, elapsed, err := s.get("/metrics")
	if err != nil {
		return nil, 0, err
	}
	page, err := parseProm(body)
	return page, elapsed, err
}

// memStats reads the runtime.MemStats counters from the pprof heap page.
func (s *server) memStats() (map[string]uint64, error) {
	body, _, err := s.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return nil, err
	}
	return parseMemStats(body)
}

// goroutines reads the goroutine total from the pprof goroutine page.
func (s *server) goroutines() (int, error) {
	body, _, err := s.get("/debug/pprof/goroutine?debug=1")
	if err != nil {
		return 0, err
	}
	return parseGoroutineTotal(body)
}

// cpuSeconds sums the on-CPU time of every thread of pid.
func cpuSeconds(pid int) (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, t := range tasks {
		line, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited after the listing
		}
		if err != nil {
			return 0, err
		}
		sec, err := parseSchedstat(line)
		if err != nil {
			return 0, err
		}
		total += sec
	}
	return total, nil
}

// readHostTicks reads the machine's CPU tick totals from /proc/stat.
func readHostTicks() (hostTicks, error) {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	return parseProcStat(stat)
}

// peakRSSMiB reads VmHWM of pid from /proc in MiB.
func peakRSSMiB(pid int) (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseProcStatusKB(status, "VmHWM")
	return float64(kb) / 1024, err
}

// dialBinary opens a connection to the binary front.
func (s *server) dialBinary() (*net.TCPConn, error) {
	c, err := net.Dial("tcp", s.binAddr)
	if err != nil {
		return nil, err
	}
	return c.(*net.TCPConn), nil
}
