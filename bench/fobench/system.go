package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// build compiles the two server binaries from the repository at root into
// dir and returns their paths keyed by command name.
func build(ctx context.Context, root, dir string) (map[string]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator), "./cmd/fomodeld", "./cmd/fomodelproxy")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	return map[string]string{
		"fomodeld":     filepath.Join(dir, "fomodeld"),
		"fomodelproxy": filepath.Join(dir, "fomodelproxy"),
	}, nil
}

// proc is one launched server process.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *logSink
	// procs is the process's GOMAXPROCS, recorded for the report.
	procs int
	done  chan struct{}
}

// logSink receives a server's structured log. It picks out the address
// the server reports when it starts listening and keeps the last few KiB
// for error messages; the rest is dropped. The server still formats and
// writes every line, as in production, but nothing reaches the disk,
// where a run's log would be flushed during the next run.
type logSink struct {
	mu      sync.Mutex
	found   bool
	pending []byte // bytes not yet scanned for the address
	tail    []byte
	addr    chan string
}

const logTailBytes = 4 << 10

func newLogSink() *logSink { return &logSink{addr: make(chan string, 1)} }

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.found {
		s.pending = append(s.pending, p...)
		for !s.found {
			i := bytes.IndexByte(s.pending, '\n')
			if i < 0 {
				break
			}
			var line struct{ Msg, Addr string }
			if json.Unmarshal(s.pending[:i], &line) == nil && strings.HasSuffix(line.Msg, " listening") && line.Addr != "" {
				s.found = true
				s.addr <- line.Addr
			}
			s.pending = s.pending[i+1:]
		}
	}
	s.tail = append(s.tail, p...)
	if len(s.tail) > 2*logTailBytes {
		s.tail = append([]byte(nil), s.tail[len(s.tail)-logTailBytes:]...)
	}
	return len(p), nil
}

// lastLines returns the end of the log, for error messages.
func (s *logSink) lastLines() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.TrimSpace(string(s.tail[max(len(s.tail)-logTailBytes, 0):]))
}

// startProc launches bin listening on an ephemeral loopback port and
// returns once the process has logged the address it bound.
func startProc(ctx context.Context, name, bin string, gomaxprocs int, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = serverEnv(gomaxprocs)
	sink := newLogSink()
	cmd.Stdout, cmd.Stderr = sink, sink
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, log: sink, cmd: cmd, procs: gomaxprocs, done: make(chan struct{})}
	if p.procs == 0 {
		p.procs = runtime.NumCPU()
	}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server carries no information
		close(p.done)
	}()
	select {
	case addr := <-sink.addr:
		p.url = "http://" + addr
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited during start-up: %s", name, sink.lastLines())
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not report its address within 60s: %s", name, sink.lastLines())
	}
}

// serverEnv is the environment of a launched server: the benchmark's own,
// with GOMAXPROCS pinned when gomaxprocs > 0 and unset otherwise, so a
// value inherited from the caller cannot silently change the system.
func serverEnv(gomaxprocs int) []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			env = append(env, kv)
		}
	}
	if gomaxprocs > 0 {
		env = append(env, "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	}
	return env
}

// stop asks the process to drain and exit, kills it after 10s, and
// returns only once it has ended.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if the process already exited
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// awaitReady polls url/readyz until it answers 200.
func (p *proc) awaitReady(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before ready: %s", p.name, p.log.lastLines())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s not ready within 120s", p.name)
}

// topology describes the processes of a workload's system under test.
type topology struct {
	// replicas fomodeld processes run with daemonArgs; with store set they
	// share one fresh artifact-store directory, as replicas on one host
	// can, so a request any replica serves is in the store for all.
	replicas   int
	daemonArgs []string
	store      bool
	// storeMaxBytes is the store bound (0 keeps the daemon's default).
	storeMaxBytes int64
	// proxy puts one fomodelproxy in front of the replicas.
	proxy bool
	// gomaxprocs pins every process of the system (0 = the Go default).
	gomaxprocs int
}

// system is one running system under test.
type system struct {
	daemons []*proc
	proxy   *proc
	// store is the artifact-store directory, "" for a store-less system.
	store string
}

func (s *system) procs() []*proc {
	if s.proxy == nil {
		return s.daemons
	}
	return append(append([]*proc(nil), s.daemons...), s.proxy)
}

// entry is the base URL the load targets.
func (s *system) entry() string {
	if s.proxy != nil {
		return s.proxy.url
	}
	return s.daemons[0].url
}

// stop ends every process, proxy first.
func (s *system) stop() {
	ps := s.procs()
	for i := len(ps) - 1; i >= 0; i-- {
		ps[i].stop()
	}
}

// launch starts the topology's processes under dir and waits until each
// answers /readyz. Replicas are ready before the proxy starts, so the
// proxy's first probe finds them warm and never ejects one during set-up.
func launch(ctx context.Context, bins map[string]string, top topology, n int, dir string) (*system, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &system{}
	fail := func(err error) (*system, error) {
		s.stop()
		return nil, err
	}
	args := append([]string{"-n", strconv.Itoa(n)}, top.daemonArgs...)
	if top.store {
		s.store = filepath.Join(dir, "store")
		args = append(args, "-store", s.store)
		if top.storeMaxBytes > 0 {
			args = append(args, "-store-max-bytes", strconv.FormatInt(top.storeMaxBytes, 10))
		}
	}
	for i := 0; i < top.replicas; i++ {
		name := fmt.Sprintf("fomodeld-%d", i)
		p, err := startProc(ctx, name, bins["fomodeld"], top.gomaxprocs, args...)
		if err != nil {
			return fail(err)
		}
		s.daemons = append(s.daemons, p)
	}
	for _, p := range s.daemons {
		if err := p.awaitReady(ctx); err != nil {
			return fail(err)
		}
	}
	if top.proxy {
		var urls []string
		for _, p := range s.daemons {
			urls = append(urls, p.url)
		}
		p, err := startProc(ctx, "fomodelproxy", bins["fomodelproxy"], top.gomaxprocs,
			"-n", strconv.Itoa(n), "-replicas", strings.Join(urls, ","))
		if err != nil {
			return fail(err)
		}
		s.proxy = p
		if err := p.awaitReady(ctx); err != nil {
			return fail(err)
		}
	}
	return s, nil
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux configuration Go supports).
const clockTick = 10 * time.Millisecond

// cpuTime returns the user+system CPU time of pid ("self" for this
// process) from /proc.
func cpuTime(pid string) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// cpu returns each process's CPU time, in procs() order.
func (s *system) cpu() ([]time.Duration, error) {
	var out []time.Duration
	for _, p := range s.procs() {
		d, err := cpuTime(strconv.Itoa(p.cmd.Process.Pid))
		if err != nil {
			return nil, fmt.Errorf("%s cpu: %w", p.name, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// peakRSS sums VmHWM (peak resident set) over the system's processes, in
// MiB.
func (s *system) peakRSS() (float64, error) {
	var kb int64
	for _, p := range s.procs() {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
				if err != nil {
					return 0, fmt.Errorf("%s VmHWM: %w", p.name, err)
				}
				kb += n
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
		}
	}
	return float64(kb) / 1024, nil
}
