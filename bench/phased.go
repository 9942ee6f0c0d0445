package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"opd/internal/telemetry"
)

// buildPhased compiles cmd/phased from the checkout (the working
// directory) into dir: the server exactly as the tree under test builds
// it.
func buildPhased(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "phased")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "opd/cmd/phased")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building phased: %w\n%s", err, out.String())
	}
	return bin, nil
}

var listenRe = regexp.MustCompile(`\bmsg=listening\b.*\baddr=(\S+)`)

// stderrLog scans a child's stderr for the listening line and keeps the
// tail for error messages. exec copies into it from one goroutine.
type stderrLog struct {
	mu        sync.Mutex
	partial   []byte
	tail      []string
	listening chan string
	signaled  bool
}

func (l *stderrLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partial = append(l.partial, p...)
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			break
		}
		line := string(l.partial[:i])
		l.partial = l.partial[i+1:]
		if !l.signaled {
			if m := listenRe.FindStringSubmatch(line); m != nil {
				l.signaled = true
				l.listening <- m[1]
			}
		}
		l.tail = append(l.tail, line)
		if len(l.tail) > 20 {
			l.tail = l.tail[1:]
		}
	}
	return len(p), nil
}

func (l *stderrLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.tail, "\n")
}

// A server is one phased child process.
type server struct {
	cmd    *exec.Cmd
	log    *stderrLog
	addr   string
	base   string
	exited chan struct{} // closed once Wait returned
	// execAt is when the process was started, readyAt when /readyz first
	// answered 200.
	execAt, readyAt time.Time
}

// spawnServer starts phased on a free loopback port and returns once
// /readyz answers 200 (boot replay done, when there is a data dir).
func spawnServer(ctx context.Context, bin string, args ...string) (*server, error) {
	log := &stderrLog{listening: make(chan string, 1)}
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = log
	// The server dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, log: log, exited: make(chan struct{})}
	s.execAt = time.Now()
	if err := startOnServerCPUs(cmd); err != nil {
		return nil, fmt.Errorf("starting phased: %w", err)
	}
	go func() {
		_ = cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.addr = <-log.listening:
	case <-s.exited:
		return nil, fmt.Errorf("phased exited before listening:\n%s", log)
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("phased did not listen within 30s:\n%s", log)
	case <-ctx.Done():
		s.kill()
		return nil, ctx.Err()
	}
	s.base = "http://" + s.addr
	// Poll readiness tightly: set-up time is a reported metric, so the
	// poll interval must be small against it.
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.readyAt = time.Now()
				client.CloseIdleConnections()
				return s, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			s.kill()
			return nil, fmt.Errorf("phased not ready: %v\n%s", err, log)
		}
		sleepUntil(time.Now().Add(200 * time.Microsecond))
	}
}

// kill sends SIGKILL — the unclean crash the WAL is for — and waits for
// the process to be reaped.
func (s *server) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
}

// stop shuts the server down gracefully.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.kill()
		return fmt.Errorf("phased ignored SIGTERM for 20s:\n%s", s.log)
	}
	if !s.cmd.ProcessState.Success() {
		return fmt.Errorf("phased exited with %v:\n%s", s.cmd.ProcessState, s.log)
	}
	return nil
}

// procCPU returns the CPU time the process's threads have run so far,
// in nanoseconds: the sum of each thread's /proc schedstat run time.
// (/proc/<pid>/stat counts 10ms ticks, too coarse for a window of a
// phase.)
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, errors.New("empty schedstat")
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad schedstat: %w", err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// hostSteal returns the steal time of the benchmark's CPUs so far: time
// the hypervisor ran something else while they had work (/proc/stat,
// in 10ms clock ticks, summed over startCPUs).
func hostSteal() (time.Duration, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	ours := map[int]bool{}
	for _, c := range startCPUs.cpus() {
		ours[c] = true
	}
	var ticks int64
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		cpu, err := strconv.Atoi(f[0][3:])
		if err != nil || !ours[cpu] {
			continue // the "cpu" total line, or another CPU
		}
		n, err := strconv.ParseInt(f[8], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad /proc/stat steal: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// peakRSS reads the process's resident-set high-water mark (VmHWM).
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM: %w", err)
			}
			return kb * 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (s *server) cpu() (time.Duration, error) { return procCPU(s.cmd.Process.Pid) }

// A scrape is the server's /debug/phasedet JSON snapshot, reduced to
// what the per-layer breakdown reads.
type scrape struct {
	Counters  map[string]float64
	Gauges    map[string]float64
	Latencies map[string]telemetry.LatencySummary
}

func key(name string, labels map[string]string) string {
	if v, ok := labels["stage"]; ok {
		return name + "/" + v
	}
	return name
}

func (s *server) scrape(client *http.Client) (*scrape, error) {
	resp, err := client.Get(s.base + telemetry.DebugPath + "?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding debug snapshot: %w", err)
	}
	out := &scrape{Counters: map[string]float64{}, Gauges: map[string]float64{},
		Latencies: map[string]telemetry.LatencySummary{}}
	for _, p := range snap.Counters {
		out.Counters[key(p.Name, p.Labels)] += p.Value
	}
	for _, p := range snap.Gauges {
		out.Gauges[key(p.Name, p.Labels)] += p.Value
	}
	for _, p := range snap.Latencies {
		out.Latencies[key(p.Name, p.Labels)] = p.LatencySummary
	}
	return out, nil
}

// flight fetches a session's flight recorder: its last chunk traces with
// per-stage server times.
func (s *server) flight(client *http.Client, id string) ([]telemetry.ChunkTrace, error) {
	resp, err := client.Get(s.base + "/v1/sessions/" + id + "/flight")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("flight %s: %s", id, resp.Status)
	}
	var body struct {
		Traces []telemetry.ChunkTrace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding flight: %w", err)
	}
	return body.Traces, nil
}

// copyTree copies a data dir, so each restart recovers from the same
// crashed state. The copy is synced, files and directory entries, so the
// restart timed next does not pay for writing it back.
func copyTree(dst, src string) error {
	var dirs []string
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			dirs = append(dirs, target)
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(target, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	// dst's own entry lives in its parent.
	for _, d := range append(dirs, filepath.Dir(dst)) {
		if err := syncDir(d); err != nil {
			return err
		}
	}
	return nil
}

func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
