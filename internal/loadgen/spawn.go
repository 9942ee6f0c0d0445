package loadgen

import (
	"bufio"
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// spawnListenRe matches phased's structured startup log line, e.g.
//
//	time=... level=INFO msg=listening addr=127.0.0.1:43445 debug_url=...
var spawnListenRe = regexp.MustCompile(`\bmsg=listening\b.*\baddr=(\S+)`)

// A Server is a child process managed by the harness for
// crash/recovery scenarios: it can be killed with SIGKILL mid-run and
// restarted on the same address and argument list, so clients reconnect
// and resume against the recovered state. Both phased nodes and the
// phasedgw gateway are spawned this way — they share the structured
// "listening" log line and the /readyz contract.
type Server struct {
	bin    string
	addr   string
	args   []string
	logger *slog.Logger

	mu       sync.Mutex
	cmd      *exec.Cmd
	listenAt time.Time // when the last start()'s listening line appeared
	readyAt  time.Time // when the last start()'s /readyz first answered 200
}

// PickAddr reserves a concrete loopback address by binding :0 and
// immediately releasing it. The spawned server is given this fixed
// address so a restart comes back where the clients are retrying.
func PickAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// SpawnServer starts a phased child at bin with the given fixed addr
// and data dir (empty runs it in memory) and waits until it is serving.
func SpawnServer(ctx context.Context, bin, addr, dataDir string, logger *slog.Logger) (*Server, error) {
	return spawn(ctx, bin, addr, []string{"-addr", addr, "-data-dir", dataDir}, logger)
}

// SpawnGateway starts a phasedgw child fronting the given phased nodes
// and waits until it is serving (its /readyz answers 200 once the
// prober has seen at least one node up).
func SpawnGateway(ctx context.Context, bin, addr string, nodes []string, logger *slog.Logger, extra ...string) (*Server, error) {
	args := append([]string{"-addr", addr, "-nodes", strings.Join(nodes, ",")}, extra...)
	return spawn(ctx, bin, addr, args, logger)
}

func spawn(ctx context.Context, bin, addr string, args []string, logger *slog.Logger) (*Server, error) {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{bin: bin, addr: addr, args: args, logger: logger}
	if err := s.start(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// Addr returns the server's fixed address.
func (s *Server) Addr() string { return s.addr }

// start launches the child and blocks until its "listening" log line
// appears and /readyz answers 200 (boot replay finished).
func (s *Server) start(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, s.bin, s.args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}

	listening := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		signaled := false
		for sc.Scan() {
			line := sc.Text()
			if !signaled && spawnListenRe.MatchString(line) {
				signaled = true
				listening <- nil
			}
		}
		if !signaled {
			listening <- fmt.Errorf("loadgen: phased exited before listening")
		}
	}()

	select {
	case err := <-listening:
		if err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			return err
		}
	case <-ctx.Done():
		cmd.Process.Kill()
		cmd.Wait()
		return ctx.Err()
	}
	listenAt := time.Now()
	if err := WaitReady(ctx, "http://"+s.addr, 30*time.Second); err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return err
	}
	s.mu.Lock()
	s.cmd = cmd
	s.listenAt = listenAt
	s.readyAt = time.Now()
	s.mu.Unlock()
	return nil
}

// Kill9 sends SIGKILL to the child and reaps it — the unclean crash
// the WAL exists for.
func (s *Server) Kill9() error {
	s.mu.Lock()
	cmd := s.cmd
	s.cmd = nil
	s.mu.Unlock()
	if cmd == nil {
		return fmt.Errorf("loadgen: no live server to kill")
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		return err
	}
	cmd.Wait()
	return nil
}

// Restart relaunches the child on the same address and data dir and
// waits for readiness (which includes WAL replay).
func (s *Server) Restart(ctx context.Context) error {
	return s.start(ctx)
}

// Stop terminates the child gracefully if possible, forcefully if not.
func (s *Server) Stop() {
	s.mu.Lock()
	cmd := s.cmd
	s.cmd = nil
	s.mu.Unlock()
	if cmd == nil {
		return
	}
	cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		<-done
	}
}

// WaitReady polls base+/readyz until it answers 200 or the budget runs
// out.
func WaitReady(ctx context.Context, base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	client := &http.Client{Timeout: 2 * time.Second}
	var last error
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Errorf("readyz: %s", resp.Status)
		} else {
			last = err
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("loadgen: server not ready after %v: %w", budget, last)
}

// KillAndRecover runs the crash scenario against a spawned server
// mid-run: SIGKILL, restart on the same address and data dir, and
// record the timings on the runner (restart and readyz durations here,
// first re-acknowledged chunk via the runner's own ack path).
func KillAndRecover(ctx context.Context, srv *Server, r *Runner) (restart, ready time.Duration, err error) {
	if err := srv.Kill9(); err != nil {
		return 0, 0, err
	}
	killed := time.Now()
	r.MarkKill(killed)
	if err := srv.Restart(ctx); err != nil {
		return 0, 0, err
	}
	srv.mu.Lock()
	restart = srv.listenAt.Sub(killed)
	ready = srv.readyAt.Sub(killed)
	srv.mu.Unlock()
	return restart, ready, nil
}
