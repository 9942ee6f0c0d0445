package opd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"opd/internal/trace"
)

// listenAddrRe matches phased's structured startup log line, e.g.
//
//	time=... level=INFO msg=listening addr=127.0.0.1:43445 debug_url=...
var listenAddrRe = regexp.MustCompile(`\bmsg=listening\b.*\baddr=(\S+)`)

// listenAddr extracts the listen address from a phased log line, if the
// line is the startup announcement.
func listenAddr(line string) (string, bool) {
	m := listenAddrRe.FindStringSubmatch(line)
	if m == nil {
		return "", false
	}
	return m[1], true
}

// buildCmds compiles the repository's executables once per test run and
// returns the directory holding them.
func buildCmds(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"tracegen", "baseline", "detect", "phasebench", "vmrun", "phased", "phasedgw", "loadgen"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
	}
	return dir
}

func runCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the executables")
	}
	bins := buildCmds(t)
	prefix := filepath.Join(t.TempDir(), "jlex")

	// tracegen: list, stats, and trace emission.
	listOut := runCmd(t, filepath.Join(bins, "tracegen"), "-list")
	for _, b := range []string{"compress", "mpegaudio", "jlex"} {
		if !strings.Contains(listOut, b) {
			t.Errorf("tracegen -list missing %s:\n%s", b, listOut)
		}
	}
	genOut := runCmd(t, filepath.Join(bins, "tracegen"),
		"-bench", "jlex", "-scale", "2", "-out", prefix, "-stats")
	if !strings.Contains(genOut, "dynamic branches") || !strings.Contains(genOut, "wrote") {
		t.Errorf("tracegen output:\n%s", genOut)
	}
	if _, err := os.Stat(prefix + ".branches"); err != nil {
		t.Fatal(err)
	}

	// baseline: phase table over the generated trace.
	baseOut := runCmd(t, filepath.Join(bins, "baseline"),
		"-trace", prefix, "-mpl", "500,1000", "-phases")
	if !strings.Contains(baseOut, "# phases") || !strings.Contains(baseOut, "phase   0") {
		t.Errorf("baseline output:\n%s", baseOut)
	}
	crisOut := runCmd(t, filepath.Join(bins, "baseline"),
		"-trace", prefix, "-mpl", "1000", "-cris")
	if !strings.Contains(crisOut, "loop") {
		t.Errorf("baseline -cris output:\n%s", crisOut)
	}
	hierOut := runCmd(t, filepath.Join(bins, "baseline"),
		"-trace", prefix, "-mpl", "1000", "-hierarchy")
	if !strings.Contains(hierOut, "loop id=") {
		t.Errorf("baseline -hierarchy output:\n%s", hierOut)
	}

	// detect: framework config and every preset, scored against the oracle.
	detOut := runCmd(t, filepath.Join(bins, "detect"),
		"-trace", prefix, "-cw", "500", "-policy", "adaptive", "-mpl", "1000", "-phases")
	for _, want := range []string{"adaptive/cw500", "phases detected", "score=", "oracle phases"} {
		if !strings.Contains(detOut, want) {
			t.Errorf("detect output missing %q:\n%s", want, detOut)
		}
	}
	for _, preset := range []string{"dhodapkar", "lu", "das"} {
		out := runCmd(t, filepath.Join(bins, "detect"),
			"-trace", prefix, "-preset", preset, "-cw", "500", "-mpl", "1000")
		if !strings.Contains(out, "score=") {
			t.Errorf("detect -preset %s output:\n%s", preset, out)
		}
	}
	// The similarity distribution's count is the similarity-computation
	// count the detector reports.
	dasTel := runCmd(t, filepath.Join(bins, "detect"),
		"-trace", prefix, "-preset", "das", "-cw", "500", "-telemetry-dump")
	requireLines(t, "detect -preset das -telemetry-dump", dasTel,
		`similarity computes:\s+28`,
		`opd_detector_similarity_ppm\{detector="das/window500/pearson0\.6"\}\s+count=28 .*`)

	// phasebench: the cheapest experiments at the smallest scale.
	pbOut := runCmd(t, filepath.Join(bins, "phasebench"),
		"-scale", "1", "-benchmarks", "jlex,db", "-exp", "table1b")
	if !strings.Contains(pbOut, "Table 1(b)") || !strings.Contains(pbOut, "jlex") {
		t.Errorf("phasebench output:\n%s", pbOut)
	}
	jsonOut := runCmd(t, filepath.Join(bins, "phasebench"),
		"-scale", "1", "-benchmarks", "jlex", "-exp", "table1a", "-json")
	if !strings.Contains(jsonOut, `"DynamicBranches"`) {
		t.Errorf("phasebench -json output:\n%s", jsonOut)
	}

	// vmrun: assemble, optimize, and execute the matrix-multiply sample.
	vmOut := runCmd(t, filepath.Join(bins, "vmrun"), "-optimize", "testdata/matmul.asm")
	if !strings.Contains(vmOut, "executed: 722 dynamic branches") {
		t.Errorf("vmrun output:\n%s", vmOut)
	}
	// C[0][0] = sum_k A[0k]*B[k0] with A[i]=3i+1, B[i]=i^5: spot-check one
	// output cell of the multiply.
	if !strings.Contains(vmOut, " 4044 ") {
		t.Errorf("vmrun result missing C[0][0]=4044:\n%s", vmOut)
	}
	vmDetect := runCmd(t, filepath.Join(bins, "vmrun"), "-detect", "-cw", "50", "testdata/matmul.asm")
	if !strings.Contains(vmDetect, "phases:") {
		t.Errorf("vmrun -detect output:\n%s", vmDetect)
	}
	vmCFG := runCmd(t, filepath.Join(bins, "vmrun"), "-cfg", "-inline", "testdata/matmul.asm")
	if !strings.Contains(vmCFG, "natural") && !strings.Contains(vmCFG, "loop: header") {
		t.Errorf("vmrun -cfg output:\n%s", vmCFG)
	}
	if !strings.Contains(vmCFG, "executed: 722 dynamic branches") {
		t.Errorf("vmrun -inline changed semantics:\n%s", vmCFG)
	}
	// The recurring-phase workload is deterministic: 80 phases of 2
	// behaviours, 2 compiles and 78 reuses.
	vmTel := runCmd(t, filepath.Join(bins, "vmrun"),
		"-jit", "-cw", "2000", "-telemetry-dump", "testdata/phases.asm")
	requireLines(t, "vmrun -jit -telemetry-dump", vmTel,
		`opd_vm_branches_total\{mode="interpreted"\}\s+3200121`,
		`opd_jit_compiles_total\s+2`,
		`opd_jit_guard_hits_total\s+78`,
		`opd_jit_behaviours\s+2`,
		`opd_detector_phase_length_elements\{detector="[^"]+"\}\s+count=80 .*`,
		`#\d+\s+phase_start\s+src=.*`)
}

// requireLines fails the test unless every pattern matches a whole line
// of out.
func requireLines(t *testing.T, what, out string, patterns ...string) {
	t.Helper()
	for _, p := range patterns {
		if !regexp.MustCompile(`(?m)^` + p + `$`).MatchString(out) {
			t.Errorf("%s: no line matches %s:\n%s", what, p, out)
		}
	}
}

// phasePattern matches one detected-phase line of `detect -phases`:
//
//	phase   0: [1200,4800) (len 3600)
var phasePattern = regexp.MustCompile(`phase\s+\d+: \[(\d+),(\d+)\) \(len \d+\)`)

// TestPhasedServerE2E exercises the streaming server end to end as a
// black box: a tracegen workload streamed to a phased process in uneven
// chunks must yield exactly the phases the offline detect command finds,
// and SIGTERM must shut the server down cleanly while a session with an
// open phase is still live.
func TestPhasedServerE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the executables")
	}
	bins := buildCmds(t)
	prefix := filepath.Join(t.TempDir(), "jlex")
	runCmd(t, filepath.Join(bins, "tracegen"), "-bench", "jlex", "-scale", "2", "-out", prefix)

	// The offline ground truth: anchor-corrected phases from cmd/detect.
	detOut := runCmd(t, filepath.Join(bins, "detect"),
		"-trace", prefix, "-cw", "500", "-policy", "adaptive", "-phases", "-adjusted")
	wantPhases := phasePattern.FindAllStringSubmatch(detOut, -1)
	if len(wantPhases) == 0 {
		t.Fatalf("detect found no phases:\n%s", detOut)
	}

	// Start phased on an ephemeral port and wait for its listen line.
	srv := exec.Command(filepath.Join(bins, "phased"), "-addr", "127.0.0.1:0")
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()
	var logMu sync.Mutex
	var logBuf bytes.Buffer
	logs := func() string {
		logMu.Lock()
		defer logMu.Unlock()
		return logBuf.String()
	}
	addrCh := make(chan string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			logMu.Lock()
			logBuf.WriteString(line + "\n")
			logMu.Unlock()
			if addr, ok := listenAddr(line); ok {
				addrCh <- addr
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("phased did not report a listen address")
	}

	// Load the trace the server will be fed.
	f, err := os.Open(prefix + ".branches")
	if err != nil {
		t.Fatal(err)
	}
	branches, err := trace.ReadBranches(bufio.NewReader(f))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Open a session with the same configuration as the detect run.
	resp, err := http.Post(base+"/v1/sessions", "application/json",
		strings.NewReader(`{"cw":500,"policy":"adaptive"}`))
	if err != nil {
		t.Fatal(err)
	}
	var opened struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&opened); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || opened.ID == "" {
		t.Fatalf("open session: status %d id %q", resp.StatusCode, opened.ID)
	}

	// Stream the trace in uneven chunks, each a self-contained binary
	// trace message.
	sizes := []int{1, 997, 4096, 13, 2048, 65536}
	for i, k := 0, 0; i < len(branches); k++ {
		end := i + sizes[k%len(sizes)]
		if end > len(branches) {
			end = len(branches)
		}
		var buf bytes.Buffer
		if err := trace.WriteBranches(&buf, branches[i:end]); err != nil {
			t.Fatal(err)
		}
		cresp, err := http.Post(base+"/v1/sessions/"+opened.ID+"/elements",
			"application/octet-stream", &buf)
		if err != nil {
			t.Fatal(err)
		}
		cresp.Body.Close()
		if cresp.StatusCode != http.StatusOK {
			t.Fatalf("chunk at %d: status %d", i, cresp.StatusCode)
		}
		i = end
	}

	// Close the session; its summary must match the offline phases.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+opened.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Consumed       int64 `json:"consumed"`
		AdjustedPhases []struct {
			Start int64 `json:"start"`
			End   int64 `json:"end"`
		} `json:"adjusted_phases"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if sum.Consumed != int64(len(branches)) {
		t.Errorf("consumed %d, want %d", sum.Consumed, len(branches))
	}
	if len(sum.AdjustedPhases) != len(wantPhases) {
		t.Fatalf("streamed %d phases, detect found %d:\n%s\nphased log:\n%s",
			len(sum.AdjustedPhases), len(wantPhases), detOut, logs())
	}
	for i, p := range sum.AdjustedPhases {
		want := fmt.Sprintf("[%s,%s)", wantPhases[i][1], wantPhases[i][2])
		if got := fmt.Sprintf("[%d,%d)", p.Start, p.End); got != want {
			t.Errorf("phase %d: streamed %s, detect %s", i, got, want)
		}
	}

	// Leave a session with an open phase live, then SIGTERM: the server
	// must flush it and exit cleanly.
	resp2, err := http.Post(base+"/v1/sessions", "application/json",
		strings.NewReader(`{"cw":500}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&opened); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	var buf bytes.Buffer
	if err := trace.WriteBranches(&buf, branches[:4000]); err != nil {
		t.Fatal(err)
	}
	cresp, err := http.Post(base+"/v1/sessions/"+opened.ID+"/elements",
		"application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()

	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Drain stderr to EOF before Wait closes the pipe, or the
		// final log lines race with the scanner and get lost.
		<-scanDone
		done <- srv.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("phased exited uncleanly: %v\nlog:\n%s", err, logs())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("phased did not exit on SIGTERM\nlog:\n%s", logs())
	}
	if !strings.Contains(logs(), "flushing open sessions") {
		t.Errorf("phased log missing graceful-shutdown line:\n%s", logs())
	}
}

// phasedProc is one phased process started by startPhased.
type phasedProc struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	logs     func() string
	scanDone chan struct{} // closed when the stderr scanner hits EOF
}

// wait drains stderr to EOF, then reaps the process. Calling cmd.Wait
// directly would close the pipe under the scanner and lose final lines.
func (p *phasedProc) wait() error {
	<-p.scanDone
	return p.cmd.Wait()
}

// startPhased launches a phased binary, waits for its listen line, and
// then polls /readyz until the server admits traffic (a durable server
// 503s while it replays its data dir).
func startPhased(t *testing.T, bin string, args ...string) *phasedProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	var logMu sync.Mutex
	var logBuf bytes.Buffer
	logs := func() string {
		logMu.Lock()
		defer logMu.Unlock()
		return logBuf.String()
	}
	addrCh := make(chan string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			logMu.Lock()
			logBuf.WriteString(line + "\n")
			logMu.Unlock()
			if addr, ok := listenAddr(line); ok {
				addrCh <- addr
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatalf("phased did not report a listen address\nlog:\n%s", logs())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("phased never became ready\nlog:\n%s", logs())
		}
		time.Sleep(20 * time.Millisecond)
	}
	return &phasedProc{cmd: cmd, base: base, logs: logs, scanDone: scanDone}
}

// sendChunk posts one element chunk, asserting HTTP 200.
func sendChunk(t *testing.T, base, id string, elems trace.Trace) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBranches(&buf, elems); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sessions/"+id+"/elements",
		"application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunk: status %d", resp.StatusCode)
	}
}

// TestPhasedCrashRecoveryE2E is the black-box durability proof: a phased
// process with a data dir is SIGKILLed mid-stream, a fresh process over
// the same directory replays the session (answering 503 on /readyz until
// it is ready), the client finishes the stream against the new process,
// and the final phases are exactly what the offline detect command finds
// for the uninterrupted trace.
func TestPhasedCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the executables")
	}
	bins := buildCmds(t)
	prefix := filepath.Join(t.TempDir(), "jlex")
	runCmd(t, filepath.Join(bins, "tracegen"), "-bench", "jlex", "-scale", "2", "-out", prefix)
	detOut := runCmd(t, filepath.Join(bins, "detect"),
		"-trace", prefix, "-cw", "500", "-policy", "adaptive", "-phases", "-adjusted")
	wantPhases := phasePattern.FindAllStringSubmatch(detOut, -1)
	if len(wantPhases) == 0 {
		t.Fatalf("detect found no phases:\n%s", detOut)
	}
	f, err := os.Open(prefix + ".branches")
	if err != nil {
		t.Fatal(err)
	}
	branches, err := trace.ReadBranches(bufio.NewReader(f))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	dataDir := filepath.Join(t.TempDir(), "phased-data")
	durableArgs := []string{"-data-dir", dataDir, "-fsync", "always", "-snapshot-every", "8"}
	p1 := startPhased(t, filepath.Join(bins, "phased"), durableArgs...)

	resp, err := http.Post(p1.base+"/v1/sessions", "application/json",
		strings.NewReader(`{"cw":500,"policy":"adaptive"}`))
	if err != nil {
		t.Fatal(err)
	}
	var opened struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&opened); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || opened.ID == "" {
		t.Fatalf("open session: status %d id %q", resp.StatusCode, opened.ID)
	}

	// Stream the first half in uneven chunks, then kill -9 the server.
	sizes := []int{997, 13, 4096, 1, 2048, 8192}
	half := len(branches) / 2
	for i, k := 0, 0; i < half; k++ {
		end := i + sizes[k%len(sizes)]
		if end > half {
			end = half
		}
		sendChunk(t, p1.base, opened.ID, branches[i:end])
		i = end
	}
	if err := p1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = p1.wait()

	// A fresh process over the same data dir replays the session: every
	// acknowledged chunk survives (fsync=always), so the client simply
	// resumes where it stopped.
	p2 := startPhased(t, filepath.Join(bins, "phased"), durableArgs...)
	if !strings.Contains(p2.logs(), "msg=ready recovered=1") {
		t.Fatalf("restarted phased did not recover the session\nlog:\n%s", p2.logs())
	}
	sresp, err := http.Get(p2.base + "/v1/sessions/" + opened.ID)
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("recovered session status: %d", sresp.StatusCode)
	}
	for i, k := half, 0; i < len(branches); k++ {
		end := i + sizes[k%len(sizes)]
		if end > len(branches) {
			end = len(branches)
		}
		sendChunk(t, p2.base, opened.ID, branches[i:end])
		i = end
	}

	// Close: the resumed session's phases must equal the offline detect.
	req, _ := http.NewRequest(http.MethodDelete, p2.base+"/v1/sessions/"+opened.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Consumed       int64 `json:"consumed"`
		AdjustedPhases []struct {
			Start int64 `json:"start"`
			End   int64 `json:"end"`
		} `json:"adjusted_phases"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if sum.Consumed != int64(len(branches)) {
		t.Errorf("consumed %d, want %d", sum.Consumed, len(branches))
	}
	if len(sum.AdjustedPhases) != len(wantPhases) {
		t.Fatalf("recovered session: %d phases, detect found %d:\n%s\nphased log:\n%s",
			len(sum.AdjustedPhases), len(wantPhases), detOut, p2.logs())
	}
	for i, p := range sum.AdjustedPhases {
		want := fmt.Sprintf("[%s,%s)", wantPhases[i][1], wantPhases[i][2])
		if got := fmt.Sprintf("[%d,%d)", p.Start, p.End); got != want {
			t.Errorf("phase %d: recovered %s, detect %s", i, got, want)
		}
	}

	// Graceful durable shutdown persists rather than flushes.
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p2.wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("phased exited uncleanly: %v\nlog:\n%s", err, p2.logs())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("phased did not exit on SIGTERM\nlog:\n%s", p2.logs())
	}
	if !strings.Contains(p2.logs(), "persisting open sessions") {
		t.Errorf("phased log missing durable-shutdown line:\n%s", p2.logs())
	}
}

// TestLoadgenFlagValidation pins cmd/loadgen's boot contract, matching
// phased's conventions: nonsense flags are a clear exit-2 with a
// "loadgen:" diagnostic, never a harness that silently does nothing.
func TestLoadgenFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the executables")
	}
	bins := buildCmds(t)
	bin := filepath.Join(bins, "loadgen")

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no target", []string{}, "need a target"},
		{"both targets", []string{"-addr", "x:1", "-phased-bin", "y"}, "mutually exclusive"},
		{"positional junk", []string{"-addr", "x:1", "junk"}, "unexpected argument"},
		{"bad sessions", []string{"-addr", "x:1", "-sessions", "0"}, "sessions"},
		{"bad ramp", []string{"-addr", "x:1", "-start-rps", "5", "-target-rps", "2"}, "below start"},
		{"bad chunks", []string{"-addr", "x:1", "-chunk-min", "10", "-chunk-max", "5"}, "chunk size range"},
		{"bad mix", []string{"-addr", "x:1", "-mix", "nosuch=1"}, "unknown benchmark"},
		{"bad protocol", []string{"-addr", "x:1", "-protocols", "carrier-pigeon"}, "unknown protocol"},
		{"kill without bin", []string{"-addr", "x:1", "-kill-after", "5s"}, "-kill-after needs -phased-bin"},
		{"kill past end", []string{"-phased-bin", "y", "-kill-after", "40s", "-duration", "30s"}, "must fall inside"},
		{"data dir without bin", []string{"-addr", "x:1", "-data-dir", "d"}, "-data-dir needs -phased-bin"},
		{"data dir with gateway", []string{"-phased-bin", "y", "-gateway-bin", "z", "-data-dir", "d"}, "-data-dir does not apply with -gateway-bin"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Fatalf("loadgen %v: err %v, want exit 2\n%s", tc.args, err, out)
			}
			if !strings.Contains(string(out), "loadgen: "+tc.want) &&
				!strings.Contains(string(out), tc.want) {
				t.Fatalf("loadgen %v diagnostic missing %q:\n%s", tc.args, tc.want, out)
			}
		})
	}
}

// TestLoadgenE2E drives the smallest real harness run: loadgen against
// a phased process over every protocol, with a JSON report that has to
// add up.
func TestLoadgenE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the executables")
	}
	bins := buildCmds(t)
	p := startPhased(t, filepath.Join(bins, "phased"))

	jsonPath := filepath.Join(t.TempDir(), "loadgen.json")
	out, err := exec.Command(filepath.Join(bins, "loadgen"),
		"-addr", strings.TrimPrefix(p.base, "http://"),
		"-sessions", "6", "-start-rps", "6", "-duration", "2s",
		"-chunk-min", "64", "-chunk-max", "256", "-scale", "1",
		"-mix", "jlex,jess", "-protocols", "stream=2,post=1,poll=1",
		"-json", jsonPath,
	).CombinedOutput()
	if err != nil {
		t.Fatalf("loadgen: %v\n%s", err, out)
	}
	for _, want := range []string{"sessions:", "ingest:", "latency:", "errors:    none"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("loadgen report missing %q:\n%s", want, out)
		}
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		GoVersion string `json:"go_version"`
		Runs      []struct {
			Name   string `json:"name"`
			Ingest struct {
				Chunks   int64 `json:"chunks"`
				Elements int64 `json:"elements"`
			} `json:"ingest"`
			Sessions struct {
				Opened    int64 `json:"opened"`
				Completed int64 `json:"completed"`
			} `json:"sessions"`
			Errors struct {
				Unexpected int64 `json:"unexpected"`
			} `json:"errors"`
			Server map[string]float64 `json:"server"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatalf("loadgen -json: %v\n%s", err, data)
	}
	if bench.GoVersion == "" || len(bench.Runs) != 1 {
		t.Fatalf("loadgen -json shape: %s", data)
	}
	run := bench.Runs[0]
	if run.Ingest.Chunks == 0 || run.Sessions.Opened < 6 || run.Sessions.Completed == 0 {
		t.Fatalf("no throughput in the loadgen -json report: %s", data)
	}
	if run.Errors.Unexpected != 0 {
		t.Fatalf("unexpected errors: %s", data)
	}
	if got := run.Server["opd_serve_ingest_elements_total"]; got != float64(run.Ingest.Elements) {
		t.Fatalf("server counted %.0f elements, harness counted %d", got, run.Ingest.Elements)
	}
}

// TestLoadgenSpawnKill runs loadgen's two spawn modes with a kill -9
// mid-run: one durable node on -data-dir, killed and restarted, and a
// three-node fleet behind a spawned gateway, with node 1 left down. What
// the cluster run reports about recovery depends on which node each
// session hashes to, so it is only checked for the kill itself.
func TestLoadgenSpawnKill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the executables")
	}
	bins := buildCmds(t)
	phased := filepath.Join(bins, "phased")

	type recovery struct {
		KilledAtNS int64 `json:"killed_at_ns"`
		ReadyNS    int64 `json:"ready_ns"`
		IngestNS   int64 `json:"ingest_recovery_ns"`
	}
	run := func(t *testing.T, args ...string) recovery {
		t.Helper()
		jsonPath := filepath.Join(t.TempDir(), "loadgen.json")
		args = append(args, "-sessions", "6", "-start-rps", "4", "-scale", "1",
			"-chunk-min", "64", "-chunk-max", "256", "-mix", "jlex,jess", "-json", jsonPath)
		out, err := exec.Command(filepath.Join(bins, "loadgen"), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("loadgen %v: %v\n%s", args, err, out)
		}
		for _, want := range []string{"kill -9:", "errors:    none"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("loadgen report missing %q:\n%s", want, out)
			}
		}
		data, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		var report struct {
			Runs []struct {
				Errors struct {
					Unexpected int64 `json:"unexpected"`
				} `json:"errors"`
				Recovery *recovery `json:"recovery"`
			} `json:"runs"`
		}
		if err := json.Unmarshal(data, &report); err != nil || len(report.Runs) != 1 {
			t.Fatalf("loadgen -json: %v\n%s", err, data)
		}
		got := report.Runs[0]
		if got.Errors.Unexpected != 0 {
			t.Errorf("unexpected errors: %s", data)
		}
		if got.Recovery == nil || got.Recovery.KilledAtNS <= 0 {
			t.Fatalf("no kill recorded: %s", data)
		}
		return *got.Recovery
	}

	t.Run("node", func(t *testing.T) {
		dataDir := t.TempDir()
		rec := run(t, "-phased-bin", phased, "-data-dir", dataDir, "-kill-after", "1s", "-duration", "3s")
		if rec.ReadyNS <= 0 || rec.IngestNS <= 0 {
			t.Errorf("recovery clocks not set: %+v", rec)
		}
		if _, err := os.Stat(filepath.Join(dataDir, "sessions")); err != nil {
			t.Errorf("the spawned server did not persist into -data-dir: %v", err)
		}
	})
	t.Run("cluster", func(t *testing.T) {
		run(t, "-phased-bin", phased, "-gateway-bin", filepath.Join(bins, "phasedgw"),
			"-kill-after", "1500ms", "-duration", "4s", "-protocols", "stream")
	})
}
