package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"sort"
	"syscall"
	"time"

	"opd/internal/core"
	"opd/internal/sweep"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// The sweep-offline workload runs in a child process of the benchmark
// (the benchmark binary re-executed with the sweep-child subcommand), so
// its peak memory and CPU are its own.
//
// Its phases mirror the serving ones: set-up generates and interns the
// eight traces (timed at the start and after every repetition); warm-up
// sweeps the smallest trace; the nominal phase sweeps all eight traces
// on one worker — the single-threaded baseline — and the hi phase sweeps
// them on two workers, which is also the workload's saturation
// throughput. The two phases take turns repeating their sweep for as
// long as -seconds allows (sweepBudget), and each keeps the median of
// every run's repetitions: the host's speed drifts over a run by tens of
// percent within seconds (README.md), and a run's fastest repetition
// read whichever fast stretch the run happened to meet.

// paperConfigs is the paper's sweep space: CW {100, 500} × the three
// window families × both models × ten analyzers, with all four
// anchor/resize variants of the adaptive family: 240 configurations.
func paperConfigs() []core.Config {
	s := sweep.PaperSpace([]int{100, 500})
	s.AnchorResize = sweep.AllAnchorResize()
	return s.Enumerate()
}

// sweepScale is the synth scale of the swept traces.
const sweepScale = 1

// sweepBudget is how long the passes of a sweep run may take: the share
// of -seconds the serving workloads measure (all but the warm-up). On
// the reference machine a one-worker pass over the eight traces takes
// 1.5–3.5s, so at 36s a run makes 12–20 passes.
func sweepBudget(seconds float64) time.Duration {
	return time.Duration(seconds*float64(time.Second)) - phaseLen(seconds, phWarm)
}

// exitCheckFailed is the sweep child's exit code for a result that
// disagrees with its check.
const exitCheckFailed = 3

// directChecks is how many (config, trace) runs the child recomputes
// with a plain core detector over the raw trace.
const directChecks = 16

// A sweepPhaseOut is one phase's timings. Elapsed and wall times are
// each the median of the phase's repetitions.
type sweepPhaseOut struct {
	Workers     int     `json:"workers"`
	Reps        int     `json:"reps"`
	ElapsedNS   []int64 `json:"elapsed_ns"`    // per (trace, config) run
	TraceWallNS []int64 `json:"trace_wall_ns"` // per trace: RunInterned wall
	TraceRuns   []int   `json:"trace_runs"`
	CPUNS       int64   `json:"cpu_ns"`       // the child's, over all repetitions
	ConfigElems int64   `json:"config_elems"` // of one pass over the traces
}

func (o *sweepPhaseOut) wallNS() (sum int64) {
	for _, w := range o.TraceWallNS {
		sum += w
	}
	return sum
}

func (o *sweepPhaseOut) busyNS() (sum int64) {
	for _, e := range o.ElapsedNS {
		sum += e
	}
	return sum
}

type sweepResult struct {
	Scale      int           `json:"scale"`
	SetupNS    []int64       `json:"setup_ns"`  // generate + intern the traces
	InternNS   []int64       `json:"intern_ns"` // the intern part
	Nominal    sweepPhaseOut `json:"nominal"`
	Hi         sweepPhaseOut `json:"hi"`
	DirectNS   int64         `json:"direct_ns"`
	DirectEl   int64         `json:"direct_elems"`
	Digest     string        `json:"digest"`
	Runs       int           `json:"runs"`
	FailedRuns int           `json:"failed_runs"`
	Sim        int64         `json:"sim"`
	Consumed   int64         `json:"consumed"`
	PoolHits   int64         `json:"pool_hits"`
	PoolMisses int64         `json:"pool_misses"`
	PeakRSS    int64         `json:"-"`
}

func (r *run) sweepWorkload(ctx context.Context) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, exe, "sweep-child",
		"-seed", fmt.Sprint(r.seed), "-seconds", fmt.Sprint(r.seconds))
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = startOnAllCPUs(cmd)
	if err == nil {
		err = cmd.Wait()
	}
	if err != nil {
		err = fmt.Errorf("sweep child: %w\n%s", err, errb.String())
		if cmd.ProcessState != nil && cmd.ProcessState.ExitCode() == exitCheckFailed {
			return &checkError{err}
		}
		return err
	}
	var res sweepResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return fmt.Errorf("decoding sweep child output: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSS = ru.Maxrss * 1024
	}
	r.sweep = &res
	r.attempted.Add(int64(res.Runs))
	r.failed.Add(int64(res.FailedRuns))
	r.sim, r.consumed = res.Sim, res.Consumed
	if res.DirectEl > 0 {
		r.directNS = float64(res.DirectNS) / float64(res.DirectEl)
	}
	return nil
}

func medianNS(xs []int64) int64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return int64(median(f))
}

func nsToMS(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) / 1e6
	}
	return out
}

// e2e maps the sweep onto the end-to-end metrics (README.md spells out
// each mapping): a configuration's pass over one trace is the unit of
// ingest, and a trace's results arrive when its sweep returns.
func (s *sweepResult) e2e() (map[string]float64, map[string]int) {
	m := map[string]float64{}
	n := map[string]int{}
	setup := nsToMS(s.SetupNS)
	m["setup_s"] = median(setup) / 1e3
	n["setup_s"] = len(setup)
	nom, hi := nsToMS(s.Nominal.ElapsedNS), nsToMS(s.Hi.ElapsedNS)
	m["ingest_p50_ms"], m["ingest_p90_ms"] = pct(nom, 0.5), pct(nom, 0.9)
	m["ingest_p90_ms.hi"] = pct(hi, 0.9)
	n["ingest_p50_ms"], n["ingest_p90_ms"], n["ingest_p90_ms.hi"] = len(nom), len(nom), len(hi)
	var results []float64
	for i, w := range s.Hi.TraceWallNS {
		for j := 0; j < s.Hi.TraceRuns[i]; j++ {
			results = append(results, float64(w)/1e6)
		}
	}
	m["event_p50_ms"], n["event_p50_ms"] = pct(results, 0.5), len(results)
	m["max_elems_per_s"] = float64(s.Hi.ConfigElems) / (float64(s.Hi.wallNS()) / 1e9)
	n["max_elems_per_s"] = int(s.Hi.ConfigElems)
	// One worker runs one detector at a time, so its runs' elapsed time
	// is the CPU time the detection took.
	m["cpu_ns_per_elem"] = float64(s.Nominal.busyNS()) / float64(s.Nominal.ConfigElems)
	m["peak_rss_mb"] = float64(s.PeakRSS) / 1e6
	return m, n
}

func (s *sweepResult) layers(m map[string]float64) {
	m["trace.intern_ms"] = median(nsToMS(s.InternNS))
	m["core.detect_ns_per_elem"] = float64(s.Hi.busyNS()) / float64(s.Hi.ConfigElems)
	hi := nsToMS(s.Hi.ElapsedNS)
	m["sweep.pass_s"] = float64(s.Hi.wallNS()) / 1e9
	m["sweep.run_ms.p50"] = pct(hi, 0.5)
	m["sweep.run_ms.max"] = pct(hi, 1)
	m["sweep.worker_busy_ratio"] = float64(s.Hi.busyNS()) / float64(int64(s.Hi.Workers)*s.Hi.wallNS())
	if t := s.PoolHits + s.PoolMisses; t > 0 {
		m["sweep.pool_hit_ratio"] = float64(s.PoolHits) / float64(t)
	}
	m["bench.client_cpu_s"] = float64(s.Nominal.CPUNS+s.Hi.CPUNS) / 1e9
}

// sweepChild is the child process: it prints one sweepResult as JSON,
// or fails (exit 1) when any run disagrees with its check.
func sweepChild(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep-child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "run length the sweep is sized for")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := runSweep(*seed, *seconds)
	if err != nil {
		fmt.Fprintln(stderr, "sweep-offline:", err)
		if errors.As(err, new(*checkError)) {
			return exitCheckFailed
		}
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "sweep-offline:", err)
		return 1
	}
	return 0
}

func runSweep(seed uint64, seconds float64) (*sweepResult, error) {
	res := &sweepResult{Scale: sweepScale}
	names := newSplitmix(seed, "sweep-offline/order").shuffled(allNames)
	configs := paperConfigs()

	// Set-up: generate the eight traces (the synth programs stand in for
	// the profiled runs) and intern them. It is timed once here and again
	// after every sweep repetition, so its samples span the run, as the
	// serving workloads' cold starts do; only the first one's traces are
	// swept.
	setup := func() ([]trace.Trace, []*trace.Interned, error) {
		t0 := time.Now()
		ts := newTraceSet(seed, res.Scale)
		var traces []trace.Trace
		for _, n := range names {
			tr, err := ts.get(n)
			if err != nil {
				return nil, nil, err
			}
			traces = append(traces, tr)
		}
		t1 := time.Now()
		var interned []*trace.Interned
		for _, tr := range traces {
			interned = append(interned, trace.Intern(tr))
		}
		res.SetupNS = append(res.SetupNS, time.Since(t0).Nanoseconds())
		res.InternNS = append(res.InternNS, time.Since(t1).Nanoseconds())
		return traces, interned, nil
	}
	traces, interned, err := setup()
	if err != nil {
		return nil, err
	}
	smallest := 0
	for i, tr := range traces {
		if len(tr) < len(traces[smallest]) {
			smallest = i
		}
	}
	sweep.RunInterned(interned[smallest], configs, 2, nil)

	reg := telemetry.NewRegistry()
	probe := telemetry.NewSweepProbe(reg)
	var firstErr error
	// A phase's state: the first repetition's runs (every later one must
	// equal them), every repetition's time of each run, and every
	// repetition's wall time of each trace.
	type phaseRuns struct {
		out     *sweepPhaseOut
		first   [][]sweep.Run
		elapsed [][][]int64
		walls   [][]int64
		last    time.Duration // the latest pass's wall time
	}
	newPhase := func(workers int, out *sweepPhaseOut) *phaseRuns {
		out.Workers = workers
		n := len(interned)
		return &phaseRuns{out: out, first: make([][]sweep.Run, n), elapsed: make([][][]int64, n), walls: make([][]int64, n)}
	}
	// pass sweeps every trace once on the phase's workers.
	pass := func(ph *phaseRuns) {
		out, rep := ph.out, ph.out.Reps
		out.Reps++
		out.ConfigElems = 0
		cpu0, t0 := selfCPU(), time.Now()
		for i, in := range interned {
			t0 := time.Now()
			runs := sweep.RunInterned(in, configs, out.Workers, probe)
			ph.walls[i] = append(ph.walls[i], time.Since(t0).Nanoseconds())
			if rep == 0 {
				ph.first[i], ph.elapsed[i] = runs, make([][]int64, len(runs))
			}
			for c, run := range runs {
				res.Runs++
				if !run.OK() {
					res.FailedRuns++
				} else if err := sameRun(run, ph.first[i][c]); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s %s: repetition %d differs: %w", names[i], configs[c].ID(), rep, err)
				}
				ph.elapsed[i][c] = append(ph.elapsed[i][c], run.Elapsed.Nanoseconds())
			}
			out.ConfigElems += int64(len(runs)) * int64(in.Len())
		}
		out.CPUNS += (selfCPU() - cpu0).Nanoseconds()
		ph.last = time.Since(t0)
	}
	nomPh, hiPh := newPhase(1, &res.Nominal), newPhase(2, &res.Hi)
	// The phases take turns, one one-worker pass and then two two-worker
	// passes, so that both sample the host's speed over the whole run
	// (run one after the other, each phase met whatever speed its half of
	// the run had). After the first round, a pass starts only if, as long
	// as its phase's previous one, it ends within the budget.
	cycle := []*phaseRuns{nomPh, hiPh, hiPh}
	start, budget := time.Now(), sweepBudget(seconds)
	for i := 0; ; i++ {
		ph := cycle[i%len(cycle)]
		if i >= len(cycle) && time.Since(start)+ph.last > budget {
			break
		}
		pass(ph)
		if _, _, err := setup(); err != nil {
			return nil, err
		}
	}
	for _, ph := range []*phaseRuns{nomPh, hiPh} {
		for i := range ph.elapsed {
			ph.out.TraceWallNS = append(ph.out.TraceWallNS, medianNS(ph.walls[i]))
			ph.out.TraceRuns = append(ph.out.TraceRuns, len(ph.elapsed[i]))
			for _, reps := range ph.elapsed[i] {
				ph.out.ElapsedNS = append(ph.out.ElapsedNS, medianNS(reps))
			}
		}
	}
	nominal, hi := nomPh.first, hiPh.first

	for _, c := range reg.Snapshot().Counters {
		switch c.Name {
		case telemetry.MetricSweepPoolHits:
			res.PoolHits = int64(c.Value)
		case telemetry.MetricSweepPoolMisses:
			res.PoolMisses = int64(c.Value)
		}
	}
	if res.FailedRuns > 0 {
		return nil, &checkError{fmt.Errorf("%d of %d runs failed", res.FailedRuns, res.Runs)}
	}
	if firstErr != nil {
		return nil, &checkError{firstErr}
	}
	for t := range hi {
		for c := range hi[t] {
			if err := sameRun(hi[t][c], nominal[t][c]); err != nil {
				return nil, &checkError{fmt.Errorf("%s %s: two-worker run differs from one-worker run: %w", names[t], configs[c].ID(), err)}
			}
			res.Sim += hi[t][c].SimComputations
			res.Consumed += hi[t][c].Elements
		}
	}

	// Direct core runs over the raw traces, for seeded (config, trace)
	// pairs, must equal the sweep's.
	rng := newSplitmix(seed, "sweep-offline/direct")
	for i := 0; i < directChecks; i++ {
		t, c := rng.below(len(traces)), rng.below(len(configs))
		d, err := configs[c].New()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		core.RunTrace(d, traces[t])
		res.DirectNS += time.Since(t0).Nanoseconds()
		res.DirectEl += int64(len(traces[t]))
		direct := sweep.Run{Phases: d.Phases(), AdjustedPhases: d.AdjustedPhases(),
			SimComputations: d.SimilarityComputations(), Elements: d.Consumed()}
		if err := sameRun(hi[t][c], direct); err != nil {
			return nil, &checkError{fmt.Errorf("%s %s: sweep differs from a direct core run: %w", names[t], configs[c].ID(), err)}
		}
	}

	res.Digest = sweepDigest(names, hi)
	if err := checkGolden(seed, res.Scale, res.Digest); err != nil {
		return nil, err
	}
	return res, nil
}

func sameRun(a, b sweep.Run) error {
	switch {
	case a.SimComputations != b.SimComputations:
		return fmt.Errorf("sim computations %d vs %d", a.SimComputations, b.SimComputations)
	case a.Elements != b.Elements:
		return fmt.Errorf("elements %d vs %d", a.Elements, b.Elements)
	case !sameIntervals(a.Phases, b.Phases):
		return fmt.Errorf("phases differ")
	case !sameIntervals(a.AdjustedPhases, b.AdjustedPhases):
		return fmt.Errorf("adjusted phases differ")
	}
	return nil
}

// sweepDigest hashes every run's results in trace-name order, so it does
// not depend on the seeded trace order.
func sweepDigest(names []string, runs [][]sweep.Run) string {
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return names[order[i]] < names[order[j]] })
	h := fnv.New64a()
	for _, t := range order {
		for _, run := range runs[t] {
			fmt.Fprintf(h, "%s|%s|%d|%d|%v|%v\n", names[t], run.Config.ID(), run.Elements,
				run.SimComputations, run.Phases, run.AdjustedPhases)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenFile holds the checked-in digest of the sweep's results for
// one seed: any change to what a configuration detects on these inputs
// fails that seed's run.
const goldenFile = "bench/sweep_golden.json"

func checkGolden(seed uint64, scale int, digest string) error {
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		return err
	}
	var golden struct {
		Seed   uint64 `json:"seed"`
		Scale  int    `json:"scale"`
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		return fmt.Errorf("%s: %w", goldenFile, err)
	}
	if seed == golden.Seed && scale == golden.Scale && digest != golden.Digest {
		return &checkError{fmt.Errorf("sweep digest %s, golden %s (seed %d, scale %d)", digest, golden.Digest, seed, scale)}
	}
	return nil
}
