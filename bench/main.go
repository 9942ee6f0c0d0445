// Command bench is the repository's benchmark: it builds cmd/phased from
// the checkout, drives it over the public client API on four workloads
// (README.md gives each one's reason), checks every result against an
// offline reference, and prints each metric by name with its unit.
//
//	bash bench/run.sh --workload stream-ids --seed 1 --seconds 36 --trace 0
//	bash bench/run.sh compare base/*.json -- change/*.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer ones with --trace 1. The full report (every
// metric, sample counts, validity, environment stamp) is written under
// .bench_build/results/ in the checkout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		case "sweep-child":
			return sweepChild(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", 36, "measured seconds: the phases split this")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "bench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	root, err := checkoutRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep, err := benchmark(context.Background(), root, w, *seed, *seconds, *traceFlag == 1)
	if err != nil && rep == nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if path, werr := rep.save(filepath.Join(root, ".bench_build", "results")); werr != nil {
		fmt.Fprintln(stderr, "bench: saving report:", werr)
	} else {
		fmt.Fprintln(stderr, "report:", path)
	}
	rep.print(stderr)
	line, _ := json.Marshal(rep.line())
	fmt.Fprintln(stdout, string(line))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if len(rep.Invalid) > 0 {
		// An overloaded host makes a run invalid without anything in it
		// failing; the run still ends normally, marked invalid in its
		// report, and compare refuses it.
		fmt.Fprintln(stderr, "bench: run invalid:", strings.Join(rep.Invalid, "; "))
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// checkoutRoot is the working directory, which must be the root of a
// checkout of the program under test (run.sh runs the benchmark there).
func checkoutRoot() (string, error) {
	root, err := filepath.Abs(".")
	if err != nil {
		return "", err
	}
	for _, p := range []string{"go.mod", filepath.Join("cmd", "phased")} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return "", fmt.Errorf("%s is not a checkout of the program: %w", root, err)
		}
	}
	return root, nil
}

// A checkError is a result that disagrees with its reference.
type checkError struct{ err error }

func (e *checkError) Error() string { return "correctness check failed: " + e.err.Error() }
func (e *checkError) Unwrap() error { return e.err }

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A report is everything one run measured.
type report struct {
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Traced    bool                 `json:"traced"`
	Env       envStamp             `json:"env"`
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Invalid   []string             `json:"invalid,omitempty"`
	Notes     []string             `json:"notes,omitempty"`
	Error     string               `json:"error,omitempty"`
	RatesCPS  [2]float64           `json:"rates_chunks_per_s,omitempty"`
	PhasesS   [numPhases]float64   `json:"phase_seconds"`
	E2E       map[string]float64   `json:"e2e"`
	Samples   map[string]int       `json:"samples"`
	Layers    map[string]float64   `json:"layers,omitempty"`
	Spans     string               `json:"spans,omitempty"`
	Windows   map[string][]float64 `json:"windows,omitempty"`
	// Utilization is the CPU time per wall second of each phase, of the
	// server and of the benchmark process.
	Utilization map[string][2]float64 `json:"utilization,omitempty"`
	// SetupRuns is every cold start's set-up time, in seconds.
	SetupRuns []float64 `json:"setup_runs,omitempty"`
}

func benchmark(ctx context.Context, root string, w workload, seed uint64, seconds float64, traced bool) (*report, error) {
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	r, err := newRun(w, seed, seconds, traced, buildDir)
	if err != nil {
		return nil, err
	}
	defer r.cleanup()
	t0 := time.Now()
	err = r.execute(ctx, buildDir)
	var ce *checkError
	if err != nil && !errors.As(err, &ce) {
		return nil, err
	}
	rep := &report{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		Env:       stampEnv(root, r.work),
		Correct:   err == nil,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		RatesCPS:  [2]float64{w.nominal, w.hi},
	}
	if rep.Attempted == 0 {
		rep.Attempted = 1
	}
	for p := phWarm; p < numPhases; p++ {
		rep.PhasesS[p] = phaseLen(seconds, p).Seconds()
	}
	if err != nil {
		rep.Error = err.Error()
		return rep, err
	}
	rep.E2E, rep.Samples, rep.Windows, rep.Invalid = r.e2e()
	for _, d := range r.setup {
		rep.SetupRuns = append(rep.SetupRuns, d.Seconds())
	}
	if r.sweep != nil {
		for _, d := range r.sweep.SetupNS {
			rep.SetupRuns = append(rep.SetupRuns, float64(d)/1e9)
		}
	}
	if r.segs != nil {
		rep.Utilization = r.utilization()
	}
	if traced {
		var invalid []string
		rep.Layers, rep.Notes, invalid = r.layers(rep.E2E)
		rep.Invalid = append(rep.Invalid, invalid...)
		if rep.Spans, err = r.writeSpans(filepath.Join(buildDir, "results"), t0); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// line is the result object the last stdout line carries.
func (rep *report) line() any {
	metrics := map[string]metricVal{}
	if rep.Correct {
		defs, vals := e2eMetrics, rep.E2E
		if rep.Traced {
			defs, vals = layerMetrics, rep.Layers
		}
		for _, d := range defs {
			metrics[d.name] = metricVal{Value: vals[d.name], Unit: d.unit}
		}
	}
	return struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics}
}

func (rep *report) save(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	trace := 0
	if rep.Traced {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, trace))
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// print renders the report for a person reading standard error.
func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "%s seed %d: correct=%v attempted=%d failed=%d  [%d×%s, go %s, %s]\n",
		rep.Workload, rep.Seed, rep.Correct, rep.Attempted, rep.Failed,
		rep.Env.NumCPU, rep.Env.CPUModel, rep.Env.GoVersion, rep.Env.DataFS)
	for _, d := range append(e2eMetrics[:len(e2eMetrics):len(e2eMetrics)], unboundedMetrics...) {
		if v, ok := rep.E2E[d.name]; ok {
			fmt.Fprintf(w, "  %-22s %14.6g %-5s n=%d\n", d.name, v, d.unit, rep.Samples[d.name])
		}
	}
	names := make([]string, 0, len(rep.Layers))
	for k := range rep.Layers {
		names = append(names, k)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range append(layerMetrics[:len(layerMetrics):len(layerMetrics)], sweepLayerMetrics...) {
		units[d.name] = d.unit
	}
	for _, k := range names {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", k, rep.Layers[k], units[k])
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
}
