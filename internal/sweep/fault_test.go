package sweep

import (
	"context"
	"errors"
	"testing"
	"time"

	"opd/internal/core"
	"opd/internal/faultinject"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// chaosBuilder returns an Options.NewDetector that builds the config at
// the target index with its model wrapped by wrap, and every other config
// normally. The wrapped detector goes through the interface-dispatch
// model path, which the engine equivalence tests pin to the fast path.
func chaosBuilder(configs []core.Config, target int, wrap func(core.Model) core.Model) func(core.Config, *core.SweepPool) (*core.Detector, error) {
	targetCfg := configs[target]
	return func(cfg core.Config, pool *core.SweepPool) (*core.Detector, error) {
		if cfg != targetCfg {
			return cfg.NewPooled(pool)
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		model := core.NewSetModel(cfg.Model, cfg.CWSize, cfg.TWSize, cfg.TW, cfg.Anchor, cfg.Resize)
		var an core.Analyzer
		if cfg.Analyzer == core.ThresholdAnalyzer {
			an = core.NewThreshold(cfg.Param)
		} else {
			an = core.NewAverage(cfg.Param)
		}
		return core.NewDetector(wrap(model), an, cfg.SkipFactor), nil
	}
}

// all240 enumerates the full paper space with every anchoring variant:
// 240 configurations, the scale the acceptance criterion names.
func all240() []core.Config {
	s := PaperSpace([]int{20, 50})
	s.AnchorResize = AllAnchorResize()
	return s.Enumerate()
}

func requireSameRun(t *testing.T, id string, got, want Run) {
	t.Helper()
	if got.SimComputations != want.SimComputations {
		t.Fatalf("%s: %d vs %d similarity computations", id, got.SimComputations, want.SimComputations)
	}
	if len(got.Phases) != len(want.Phases) || len(got.AdjustedPhases) != len(want.AdjustedPhases) {
		t.Fatalf("%s: phase counts diverge", id)
	}
	for j := range want.Phases {
		if got.Phases[j] != want.Phases[j] {
			t.Fatalf("%s: phase %d: %v vs %v", id, j, got.Phases[j], want.Phases[j])
		}
	}
	for j := range want.AdjustedPhases {
		if got.AdjustedPhases[j] != want.AdjustedPhases[j] {
			t.Fatalf("%s: adjusted phase %d diverges", id, j)
		}
	}
}

// TestPanicIsolatedToOneRun injects a panicking model into one
// configuration of a 240-config sweep: that Run must carry a *PanicError
// and the other 239 must complete bit-identical to a clean sweep.
func TestPanicIsolatedToOneRun(t *testing.T) {
	tr := noisyTrace(3000)
	in := trace.Intern(tr)
	configs := all240()
	clean := RunInterned(in, configs, 0, nil)

	const target = 117
	reg := telemetry.NewRegistry()
	probe := telemetry.NewSweepProbe(reg)
	faulty, err := RunInternedContext(context.Background(), in, configs, Options{
		Probe: probe,
		NewDetector: chaosBuilder(configs, target, func(m core.Model) core.Model {
			return faultinject.NewPanicModel(m, 3, "injected fault")
		}),
	})
	if err != nil {
		t.Fatalf("sweep error: %v", err)
	}
	if len(faulty) != len(configs) {
		t.Fatalf("got %d runs, want %d", len(faulty), len(configs))
	}
	var pe *PanicError
	if !errors.As(faulty[target].Err, &pe) {
		t.Fatalf("target run err = %v, want *PanicError", faulty[target].Err)
	}
	if pe.Value != "injected fault" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = {%v, %d stack bytes}", pe.Value, len(pe.Stack))
	}
	if faulty[target].OK() || len(faulty[target].Phases) != 0 {
		t.Error("panicked run must not report phases")
	}
	for i := range configs {
		if i == target {
			continue
		}
		if faulty[i].Err != nil {
			t.Fatalf("run %d (%s) carries error %v", i, configs[i].ID(), faulty[i].Err)
		}
		requireSameRun(t, configs[i].ID(), faulty[i], clean[i])
	}
	sum := Summarize(faulty)
	if sum.Completed != 239 || sum.Failed != 1 || sum.Aborted != 0 {
		t.Errorf("summary = %v", sum)
	}
	snap := findCounter(t, reg, telemetry.MetricSweepRunPanics)
	if snap != 1 {
		t.Errorf("%s = %v, want 1", telemetry.MetricSweepRunPanics, snap)
	}
	if got := findCounter(t, reg, telemetry.MetricSweepRunErrors); got != 1 {
		t.Errorf("%s = %v, want 1", telemetry.MetricSweepRunErrors, got)
	}
	// The run-time histogram's count is the completed-run count.
	if got := reg.Latency(telemetry.MetricSweepRunNS).Count(); got != int64(sum.Completed) {
		t.Errorf("%s count = %d, want %d", telemetry.MetricSweepRunNS, got, sum.Completed)
	}
}

// findCounter returns the summed value of a counter family.
func findCounter(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	var total float64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}

// TestInvalidConfigYieldsErrNotPanic covers configurations arriving from
// external input: the sweep must record a validation error on the Run
// instead of panicking.
func TestInvalidConfigYieldsErrNotPanic(t *testing.T) {
	tr := testTrace()
	bad := core.Config{CWSize: -5, SkipFactor: 1, Model: core.UnweightedModel,
		Analyzer: core.ThresholdAnalyzer, Param: 0.6}
	good := core.Config{CWSize: 20, SkipFactor: 1, TW: core.ConstantTW,
		Model: core.UnweightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.6}
	runs := RunConfigs(tr, []core.Config{good, bad, good}, 2)
	if runs[0].Err != nil || runs[2].Err != nil {
		t.Fatalf("valid configs errored: %v / %v", runs[0].Err, runs[2].Err)
	}
	if runs[1].Err == nil {
		t.Fatal("invalid config did not surface an error")
	}
	if runs[1].Err.Error() == "" || bad.Validate() == nil {
		t.Fatal("validation error missing")
	}
}

// TestCancelMidSweepReturnsPartialResults cancels a sweep of slow
// detectors partway through: the engine must return promptly with every
// run slot populated in input order — completed runs bit-identical to a
// clean sweep, the rest marked aborted.
func TestCancelMidSweepReturnsPartialResults(t *testing.T) {
	tr := noisyTrace(2000)
	in := trace.Intern(tr)
	configs := PaperSpace([]int{20}).Enumerate()
	clean := RunInterned(in, configs, 0, nil)

	reg := telemetry.NewRegistry()
	probe := telemetry.NewSweepProbe(reg)
	ctx, cancel := context.WithCancel(context.Background())
	slowAll := func(cfg core.Config, pool *core.SweepPool) (*core.Detector, error) {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		model := core.NewSetModel(cfg.Model, cfg.CWSize, cfg.TWSize, cfg.TW, cfg.Anchor, cfg.Resize)
		var an core.Analyzer
		if cfg.Analyzer == core.ThresholdAnalyzer {
			an = core.NewThreshold(cfg.Param)
		} else {
			an = core.NewAverage(cfg.Param)
		}
		return core.NewDetector(faultinject.NewSlowModel(model, 200*time.Microsecond), an, cfg.SkipFactor), nil
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	runs, err := RunInternedContext(ctx, in, configs, Options{Workers: 2, Probe: probe, NewDetector: slowAll})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep error = %v, want context.Canceled", err)
	}
	// "Prompt" here means bounded by one group's stall, not the sweep's
	// full runtime; the margin is generous to stay robust on loaded CI.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled sweep took %v to return", elapsed)
	}
	if len(runs) != len(configs) {
		t.Fatalf("got %d runs, want %d", len(runs), len(configs))
	}
	sum := Summarize(runs)
	if sum.Aborted == 0 {
		t.Error("cancellation aborted no runs")
	}
	for i, r := range runs {
		if r.Config.ID() != configs[i].ID() {
			t.Fatalf("run %d out of input order", i)
		}
		switch {
		case r.OK():
			requireSameRun(t, configs[i].ID(), r, clean[i])
		case !r.Aborted():
			t.Fatalf("run %d: unexpected non-abort error %v", i, r.Err)
		default:
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("aborted run %d does not wrap context.Canceled: %v", i, r.Err)
			}
		}
	}
	if got := findCounter(t, reg, telemetry.MetricSweepRunsAborted); got != float64(sum.Aborted) {
		t.Errorf("%s = %v, want %d", telemetry.MetricSweepRunsAborted, got, sum.Aborted)
	}
}

// TestStalledModelAbortsOnCancel stalls one detector on a gate: after the
// sweep's context is cancelled and the gate released, the engine must
// come back with the stalled run aborted and the rest intact.
func TestStalledModelAbortsOnCancel(t *testing.T) {
	tr := noisyTrace(1500)
	in := trace.Intern(tr)
	configs := PaperSpace([]int{20}).Enumerate()
	clean := RunInterned(in, configs, 0, nil)

	const target = 7
	gate := make(chan struct{})
	stalled := make(chan struct{})
	build := chaosBuilder(configs, target, func(m core.Model) core.Model {
		// The outer hook announces the stall the instant before the inner
		// shim blocks on the gate, so the test cancels mid-stall for real.
		return faultinject.NewHookModel(
			faultinject.NewStallModel(m, 2, gate),
			func(call int) {
				if call == 2 {
					close(stalled)
				}
			})
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var runs []Run
	var err error
	go func() {
		defer close(done)
		runs, err = RunInternedContext(ctx, in, configs, Options{Workers: 4, NewDetector: build})
	}()
	<-stalled // the target detector is now blocked mid-trace
	cancel()
	close(gate)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sweep did not return after cancel + gate release")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep error = %v", err)
	}
	if !runs[target].Aborted() {
		t.Fatalf("stalled run err = %v, want aborted", runs[target].Err)
	}
	for i, r := range runs {
		if r.OK() {
			requireSameRun(t, configs[i].ID(), r, clean[i])
		}
	}
}

// TestDeadlineExpiryAborts runs a slow sweep under a short deadline.
func TestDeadlineExpiryAborts(t *testing.T) {
	tr := noisyTrace(2000)
	in := trace.Intern(tr)
	configs := PaperSpace([]int{20}).Enumerate()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	slowAll := func(cfg core.Config, pool *core.SweepPool) (*core.Detector, error) {
		d, err := cfg.NewPooled(pool)
		if err != nil {
			return nil, err
		}
		time.Sleep(time.Millisecond) // pace construction so the deadline lands mid-sweep
		return d, nil
	}
	runs, err := RunInternedContext(ctx, in, configs, Options{Workers: 1, NewDetector: slowAll})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("sweep error = %v, want DeadlineExceeded", err)
	}
	if Summarize(runs).Aborted == 0 {
		t.Error("deadline aborted no runs")
	}
	for _, r := range runs {
		if !r.OK() && !errors.Is(r.Err, ErrAborted) {
			t.Fatalf("unexpected error %v", r.Err)
		}
	}
}
