// Package sweep evaluates families of detector configurations against
// traces and oracle solutions. It exploits the key structural fact of the
// evaluation: a detector's output is independent of the MPL (only the
// oracle depends on it), so each configuration runs over a trace once and
// is then scored against every MPL's baseline solution.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"opd/internal/baseline"
	"opd/internal/core"
	"opd/internal/interval"
	"opd/internal/score"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// ErrAborted marks a Run abandoned because the sweep's context was
// cancelled before (or while) the run executed. The context's own error
// is wrapped, so errors.Is(run.Err, context.Canceled) also holds.
var ErrAborted = errors.New("sweep: run aborted")

// A PanicError is a panic recovered from detector/model code during a
// sweep run, isolated to that run instead of crashing the whole sweep.
type PanicError struct {
	// Value is the value the detector code panicked with.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error renders the panic value; the stack is available on the struct.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: detector panicked: %v", e.Value)
}

// A Run is the MPL-independent output of one detector over one trace.
type Run struct {
	Config          core.Config
	Phases          []interval.Interval
	AdjustedPhases  []interval.Interval
	SimComputations int64
	// Elements is the trace length the detector consumed.
	Elements int64
	// Elapsed is the wall-clock time of the detector's pass over the
	// trace (detector work only; excludes scoring).
	Elapsed time.Duration
	// Err is non-nil when the run did not complete: the configuration
	// failed validation, the detector panicked (a *PanicError), or the
	// sweep was cancelled before the run finished (wraps ErrAborted and
	// the context error). A failed run carries no phases and must not be
	// scored.
	Err error
}

// OK reports whether the run completed and its phases are scorable.
func (r Run) OK() bool { return r.Err == nil }

// Aborted reports whether the run was abandoned by sweep cancellation
// (as opposed to failing in its own right).
func (r Run) Aborted() bool { return errors.Is(r.Err, ErrAborted) }

// SimPer1000 returns the run's similarity computations per thousand
// consumed elements — the overhead rate the skip factor trades against
// accuracy.
func (r Run) SimPer1000() float64 {
	if r.Elements == 0 {
		return 0
	}
	return 1000 * float64(r.SimComputations) / float64(r.Elements)
}

// A Summary counts a sweep's outcomes: how many runs completed, how many
// failed on their own (bad config or recovered panic), and how many were
// abandoned by cancellation.
type Summary struct {
	Completed int
	Failed    int
	Aborted   int
}

// String renders e.g. "237/240 completed, 1 failed, 2 aborted".
func (s Summary) String() string {
	total := s.Completed + s.Failed + s.Aborted
	return fmt.Sprintf("%d/%d completed, %d failed, %d aborted", s.Completed, total, s.Failed, s.Aborted)
}

// Summarize tallies run outcomes.
func Summarize(runs []Run) Summary {
	var s Summary
	for _, r := range runs {
		switch {
		case r.OK():
			s.Completed++
		case r.Aborted():
			s.Aborted++
		default:
			s.Failed++
		}
	}
	return s
}

// Options tunes a sweep execution.
type Options struct {
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// Probe, when non-nil, records interning, per-run, error/abort, and
	// pool-reuse telemetry.
	Probe *telemetry.SweepProbe
	// NewDetector overrides detector construction — the fault-injection
	// seam, used by tests to substitute chaos models for selected
	// configurations. nil means cfg.NewPooled(pool).
	NewDetector func(cfg core.Config, pool *core.SweepPool) (*core.Detector, error)
}

// RunConfigs executes every configuration over the trace, in parallel
// across workers (0 means GOMAXPROCS), and returns the runs in input
// order. A configuration that fails validation, or whose detector
// panics, yields a Run carrying the error rather than crashing the
// sweep; the panic-tolerant enumerators' helper constructors
// (Config.MustNew and friends) remain for callers that want invalid
// configs to be fatal.
//
// The trace is interned once — one hash pass total — and every detector
// consumes skip-factor slices of the shared dense-ID stream, with window
// counters sized up-front from the symbol-table cardinality and pooled
// across runs. See RunInterned for sweeping an already-interned trace.
func RunConfigs(tr trace.Trace, configs []core.Config, workers int) []Run {
	return RunConfigsTelemetry(tr, configs, workers, nil)
}

// RunConfigsTelemetry is RunConfigs with a sweep probe: the interning
// pass and each completed run are recorded (counts, wall clock,
// similarity computations, pool reuse). A nil probe is equivalent to
// RunConfigs.
func RunConfigsTelemetry(tr trace.Trace, configs []core.Config, workers int, probe *telemetry.SweepProbe) []Run {
	return RunInterned(trace.Intern(tr), configs, workers, probe)
}

// RunInterned executes every configuration over a pre-interned trace.
// This is the sweep hot path: the representation cost (one hash lookup
// per element) was paid once at interning, so each of the N configured
// detectors runs in pure slice arithmetic over the shared ID stream, and
// a SweepPool recycles window buffers and counter slices between
// back-to-back runs. Results are in input order. Per-run failures land in
// Run.Err; see RunInternedContext for cancellation.
func RunInterned(in *trace.Interned, configs []core.Config, workers int, probe *telemetry.SweepProbe) []Run {
	runs, _ := RunInternedContext(context.Background(), in, configs, Options{Workers: workers, Probe: probe})
	return runs
}

// RunInternedContext is RunInterned under a context: the sweep observes
// cancellation between runs and (via core.RunTraceInternedContext)
// between skip-factor groups within a run, so a cancel or deadline
// returns promptly with partial results. The returned slice always has
// len(configs) entries in input order — completed runs are identical to
// an uncancelled sweep's, and runs that were cut short or never started
// carry an Err wrapping ErrAborted. The second return value is
// ctx.Err() at completion time (nil for a sweep that ran to the end).
//
// Each worker additionally isolates panics from detector/model code:
// a panicking configuration yields a Run with a *PanicError while every
// other run completes unaffected.
func RunInternedContext(ctx context.Context, in *trace.Interned, configs []core.Config, opts Options) ([]Run, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	probe := opts.Probe
	build := opts.NewDetector
	if build == nil {
		build = func(cfg core.Config, pool *core.SweepPool) (*core.Detector, error) {
			return cfg.NewPooled(pool)
		}
	}
	probe.Interned(int64(in.Len()), int64(in.Cardinality()))
	pool := core.NewSweepPool(in.Cardinality())
	runs := make([]Run, len(configs))
	// Buffered to len(configs): the producer enqueues the whole sweep
	// without ever blocking behind a slow worker.
	jobs := make(chan int, len(configs))
	for i := range configs {
		jobs <- i
	}
	close(jobs)
	done := ctx.Done()
	var wg sync.WaitGroup
	elements := int64(in.Len())
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if done != nil {
					select {
					case <-done:
						// Drain the queue, marking never-started runs
						// aborted so the result keeps input order and
						// length under cancellation.
						runs[i] = Run{Config: configs[i], Err: abortErr(ctx)}
						probe.RunAborted()
						continue
					default:
					}
				}
				runs[i] = runOne(ctx, in, configs[i], pool, build, elements, probe)
			}
		}()
	}
	wg.Wait()
	hits, misses := pool.Stats()
	probe.PoolStats(hits, misses)
	return runs, ctx.Err()
}

// abortErr wraps the context's error under ErrAborted.
func abortErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrAborted, context.Cause(ctx))
}

// runOne executes a single configuration, converting panics from
// detector/model code into the run's Err. A panicking detector's pooled
// buffers are deliberately NOT released — they may be mid-mutation — so
// the pool simply allocates fresh ones for a later run.
func runOne(ctx context.Context, in *trace.Interned, cfg core.Config,
	pool *core.SweepPool, build func(core.Config, *core.SweepPool) (*core.Detector, error),
	elements int64, probe *telemetry.SweepProbe) (run Run) {
	run.Config = cfg
	defer func() {
		if v := recover(); v != nil {
			run = Run{Config: cfg, Err: &PanicError{Value: v, Stack: debug.Stack()}}
			probe.RunError(true)
		}
	}()
	d, err := build(cfg, pool)
	if err != nil {
		run.Err = fmt.Errorf("sweep: config %s: %w", cfg.ID(), err)
		probe.RunError(false)
		return run
	}
	start := time.Now()
	if err := core.RunTraceInternedContext(ctx, d, in); err != nil {
		run.Err = abortErr(ctx)
		probe.RunAborted()
		return run
	}
	elapsed := time.Since(start)
	run.Phases = d.Phases()
	run.AdjustedPhases = d.AdjustedPhases()
	run.SimComputations = d.SimilarityComputations()
	run.Elements = elements
	run.Elapsed = elapsed
	d.ReleaseBuffers()
	probe.Run(elapsed.Seconds(), d.SimilarityComputations(), elements)
	return run
}

// Score evaluates a run against one oracle solution. adjusted selects the
// anchor-corrected phase boundaries (Figure 8) instead of the raw ones.
func (r Run) Score(sol *baseline.Solution, adjusted bool) score.Result {
	phases := r.Phases
	if adjusted {
		phases = r.AdjustedPhases
	}
	return score.Evaluate(phases, sol)
}

// Best returns the highest combined score among the completed runs
// against the given solution, along with the achieving run. Failed and
// aborted runs are skipped — their empty phase lists must not be scored.
// ok is false when no run completed.
func Best(runs []Run, sol *baseline.Solution, adjusted bool) (best score.Result, bestRun Run, ok bool) {
	for _, r := range runs {
		if !r.OK() {
			continue
		}
		res := r.Score(sol, adjusted)
		if !ok || res.Score > best.Score {
			best, bestRun, ok = res, r, true
		}
	}
	return best, bestRun, ok
}

// Filter returns the runs whose configuration satisfies keep.
func Filter(runs []Run, keep func(core.Config) bool) []Run {
	var out []Run
	if keep == nil {
		return append(out, runs...)
	}
	for _, r := range runs {
		if keep(r.Config) {
			out = append(out, r)
		}
	}
	return out
}
