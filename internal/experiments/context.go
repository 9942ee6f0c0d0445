// Package experiments regenerates every table and figure of the paper's
// evaluation (§4–§5) against the synthetic benchmark suite. Each
// experiment is a method on Context, which caches traces, oracle
// solutions, and detector runs so that the full set of experiments shares
// one sweep per benchmark.
//
// A detector's output does not depend on the MPL — only the oracle does —
// so each configuration is run once per benchmark and scored against all
// MPL baselines. With the default configuration space (seven CW sizes ×
// three window families × two models × ten analyzers × four Adaptive
// anchoring variants) and eight benchmarks scored at six-plus MPLs, the
// pipeline evaluates well over ten thousand detector/oracle combinations,
// matching the scale of the paper's study.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"opd/internal/baseline"
	"opd/internal/core"
	"opd/internal/score"
	"opd/internal/sweep"
	"opd/internal/synth"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// Options configures an experiment context.
type Options struct {
	// Scale is the workload scale passed to the synthetic benchmarks.
	// Zero means 8, which yields traces large enough for the full MPL
	// ladder.
	Scale int
	// Benchmarks selects the workloads; empty means the full suite.
	Benchmarks []string
	// MPLs is the minimum-phase-length ladder; empty means the paper's
	// {1K, 5K, 10K, 25K, 50K, 100K} at scale >= 8, or a proportionally
	// smaller ladder below.
	MPLs []int64
	// CWSizes is the current-window ladder; empty derives one from MPLs
	// (half the smallest MPL, every MPL value, and every half-MPL value).
	CWSizes []int
	// Workers bounds sweep parallelism; zero means GOMAXPROCS.
	Workers int
	// Telemetry, when non-nil, instruments every detector sweep the
	// experiments run (run counts, wall clock, similarity-computation
	// volume) against the registry, and enables the end-of-run
	// instrumentation report in cmd/phasebench.
	Telemetry *telemetry.Registry
	// Context, when non-nil, bounds every sweep the experiments run:
	// cancellation or deadline expiry aborts the in-flight sweep promptly
	// and surfaces the context's error from the experiment method. Nil
	// means context.Background().
	Context context.Context
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 8
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = synth.Names()
	}
	if len(o.MPLs) == 0 {
		if o.Scale >= 8 {
			o.MPLs = []int64{1000, 5000, 10000, 25000, 50000, 100000}
		} else {
			o.MPLs = []int64{250, 500, 1000, 2500, 5000}
		}
	}
	if len(o.CWSizes) == 0 {
		seen := map[int]bool{}
		add := func(v int) {
			if v > 0 && !seen[v] {
				seen[v] = true
				o.CWSizes = append(o.CWSizes, v)
			}
		}
		add(int(o.MPLs[0] / 2))
		for _, m := range o.MPLs {
			add(int(m))
			add(int(m / 2))
		}
		sortInts(o.CWSizes)
	}
	return o
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Context holds the cached state shared by all experiments.
type Context struct {
	opts       Options
	sweepProbe *telemetry.SweepProbe

	mu       sync.Mutex
	traces   map[string]trace.Trace
	events   map[string]trace.Events
	interned map[string]*trace.Interned
	sols     map[string]map[int64]*baseline.Solution
	runs     map[string][]sweep.Run
	runStats map[string]*RunStats
}

// New builds a context.
func New(opts Options) *Context {
	opts = opts.withDefaults()
	return &Context{
		opts:       opts,
		sweepProbe: telemetry.NewSweepProbe(opts.Telemetry),
		traces:     map[string]trace.Trace{},
		events:     map[string]trace.Events{},
		interned:   map[string]*trace.Interned{},
		sols:       map[string]map[int64]*baseline.Solution{},
		runs:       map[string][]sweep.Run{},
		runStats:   map[string]*RunStats{},
	}
}

// Options returns the resolved options.
func (c *Context) Options() Options { return c.opts }

// ctx returns the options' context, defaulting to Background.
func (c *Context) ctx() context.Context {
	if c.opts.Context != nil {
		return c.opts.Context
	}
	return context.Background()
}

// Workload returns (generating and caching on first use) the named
// benchmark's traces.
func (c *Context) Workload(bench string) (trace.Trace, trace.Events, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if tr, ok := c.traces[bench]; ok {
		return tr, c.events[bench], nil
	}
	tr, ev, err := synth.Run(bench, c.opts.Scale)
	if err != nil {
		return nil, nil, err
	}
	c.traces[bench] = tr
	c.events[bench] = ev
	return tr, ev, nil
}

// Baseline returns the cached oracle solution for a benchmark and MPL.
func (c *Context) Baseline(bench string, mpl int64) (*baseline.Solution, error) {
	tr, ev, err := c.Workload(bench)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sols[bench] == nil {
		c.sols[bench] = map[int64]*baseline.Solution{}
	}
	if s, ok := c.sols[bench][mpl]; ok {
		return s, nil
	}
	s, err := baseline.Compute(ev, int64(len(tr)), mpl)
	if err != nil {
		return nil, err
	}
	c.sols[bench][mpl] = s
	return s, nil
}

// masterConfigs is the full configuration universe every experiment draws
// from: the paper sweep over the CW ladder with all four Adaptive
// anchoring variants.
func (c *Context) masterConfigs() []core.Config {
	s := sweep.PaperSpace(c.opts.CWSizes)
	s.AnchorResize = sweep.AllAnchorResize()
	return s.Enumerate()
}

// Runs returns (computing and caching on first use) the detector runs of
// the full configuration universe over the named benchmark.
func (c *Context) Runs(bench string) ([]sweep.Run, error) {
	c.mu.Lock()
	cached, ok := c.runs[bench]
	c.mu.Unlock()
	if ok {
		return cached, nil
	}
	tr, _, err := c.Workload(bench)
	if err != nil {
		return nil, err
	}
	runs, err := c.sweepRuns(bench, tr, c.masterConfigs())
	if err != nil {
		return nil, errBench(bench, err)
	}
	c.mu.Lock()
	c.runs[bench] = runs
	c.mu.Unlock()
	return runs, nil
}

// internedFor returns the benchmark's cached interned stream when tr is
// the cached workload trace, and interns tr ad hoc otherwise (the seed
// variance experiment sweeps reseeded variant traces that must not
// poison the per-benchmark cache). Every sweep of a benchmark's own
// trace shares the cached stream, so the pipeline pays one hash pass
// per benchmark however many experiments re-sweep it.
func (c *Context) internedFor(bench string, tr trace.Trace) *trace.Interned {
	c.mu.Lock()
	cached, ok := c.traces[bench]
	in := c.interned[bench]
	c.mu.Unlock()
	same := ok && len(tr) == len(cached) && (len(tr) == 0 || &tr[0] == &cached[0])
	if !same {
		return trace.Intern(tr)
	}
	if in == nil {
		in = trace.Intern(tr)
		c.mu.Lock()
		c.interned[bench] = in
		c.mu.Unlock()
	}
	return in
}

// sweepRuns executes configurations over a trace with the context's
// telemetry probe attached and folds the results into the per-benchmark
// run statistics. Sweeps of a benchmark's canonical trace share its
// cached interned stream. Cancellation of the options' context aborts
// the sweep and returns its error; partial runs still count toward the
// benchmark statistics so an interrupted session reports what it did.
func (c *Context) sweepRuns(bench string, tr trace.Trace, configs []core.Config) ([]sweep.Run, error) {
	runs, err := sweep.RunInternedContext(c.ctx(), c.internedFor(bench, tr), configs, sweep.Options{
		Workers: c.opts.Workers,
		Probe:   c.sweepProbe,
	})
	c.noteRuns(bench, runs)
	return runs, err
}

// defaultAnchoring keeps only the RN/Slide anchoring for Adaptive configs
// (the defaults the paper settles on in §5); non-adaptive configs pass.
func defaultAnchoring(cfg core.Config) bool {
	if cfg.TW != core.AdaptiveTW {
		return true
	}
	return cfg.Anchor == core.AnchorRN && cfg.Resize == core.ResizeSlide
}

// bestScore returns the best combined score among the benchmark's runs
// that satisfy keep, against the benchmark's baseline at mpl. ok is false
// if no run matches.
func (c *Context) bestScore(bench string, mpl int64, adjusted bool, keep func(core.Config) bool) (score.Result, bool, error) {
	runs, err := c.Runs(bench)
	if err != nil {
		return score.Result{}, false, err
	}
	sol, err := c.Baseline(bench, mpl)
	if err != nil {
		return score.Result{}, false, err
	}
	best, _, ok := sweep.Best(sweep.Filter(runs, keep), sol, adjusted)
	return best, ok, nil
}

// figureMPLs returns the MPL values whose half is present in the CW
// ladder — the MPLs usable for the CW = MPL/2 experiments of Figures 5-8.
func (c *Context) figureMPLs() []int64 {
	cws := map[int]bool{}
	for _, cw := range c.opts.CWSizes {
		cws[cw] = true
	}
	var out []int64
	for _, m := range c.opts.MPLs {
		if cws[int(m/2)] {
			out = append(out, m)
		}
	}
	return out
}

func (c *Context) mustBenchmarks() []string { return c.opts.Benchmarks }

// errBench wraps an error with its benchmark.
func errBench(bench string, err error) error {
	return fmt.Errorf("experiments: %s: %w", bench, err)
}
