package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"
)

// A run is one benchmark invocation: one workload, one seed.
type run struct {
	w       workload
	seed    uint64
	seconds float64
	traced  bool
	work    string // this run's scratch dir, removed at the end
	bin     string // the phased binary
	ts      *traceSet
	tr      *tracer // nil unless traced
	client  *http.Client
	streams []*streamSession
	// spareStart makes one timed cold start besides the measured
	// server's; runPhases calls it after every segment.
	spareStart func(context.Context) error
	// perturb, when set, alters every reference before the check — the
	// seam the tests use to show a wrong reference fails the run.
	perturb func(*reference)

	attempted, failed atomic.Int64

	setup, ready []time.Duration
	scheduled    [numPhases]atomic.Int64 // chunks due in the fixed-rate phases
	segs         []*segment
	recs         []chunkRec             // every measured chunk
	eventLat     []eventLat             // nominal-phase events
	cpuWin       [windows]time.Duration // server CPU in each nominal window
	stealWin     [numPhases][windows]time.Duration
	flight       [numPhases][]flightPair
	peakRSS      int64
	directNS     float64 // reference ProcessBatchIDs ns per element
	sim          int64
	consumed     int64
	sweep        *sweepResult
}

// count tallies one client operation.
func (r *run) count(err error) {
	r.attempted.Add(1)
	if err != nil {
		r.failed.Add(1)
	}
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// An eventLat is one event's latency from the due time of the chunk
// whose processing emitted it.
type eventLat struct {
	due time.Time
	ms  float64
}

// execute runs the workload end to end: build, set-up, phases, checks.
func (r *run) execute(ctx context.Context, buildDir string) error {
	if r.w.kind == kindSweep {
		return r.sweepWorkload(ctx)
	}
	bin, err := buildPhased(ctx, buildDir)
	if err != nil {
		return err
	}
	r.bin = bin
	if err := pinSelf(); err != nil {
		return fmt.Errorf("pinning the load generator: %w", err)
	}
	// Generate every trace up front: sessions draw sources concurrently.
	for _, n := range r.w.mix {
		if _, err := r.ts.get(n); err != nil {
			return err
		}
	}
	r.client = &http.Client{Timeout: 30 * time.Second}
	defer r.client.CloseIdleConnections()
	if r.w.kind == kindPost {
		return r.postWorkload(ctx)
	}
	return r.streamWorkload(ctx)
}

func newRun(w workload, seed uint64, seconds float64, traced bool, buildDir string) (*run, error) {
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	r := &run{w: w, seed: seed, seconds: seconds, traced: traced, work: work, ts: newTraceSet(seed, w.scale)}
	if traced {
		r.tr = &tracer{}
	}
	return r, nil
}

func (r *run) cleanup() { _ = os.RemoveAll(r.work) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// writeSpans stores a traced run's spans beside its report.
func (r *run) writeSpans(dir string, t0 time.Time) (string, error) {
	if r.tr == nil {
		return "", nil
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.csv", r.w.name, r.seed))
	return path, r.tr.write(path, t0)
}
