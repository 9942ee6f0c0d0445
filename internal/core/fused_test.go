package core_test

import (
	"bytes"
	"testing"

	"opd/internal/core"
	"opd/internal/interval"
	"opd/internal/sweep"
	"opd/internal/synth"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// fusedChunkSizes is the chunking the fused-loop test cycles through:
// single elements, chunks shorter and longer than a skip-factor group,
// and the serving benchmarks' chunk sizes.
var fusedChunkSizes = []int{1, 13, 500, 777, 2048, 4096}

// TestFusedLoopMatchesGroupPath pins the fused group loop to the general
// per-group path (ProcessProfileIDs for every group, as a detector with
// a probe attached runs): for every configuration of the paper space
// over CW {100, 500} with all four anchor/resize variants (240
// configurations, every one fused-eligible) and each of the eight synth
// traces, the two must hold bit-identical snapshots after every chunk
// and report identical phases, adjusted phases and similarity counts
// after Finish — fed chunk by chunk through ProcessBatch, and as a whole
// pre-interned trace through RunTraceInterned. TestProbedDetectorMatches
// checks that a probed detector does take that path.
func TestFusedLoopMatchesGroupPath(t *testing.T) {
	space := sweep.PaperSpace([]int{100, 500})
	space.AnchorResize = sweep.AllAnchorResize()
	configs := space.Enumerate()
	if len(configs) != 240 {
		t.Fatalf("paper space has %d configs, want 240", len(configs))
	}
	stride := 1
	if raceEnabled {
		// The test runs on one goroutine, so the race detector only slows
		// it down (to about five minutes). Every seventh configuration
		// still covers each window family, model, anchor/resize variant
		// and CW size, and both analyzer kinds.
		stride = 7
	}
	for _, name := range synth.Names() {
		tr, _, err := synth.Run(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		in := trace.Intern(tr)
		for c := 0; c < len(configs); c += stride {
			cfg := configs[c]
			tag := name + "/" + cfg.ID()
			fused, ref := cfg.MustNew(), cfg.MustNew()
			for i, k := 0, 0; i < len(tr); k++ {
				end := min(i+fusedChunkSizes[k%len(fusedChunkSizes)], len(tr))
				fused.ProcessBatch(tr[i:end])
				core.ProcessBatchPerGroup(ref, tr[i:end])
				got, err := fused.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: snapshots differ after chunk %d (elements [%d,%d))", tag, k, i, end)
				}
				i = end
			}
			fused.Finish()
			ref.Finish()
			sameOutput(t, tag+"/batch", fused, ref)

			fused, ref = core.RunTraceInterned(cfg.MustNew(), in), core.RunTraceInternedPerGroup(cfg.MustNew(), in)
			sameOutput(t, tag+"/interned", fused, ref)
		}
	}
}

// TestProbedDetectorMatches runs a detector with a telemetry probe
// attached, which keeps it on the per-group path, against an unprobed
// one on a few configurations: the probe observes and changes nothing.
func TestProbedDetectorMatches(t *testing.T) {
	tr, _, err := synth.Run("db", 1)
	if err != nil {
		t.Fatal(err)
	}
	in := trace.Intern(tr)
	reg := telemetry.NewRegistry()
	for _, cfg := range []core.Config{
		{CWSize: 500, SkipFactor: 1, TW: core.AdaptiveTW, Anchor: core.AnchorRN, Resize: core.ResizeSlide,
			Model: core.UnweightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.6},
		{CWSize: 100, SkipFactor: 1, TW: core.ConstantTW, Model: core.WeightedModel, Analyzer: core.AverageAnalyzer, Param: 0.1},
		core.FixedInterval(100, core.UnweightedModel, core.AverageAnalyzer, 0.05),
	} {
		probed := cfg.MustNew()
		probed.SetProbe(telemetry.NewDetectorProbe(reg, cfg.ID()))
		sameOutput(t, cfg.ID(), core.RunTraceInterned(probed, in), core.RunTraceInterned(cfg.MustNew(), in))
	}
}

func sameOutput(t *testing.T, tag string, got, want *core.Detector) {
	t.Helper()
	if got.SimilarityComputations() != want.SimilarityComputations() {
		t.Fatalf("%s: %d similarity computations, want %d", tag, got.SimilarityComputations(), want.SimilarityComputations())
	}
	if !sameIntervals(got.Phases(), want.Phases()) {
		t.Fatalf("%s: phases %v, want %v", tag, got.Phases(), want.Phases())
	}
	if !sameIntervals(got.AdjustedPhases(), want.AdjustedPhases()) {
		t.Fatalf("%s: adjusted phases %v, want %v", tag, got.AdjustedPhases(), want.AdjustedPhases())
	}
}

func sameIntervals(a, b []interval.Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
