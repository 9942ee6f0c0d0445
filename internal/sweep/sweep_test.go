package sweep

import (
	"slices"
	"testing"

	"opd/internal/baseline"
	"opd/internal/core"
	"opd/internal/interval"
	"opd/internal/trace"
)

func el(off int) trace.Branch { return trace.MakeBranch(0, off, true) }

func testTrace() trace.Trace {
	var tr trace.Trace
	for r := 0; r < 3; r++ {
		for i := 0; i < 200; i++ {
			tr = append(tr, el(1+r))
		}
	}
	return tr
}

func testSolution(n int64) *baseline.Solution {
	return &baseline.Solution{
		MPL:      100,
		TraceLen: n,
		Phases: []interval.Interval{
			{Start: 0, End: 200}, {Start: 200, End: 400}, {Start: 400, End: 600},
		},
	}
}

func TestEnumerateCounts(t *testing.T) {
	s := PaperSpace([]int{100, 200})
	configs := s.Enumerate()
	// 2 CW x (constant 2x10 + fixed 2x10 + adaptive 2x10x1) = 2 x 60
	if len(configs) != 120 {
		t.Errorf("enumerated %d configs, want 120", len(configs))
	}
	for _, c := range configs {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.ID(), err)
		}
	}
	// Full anchoring variants quadruple the adaptive members.
	s.AnchorResize = AllAnchorResize()
	if got := len(s.Enumerate()); got != 2*(20+20+80) {
		t.Errorf("with all anchoring variants: %d, want 240", got)
	}
	// IDs must be unique.
	seen := map[string]bool{}
	for _, c := range s.Enumerate() {
		id := c.ID()
		if seen[id] {
			t.Errorf("duplicate config ID %q", id)
		}
		seen[id] = true
	}
}

func TestFamilyClassification(t *testing.T) {
	fi := core.FixedInterval(100, core.UnweightedModel, core.ThresholdAnalyzer, 0.5)
	if Family(fi) != FamilyFixedInterval {
		t.Error("fixed interval misclassified")
	}
	con := core.Config{CWSize: 100, SkipFactor: 1, TW: core.ConstantTW,
		Model: core.UnweightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.5}
	if Family(con) != FamilyConstant {
		t.Error("constant misclassified")
	}
	ad := con
	ad.TW = core.AdaptiveTW
	if Family(ad) != FamilyAdaptive {
		t.Error("adaptive misclassified")
	}
	for _, f := range []WindowFamily{FamilyConstant, FamilyAdaptive, FamilyFixedInterval} {
		if f.String() == "" {
			t.Error("empty family name")
		}
	}
}

func TestRunConfigsParallelMatchesSerial(t *testing.T) {
	tr := testTrace()
	configs := PaperSpace([]int{20, 50}).Enumerate()
	serial := RunConfigs(tr, configs, 1)
	parallel := RunConfigs(tr, configs, 4)
	for i := range configs {
		if len(serial[i].Phases) != len(parallel[i].Phases) {
			t.Fatalf("config %s: parallel run diverges", configs[i].ID())
		}
		for j := range serial[i].Phases {
			if serial[i].Phases[j] != parallel[i].Phases[j] {
				t.Fatalf("config %s: phase %d differs", configs[i].ID(), j)
			}
		}
		if serial[i].Config.ID() != parallel[i].Config.ID() {
			t.Fatal("run order not preserved")
		}
	}
}

// noisyTrace builds a deterministic phase-structured trace with enough
// site churn to exercise anchoring, clearing, and both models.
func noisyTrace(n int) trace.Trace {
	rng := int64(42)
	next := func(m int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := int(rng >> 40)
		if v < 0 {
			v = -v
		}
		return v % m
	}
	var tr trace.Trace
	for len(tr) < n {
		site := next(30)
		run := next(80) + 1
		for i := 0; i < run && len(tr) < n; i++ {
			tr = append(tr, el(site))
		}
	}
	return tr
}

// TestInternedSweepMatchesRunTrace pins the shared-intern engine to
// per-config core.RunTrace over the raw trace, over the full paper config
// enumeration (all anchoring variants included): identical phases,
// adjusted phases, and similarity counts for every configuration.
func TestInternedSweepMatchesRunTrace(t *testing.T) {
	tr := noisyTrace(3000)
	s := PaperSpace([]int{20, 50})
	s.AnchorResize = AllAnchorResize()
	configs := s.Enumerate()
	interned := RunConfigs(tr, configs, 0)
	for i, cfg := range configs {
		a, b := core.RunTrace(cfg.MustNew(), tr), interned[i]
		if a.SimilarityComputations() != b.SimComputations {
			t.Errorf("%s: %d vs %d similarity computations", cfg.ID(), a.SimilarityComputations(), b.SimComputations)
		}
		if !slices.Equal(a.Phases(), b.Phases) {
			t.Fatalf("%s: phases: RunTrace %v vs interned %v", cfg.ID(), a.Phases(), b.Phases)
		}
		if !slices.Equal(a.AdjustedPhases(), b.AdjustedPhases) {
			t.Fatalf("%s: adjusted phases: RunTrace %v vs interned %v", cfg.ID(), a.AdjustedPhases(), b.AdjustedPhases)
		}
	}
}

// TestRunInternedSharesStream checks that RunInterned leaves the shared
// ID stream untouched (workers consume it read-only and concurrently).
func TestRunInternedSharesStream(t *testing.T) {
	tr := noisyTrace(1500)
	in := trace.Intern(tr)
	before := append([]int32(nil), in.IDs()...)
	RunInterned(in, PaperSpace([]int{20}).Enumerate(), 4, nil)
	for i, id := range in.IDs() {
		if id != before[i] {
			t.Fatalf("shared ID stream mutated at %d", i)
		}
	}
}

func TestBestPicksHighestScore(t *testing.T) {
	tr := testTrace()
	sol := testSolution(int64(len(tr)))
	configs := PaperSpace([]int{20, 50}).Enumerate()
	runs := RunConfigs(tr, configs, 0)
	best, bestRun, ok := Best(runs, sol, false)
	if !ok {
		t.Fatal("Best found nothing")
	}
	for _, r := range runs {
		if got := r.Score(sol, false); got.Score > best.Score {
			t.Errorf("run %s scores %f > best %f", r.Config.ID(), got.Score, best.Score)
		}
	}
	if best.Score <= 0.5 {
		t.Errorf("best score %f suspiciously low on a cleanly phased trace", best.Score)
	}
	if err := bestRun.Config.Validate(); err != nil {
		t.Errorf("best run has invalid config: %v", err)
	}
	if _, _, ok := Best(nil, sol, false); ok {
		t.Error("Best on empty runs reported ok")
	}
}

func TestFilter(t *testing.T) {
	configs := PaperSpace([]int{20}).Enumerate()
	runs := make([]Run, len(configs))
	for i, c := range configs {
		runs[i] = Run{Config: c}
	}
	adaptive := Filter(runs, func(c core.Config) bool { return Family(c) == FamilyAdaptive })
	if len(adaptive) != 20 {
		t.Errorf("filtered %d adaptive runs, want 20", len(adaptive))
	}
}

func TestAdjustedScoreUsesAdjustedPhases(t *testing.T) {
	tr := testTrace()
	sol := testSolution(int64(len(tr)))
	cfg := core.Config{CWSize: 20, SkipFactor: 1, TW: core.AdaptiveTW,
		Model: core.UnweightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.6}
	runs := RunConfigs(tr, []core.Config{cfg}, 1)
	raw := runs[0].Score(sol, false)
	adj := runs[0].Score(sol, true)
	// Anchor-corrected starts recover the late-detection loss, so the
	// adjusted correlation must be at least as good.
	if adj.Correlation < raw.Correlation-1e-9 {
		t.Errorf("adjusted correlation %f worse than raw %f", adj.Correlation, raw.Correlation)
	}
}
