package core

import (
	"slices"
	"testing"
	"testing/quick"

	"opd/internal/interval"
	"opd/internal/trace"
)

// randomStream builds a stream of stable runs of random sites with random
// lengths, deterministic in seed.
func randomStream(seed int64, n int) trace.Trace {
	rng := seed
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
		site := next(20)
		run := next(60) + 1
		for i := 0; i < run && len(tr) < n; i++ {
			tr = append(tr, el(site))
		}
	}
	return tr
}

// TestDetectorOutputInvariants drives every policy combination over random
// streams and checks the structural invariants any detector must satisfy:
// phases and adjusted phases are sorted, disjoint, within the trace; every
// adjusted phase starts no later than its raw counterpart; output is
// deterministic.
func TestDetectorOutputInvariants(t *testing.T) {
	configs := propertyConfigs()
	f := func(seed int64) bool {
		tr := randomStream(seed, 600)
		for _, cfg := range configs {
			d := cfg.MustNew()
			RunTrace(d, tr)
			n := int64(len(tr))
			if err := interval.Validate(d.Phases(), n); err != nil {
				t.Logf("%s: %v", cfg.ID(), err)
				return false
			}
			if err := interval.Validate(d.AdjustedPhases(), n); err != nil {
				t.Logf("%s (adjusted): %v", cfg.ID(), err)
				return false
			}
			raw, adj := d.Phases(), d.AdjustedPhases()
			if len(raw) != len(adj) {
				t.Logf("%s: %d raw vs %d adjusted phases", cfg.ID(), len(raw), len(adj))
				return false
			}
			for i := range raw {
				if adj[i].Start > raw[i].Start || adj[i].End != raw[i].End {
					t.Logf("%s: adjusted %v vs raw %v", cfg.ID(), adj[i], raw[i])
					return false
				}
			}
			// Determinism: a second run produces identical output.
			d2 := cfg.MustNew()
			RunTrace(d2, tr)
			if len(d2.Phases()) != len(raw) {
				t.Logf("%s: non-deterministic", cfg.ID())
				return false
			}
			for i := range raw {
				if d2.Phases()[i] != raw[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// propertyConfigs enumerates every policy-axis combination (both window
// policies, models, anchors, resizes, analyzers, and a skip > 1 variant)
// — the full configuration surface of the framework.
func propertyConfigs() []Config {
	var configs []Config
	for _, tw := range []TWPolicy{ConstantTW, AdaptiveTW} {
		for _, model := range []ModelKind{UnweightedModel, WeightedModel} {
			for _, anchor := range []AnchorPolicy{AnchorRN, AnchorLNN} {
				for _, resize := range []ResizePolicy{ResizeSlide, ResizeMove} {
					configs = append(configs,
						Config{CWSize: 12, TWSize: 12, SkipFactor: 3, TW: tw, Anchor: anchor,
							Resize: resize, Model: model, Analyzer: ThresholdAnalyzer, Param: 0.6},
						Config{CWSize: 10, TWSize: 20, SkipFactor: 1, TW: tw, Anchor: anchor,
							Resize: resize, Model: model, Analyzer: AverageAnalyzer, Param: 0.1},
						Config{CWSize: 8, TWSize: 8, SkipFactor: 8, TW: tw, Anchor: anchor,
							Resize: resize, Model: model, Analyzer: ThresholdAnalyzer, Param: 0.5},
					)
				}
			}
		}
	}
	return configs
}

// TestInternedPathMatchesMapPath is the equivalence property of the
// shared-intern engine: over randomized traces and the full config
// enumeration, a run over the pre-interned trace (RunTraceInterned, with
// and without a SweepPool) must yield byte-identical phases, adjusted
// phases, and similarity counts to a run over the raw elements, which
// the detector interns at its boundary (RunTrace).
func TestInternedPathMatchesMapPath(t *testing.T) {
	configs := propertyConfigs()
	equal := func(a, b []interval.Interval) bool {
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
	f := func(seed int64) bool {
		tr := randomStream(seed, 700)
		in := trace.Intern(tr)
		pool := NewSweepPool(in.Cardinality())
		for _, cfg := range configs {
			branch := RunTrace(cfg.MustNew(), tr)
			fast := RunTraceInterned(cfg.MustNew(), in)
			pooled := RunTraceInterned(cfg.MustNewPooled(pool), in)
			for _, d := range []*Detector{fast, pooled} {
				if !equal(branch.Phases(), d.Phases()) {
					t.Logf("%s: phases diverge: branch %v vs interned %v", cfg.ID(), branch.Phases(), d.Phases())
					return false
				}
				if !equal(branch.AdjustedPhases(), d.AdjustedPhases()) {
					t.Logf("%s: adjusted phases diverge", cfg.ID())
					return false
				}
				if branch.SimilarityComputations() != d.SimilarityComputations() {
					t.Logf("%s: %d vs %d similarity computations",
						cfg.ID(), branch.SimilarityComputations(), d.SimilarityComputations())
					return false
				}
			}
			pooled.ReleaseBuffers()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestInternedPathPhaseSignatures checks the remaining model output the
// equivalence property does not cover: phase signatures reported through
// the end-phase hook are identical between the two inputs — element for
// element, since both list the signature in ID order and boundary
// interning assigns the IDs trace.Intern does.
func TestInternedPathPhaseSignatures(t *testing.T) {
	tr := randomStream(3, 900)
	in := trace.Intern(tr)
	cfg := Config{CWSize: 12, TWSize: 12, SkipFactor: 3, TW: AdaptiveTW,
		Model: UnweightedModel, Analyzer: ThresholdAnalyzer, Param: 0.6}
	collect := func(run func(*Detector)) [][]trace.Branch {
		var sigs [][]trace.Branch
		d := cfg.MustNew()
		d.SetPhaseEndHook(func(_ interval.Interval, sig []trace.Branch) {
			sigs = append(sigs, sig)
		})
		run(d)
		return sigs
	}
	branch := collect(func(d *Detector) { RunTrace(d, tr) })
	fast := collect(func(d *Detector) { RunTraceInterned(d, in) })
	if len(branch) == 0 {
		t.Fatal("trace produced no phases; test is vacuous")
	}
	if len(branch) != len(fast) {
		t.Fatalf("%d branch-input signatures vs %d interned", len(branch), len(fast))
	}
	for i := range branch {
		if !slices.Equal(branch[i], fast[i]) {
			t.Fatalf("signature %d: branch input %v vs interned %v", i, branch[i], fast[i])
		}
	}
}
