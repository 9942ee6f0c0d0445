package sweep

import (
	"testing"

	"opd/internal/core"
	"opd/internal/trace"
)

// BenchmarkSweepInterned runs the paper sweep on the shared-intern
// engine: one hash pass, dense-ID consumption, pooled buffers.
func BenchmarkSweepInterned(b *testing.B) {
	tr := noisyTrace(50000)
	s := PaperSpace([]int{100, 500})
	s.AnchorResize = AllAnchorResize()
	configs := s.Enumerate()
	b.SetBytes(int64(len(tr)) * int64(len(configs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunConfigsTelemetry(tr, configs, 0, nil)
	}
}

// hiCardTrace builds a trace with short stable runs drawn from a large
// site pool — the regime of whole-program branch profiles, where
// interning every element per config would miss the cache while the
// shared-intern engine's dense counters stay compact.
func hiCardTrace(n, sites int) trace.Trace {
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
		site := next(sites)
		run := next(8) + 1
		for i := 0; i < run && len(tr) < n; i++ {
			tr = append(tr, el(site))
		}
	}
	return tr
}

// mapBoundConfigs filters the enumeration to the map-lookup-bound family:
// unweighted model, skip factor 1 — every element costs O(1) window
// arithmetic, so per-element interning is the dominant term.
func mapBoundConfigs(configs []core.Config) []core.Config {
	var out []core.Config
	for _, c := range configs {
		if c.Model == core.UnweightedModel && c.SkipFactor == 1 {
			out = append(out, c)
		}
	}
	return out
}

// BenchmarkSweepInternedHiCard runs the map-lookup-bound family over a
// high-cardinality trace — the workload the shared-intern engine exists
// for.
func BenchmarkSweepInternedHiCard(b *testing.B) {
	tr := hiCardTrace(400000, 100000)
	s := PaperSpace([]int{100, 500})
	s.AnchorResize = AllAnchorResize()
	configs := mapBoundConfigs(s.Enumerate())
	b.SetBytes(int64(len(tr)) * int64(len(configs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunConfigsTelemetry(tr, configs, 0, nil)
	}
}

// BenchmarkSweepInternedPreinterned isolates the steady-state sweep cost
// by hoisting even the single interning pass out of the timed region —
// the regime of the experiment pipeline, which caches interned traces
// across experiments.
func BenchmarkSweepInternedPreinterned(b *testing.B) {
	tr := noisyTrace(50000)
	in := trace.Intern(tr)
	s := PaperSpace([]int{100, 500})
	s.AnchorResize = AllAnchorResize()
	configs := s.Enumerate()
	b.SetBytes(int64(len(tr)) * int64(len(configs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunInterned(in, configs, 0, nil)
	}
}
