package telemetry_test

// The disabled-telemetry overhead contract: an uninstrumented detector
// (nil probe) must run within measurement noise (~3%) of the seed
// implementation that had no telemetry code at all. Compare
// BenchmarkDetectorProcessDisabled against the core package's
// BenchmarkDetectorProcessSingle:
//
//	go test -bench 'DetectorProcess(Single|Disabled)' -benchtime 2s \
//	    ./internal/core/... ./internal/telemetry/...
//
// BenchmarkDetectorProcessEnabled bounds the cost of full instrumentation
// (per-group counter and similarity-histogram atomics, the event ring)
// for comparison.

import (
	"testing"

	"opd/internal/core"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// benchStream mirrors core's benchmark workload: a deterministic
// 100K-element stream over 24 sites with phase-like runs.
func benchStream() trace.Trace {
	const n = 100000
	out := make(trace.Trace, 0, n)
	state := uint64(7)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	site := uint32(0)
	for i := 0; i < n; i++ {
		if next()%97 == 0 { // occasional site-set shift, phase-like
			site = uint32(next() % 24)
		}
		out = append(out, trace.MakeBranch(site, int(next()%16), next()%2 == 0))
	}
	return out
}

func benchDetector(probe *telemetry.DetectorProbe) *core.Detector {
	d := core.Config{CWSize: 1000, TW: core.AdaptiveTW, Model: core.UnweightedModel,
		Analyzer: core.ThresholdAnalyzer, Param: 0.6}.MustNew()
	d.SetProbe(probe)
	return d
}

// BenchmarkDetectorProcessDisabled is the nil-probe configuration every
// uninstrumented caller gets; it must match the seed's
// BenchmarkDetectorProcessSingle within ~3%.
func BenchmarkDetectorProcessDisabled(b *testing.B) {
	stream := benchStream()
	d := benchDetector(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Process(stream[i%len(stream)])
	}
}

// BenchmarkDetectorProcessEnabled runs the same workload with a live
// registry attached.
func BenchmarkDetectorProcessEnabled(b *testing.B) {
	stream := benchStream()
	d := benchDetector(telemetry.NewDetectorProbe(telemetry.NewRegistry(), "bench"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Process(stream[i%len(stream)])
	}
}
