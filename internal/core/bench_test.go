package core

import (
	"fmt"
	"testing"

	"opd/internal/trace"
)

// benchStream is a deterministic 100K-element stream over 24 sites with
// phase-like runs.
func benchStream() trace.Trace {
	return randomStream(7, 100000)
}

func benchmarkWindowSimilarity(b *testing.B, weighted bool) {
	stream := benchStream()
	m := NewSetModel(UnweightedModel, 1000, 1000, ConstantTW, AnchorRN, ResizeSlide)
	if weighted {
		m = NewSetModel(WeightedModel, 1000, 1000, ConstantTW, AnchorRN, ResizeSlide)
	}
	in := trace.Intern(stream)
	m.BindSymbols(in.Symbols())
	ids := in.IDs()
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ids {
			m.UpdateWindowsIDs(ids[j : j+1])
			m.ComputeSimilarity()
		}
	}
}

// BenchmarkSimilarityIncremental measures the maintained-counter design:
// O(1) per element for the unweighted model.
func BenchmarkSimilarityIncrementalUnweighted(b *testing.B) {
	benchmarkWindowSimilarity(b, false)
}

// BenchmarkSimilarityIncrementalWeighted measures the weighted model,
// whose per-step cost is O(distinct sites).
func BenchmarkSimilarityIncrementalWeighted(b *testing.B) {
	benchmarkWindowSimilarity(b, true)
}

// BenchmarkSimilarityNaiveRecompute is the ablation baseline for the
// incremental design: rebuild both window multisets from scratch at every
// step, the way a direct transcription of the similarity definitions
// would. The incremental benchmarks above beat this by orders of
// magnitude at realistic window sizes.
func BenchmarkSimilarityNaiveRecompute(b *testing.B) {
	stream := benchStream()
	const cw, tw = 1000, 1000
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink float64
		for pos := cw + tw; pos < len(stream); pos += 997 { // sampled: the full loop is intractable
			twCounts := map[trace.Branch]int{}
			cwCounts := map[trace.Branch]int{}
			for _, e := range stream[pos-cw-tw : pos-cw] {
				twCounts[e]++
			}
			for _, e := range stream[pos-cw : pos] {
				cwCounts[e]++
			}
			overlap := 0
			for e := range cwCounts {
				if twCounts[e] > 0 {
					overlap++
				}
			}
			sink += float64(overlap) / float64(len(cwCounts))
		}
		_ = sink
	}
}

// hiCardStream is a deterministic 100K-element stream over ~8000 sites:
// the regime where per-element map interning leaves cache and dominates
// the unweighted detector's O(1) window arithmetic.
func hiCardStream() trace.Trace {
	rng := int64(11)
	next := func(m int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := int(rng >> 40)
		if v < 0 {
			v = -v
		}
		return v % m
	}
	var tr trace.Trace
	for len(tr) < 100000 {
		site := next(8000)
		run := next(12) + 1
		for i := 0; i < run && len(tr) < 100000; i++ {
			tr = append(tr, el(site))
		}
	}
	return tr
}

// benchmarkInput drives a whole-trace detector run from either Branch
// input (RunTrace: the detector interns each element at its boundary) or
// ID input (RunTraceInterned over a trace interned outside the timed
// region, as the sweep engine amortizes it), so the pair isolates the
// cost of boundary interning: one hash lookup per element.
func benchmarkInput(b *testing.B, stream trace.Trace, ids bool, kind ModelKind) {
	in := trace.Intern(stream)
	cfg := Config{CWSize: 1000, TW: ConstantTW, Model: kind,
		Analyzer: ThresholdAnalyzer, Param: 0.6}
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := cfg.MustNew()
		if ids {
			RunTraceInterned(d, in)
		} else {
			RunTrace(d, stream)
		}
	}
}

func BenchmarkBranchInput(b *testing.B) { benchmarkInput(b, benchStream(), false, UnweightedModel) }
func BenchmarkIDInput(b *testing.B)     { benchmarkInput(b, benchStream(), true, UnweightedModel) }

// BenchmarkBranchInputWeighted / IDInputWeighted repeat the comparison
// for the weighted model, whose similarity step dilutes (but does not
// hide) the interning cost.
func BenchmarkBranchInputWeighted(b *testing.B) {
	benchmarkInput(b, benchStream(), false, WeightedModel)
}
func BenchmarkIDInputWeighted(b *testing.B) { benchmarkInput(b, benchStream(), true, WeightedModel) }

// BenchmarkBranchInputHiCard / IDInputHiCard repeat the unweighted
// comparison over a stream with thousands of distinct sites — the
// map-lookup-bound regime the shared-intern sweep engine targets.
func BenchmarkBranchInputHiCard(b *testing.B) {
	benchmarkInput(b, hiCardStream(), false, UnweightedModel)
}
func BenchmarkIDInputHiCard(b *testing.B) { benchmarkInput(b, hiCardStream(), true, UnweightedModel) }

// BenchmarkProcessBatchHiCardChunks feeds the high-cardinality stream
// through ProcessBatch in small chunks, as a streaming session does: most
// chunks bring new elements, so the symbol table, and with it the
// model's counter slices, grows chunk after chunk.
func BenchmarkProcessBatchHiCardChunks(b *testing.B) {
	stream := hiCardStream()
	cfg := Config{CWSize: 1000, TW: ConstantTW, Model: UnweightedModel,
		Analyzer: ThresholdAnalyzer, Param: 0.6}
	for _, chunk := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			b.SetBytes(int64(len(stream)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := cfg.MustNew()
				for j := 0; j < len(stream); j += chunk {
					d.ProcessBatch(stream[j:min(j+chunk, len(stream))])
				}
				d.Finish()
			}
		})
	}
}

// BenchmarkDetectorProcessSingle measures the per-element streaming entry
// point (Process) as used by live instrumentation.
func BenchmarkDetectorProcessSingle(b *testing.B) {
	stream := benchStream()
	d := Config{CWSize: 1000, TW: AdaptiveTW, Model: UnweightedModel,
		Analyzer: ThresholdAnalyzer, Param: 0.6}.MustNew()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Process(stream[i%len(stream)])
	}
}
