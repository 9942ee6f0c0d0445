package core

import (
	"errors"
	"math"
	"slices"
	"testing"

	"opd/internal/trace"
)

// el builds a profile element at offset off in method 0.
func el(off int) trace.Branch { return trace.MakeBranch(0, off, true) }

// pushAll pushes ids, growing the counter slices to cover each first.
func pushAll(w *windows, ids ...int32) {
	for _, id := range ids {
		w.grow(int(id) + 1)
		w.pushAll([]int32{id})
	}
}

// nonzero counts the distinct ids with a positive count.
func nonzero(counts []int32) int {
	n := 0
	for _, c := range counts {
		if c > 0 {
			n++
		}
	}
	return n
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestWindowFillAndOverflow(t *testing.T) {
	w := newWindows(3, 2, ConstantTW)
	if w.ready() {
		t.Error("fresh windows report ready")
	}
	pushAll(w, 1, 2, 3)
	if w.ready() {
		t.Error("ready before TW fills")
	}
	if w.cwLen() != 3 || w.twLen != 0 {
		t.Errorf("cw=%d tw=%d, want 3/0", w.cwLen(), w.twLen)
	}
	pushAll(w, 4, 5)
	if !w.ready() {
		t.Error("not ready after both windows fill")
	}
	if w.cwLen() != 3 || w.twLen != 2 {
		t.Errorf("cw=%d tw=%d, want 3/2", w.cwLen(), w.twLen)
	}
	// Next pushes must drop the TW front and keep sizes constant.
	pushAll(w, 6)
	if w.cwLen() != 3 || w.twLen != 2 {
		t.Errorf("after overflow: cw=%d tw=%d, want 3/2", w.cwLen(), w.twLen)
	}
	if w.firstIndex != 1 {
		t.Errorf("firstIndex = %d, want 1", w.firstIndex)
	}
	// Contents: TW = elements 2,3 ; CW = 4,5,6.
	if w.twCounts[2] != 1 || w.twCounts[3] != 1 || nonzero(w.twCounts) != 2 {
		t.Errorf("TW counts wrong: %v", w.twCounts)
	}
	if w.cwCounts[4] != 1 || w.cwCounts[6] != 1 || nonzero(w.cwCounts) != 3 {
		t.Errorf("CW counts wrong: %v", w.cwCounts)
	}
}

func TestUnweightedSimilarityPaperExample(t *testing.T) {
	// CW contains {a, b}, TW contains {a, c}: similarity 0.5 regardless of
	// how often a appears.
	w := newWindows(2, 2, ConstantTW)
	pushAll(w, 1, 3) // will end up in TW: a=1, c=3
	pushAll(w, 1, 2) // CW: a=1, b=2
	if !w.ready() {
		t.Fatal("windows should be full")
	}
	if got := w.unweightedSimilarity(); !approx(got, 0.5) {
		t.Errorf("unweighted similarity = %f, want 0.5", got)
	}
	// Frequency must not matter: CW {a, a}: similarity 1.0 even though TW
	// holds a single a.
	w = newWindows(2, 2, ConstantTW)
	pushAll(w, 1, 3)
	pushAll(w, 1, 1)
	if got := w.unweightedSimilarity(); !approx(got, 1.0) {
		t.Errorf("unweighted similarity = %f, want 1.0", got)
	}
}

func TestWeightedSimilarityPaperExample(t *testing.T) {
	// Paper example: CW {(a,5),(b,3),(c,2)}, TW {(a,25),(b,15),(c,10),(d,50)}
	// -> min(.25,.5)+min(.15,.3)+min(.10,.2) = 0.5
	w := newWindows(10, 100, ConstantTW)
	push := func(id int32, n int) {
		for i := 0; i < n; i++ {
			pushAll(w, id)
		}
	}
	// Fill TW first (oldest elements), then CW.
	push(1, 25) // a
	push(2, 15) // b
	push(3, 10) // c
	push(4, 50) // d
	push(1, 5)  // CW: a
	push(2, 3)  // b
	push(3, 2)  // c
	if !w.ready() {
		t.Fatal("windows should be full")
	}
	if w.cwLen() != 10 || w.twLen != 100 {
		t.Fatalf("cw=%d tw=%d, want 10/100", w.cwLen(), w.twLen)
	}
	if got := w.weightedSimilarity(); !approx(got, 0.5) {
		t.Errorf("weighted similarity = %f, want 0.5", got)
	}
}

func TestSimilarityEmptyWindows(t *testing.T) {
	w := newWindows(4, 4, ConstantTW)
	if got := w.unweightedSimilarity(); got != 0 {
		t.Errorf("unweighted on empty = %f", got)
	}
	if got := w.weightedSimilarity(); got != 0 {
		t.Errorf("weighted on empty = %f", got)
	}
}

func TestAnchorIndexRNAndLNN(t *testing.T) {
	// TW = [a, b, c], CW = [a, a, c]: b is noisy.
	// RN selects the position after b (index 2, where c sits);
	// LNN selects the leftmost non-noisy (index 0, where a sits).
	w := newWindows(3, 3, AdaptiveTW)
	pushAll(w, 1, 2, 3) // TW: a, b, c
	pushAll(w, 1, 1, 3) // CW: a, a, c
	if got := w.anchorIndex(AnchorRN); got != 2 {
		t.Errorf("RN anchor = %d, want 2", got)
	}
	if got := w.anchorIndex(AnchorLNN); got != 0 {
		t.Errorf("LNN anchor = %d, want 0", got)
	}

	// No noisy elements: RN keeps the whole TW.
	w = newWindows(2, 2, AdaptiveTW)
	pushAll(w, 1, 2, 1, 2)
	if got := w.anchorIndex(AnchorRN); got != 0 {
		t.Errorf("RN anchor with clean TW = %d, want 0", got)
	}
	if got := w.anchorIndex(AnchorLNN); got != 0 {
		t.Errorf("LNN anchor with clean TW = %d, want 0", got)
	}

	// All noisy: RN and LNN both discard the whole TW.
	w = newWindows(2, 2, AdaptiveTW)
	pushAll(w, 5, 6, 1, 2)
	if got := w.anchorIndex(AnchorRN); got != 2 {
		t.Errorf("RN anchor with all-noisy TW = %d, want 2", got)
	}
	if got := w.anchorIndex(AnchorLNN); got != 2 {
		t.Errorf("LNN anchor with all-noisy TW = %d, want 2", got)
	}
}

func TestAnchorSlideVsMove(t *testing.T) {
	build := func() *windows {
		w := newWindows(3, 4, AdaptiveTW)
		pushAll(w, 9, 9, 1, 2) // TW: x, x, a, b   (x noisy)
		pushAll(w, 1, 2, 1)    // CW: a, b, a
		return w
	}
	w := build()
	if w.twLen != 4 || w.cwLen() != 3 {
		t.Fatalf("precondition: tw=%d cw=%d", w.twLen, w.cwLen())
	}
	idx := w.anchorIndex(AnchorRN)
	if idx != 2 {
		t.Fatalf("anchor idx = %d, want 2", idx)
	}

	// Slide: TW keeps nominal size 4 by absorbing CW elements; CW shrinks.
	pos := w.anchorAt(idx, ResizeSlide)
	if pos != 2 {
		t.Errorf("anchor position = %d, want 2", pos)
	}
	if w.twLen != 4 || w.cwLen() != 1 {
		t.Errorf("after slide: tw=%d cw=%d, want 4/1", w.twLen, w.cwLen())
	}
	if !w.anchored {
		t.Error("slide did not mark windows anchored")
	}
	// TW is now a, b, a, b; CW holds the final a.
	if w.twCounts[1] != 2 || w.twCounts[2] != 2 {
		t.Errorf("TW counts after slide: %v", w.twCounts)
	}
	if w.cwCounts[1] != 1 || nonzero(w.cwCounts) != 1 {
		t.Errorf("CW counts after slide: %v", w.cwCounts)
	}

	// Move: TW shrinks; CW untouched.
	w = build()
	pos = w.anchorAt(w.anchorIndex(AnchorRN), ResizeMove)
	if pos != 2 {
		t.Errorf("anchor position = %d, want 2", pos)
	}
	if w.twLen != 2 || w.cwLen() != 3 {
		t.Errorf("after move: tw=%d cw=%d, want 2/3", w.twLen, w.cwLen())
	}
}

func TestAnchoredTWGrowsUnbounded(t *testing.T) {
	w := newWindows(2, 2, AdaptiveTW)
	pushAll(w, 1, 1, 1, 1)
	w.anchorAt(0, ResizeSlide)
	for i := 0; i < 100; i++ {
		pushAll(w, 1)
	}
	if w.twLen != 102 {
		t.Errorf("anchored TW length = %d, want 102", w.twLen)
	}
	if w.cwLen() != 2 {
		t.Errorf("CW length = %d, want 2", w.cwLen())
	}
}

func TestConstantPolicyIgnoresAnchorRestructure(t *testing.T) {
	w := newWindows(3, 3, ConstantTW)
	pushAll(w, 9, 1, 2, 1, 2, 1)
	pos := w.anchorAt(w.anchorIndex(AnchorRN), ResizeSlide)
	if pos != 1 {
		t.Errorf("anchor position = %d, want 1", pos)
	}
	if w.anchored {
		t.Error("constant TW must not become anchored")
	}
	if w.twLen != 3 || w.cwLen() != 3 {
		t.Errorf("constant TW restructured: tw=%d cw=%d", w.twLen, w.cwLen())
	}
}

func TestClearReinitializesWithLastBatch(t *testing.T) {
	w := newWindows(3, 3, AdaptiveTW)
	pushAll(w, 1, 2, 3, 4, 5, 6)
	if !w.ready() {
		t.Fatal("windows should be full")
	}
	w.clear([]int32{6})
	if w.ready() {
		t.Error("cleared windows still ready")
	}
	if w.cwLen() != 1 || w.twLen != 0 {
		t.Errorf("after clear: cw=%d tw=%d, want 1/0", w.cwLen(), w.twLen)
	}
	if w.cwCounts[6] != 1 || nonzero(w.cwCounts) != 1 {
		t.Errorf("CW counts after clear: %v", w.cwCounts)
	}
	if w.firstIndex != 5 {
		t.Errorf("firstIndex after clear = %d, want 5", w.firstIndex)
	}
	// Windows refill and become ready again.
	pushAll(w, 6, 6, 6, 6, 6)
	if !w.ready() {
		t.Error("windows did not refill after clear")
	}
}

func TestOverlapInvariant(t *testing.T) {
	// Randomized pushes with periodic anchor/clear: the overlap counter
	// must always equal the recomputed ground truth.
	w := newWindows(5, 7, AdaptiveTW)
	w.grow(12)
	rng := int64(42)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := int(rng >> 40)
		if v < 0 {
			v = -v
		}
		return v % n
	}
	check := func(step int) {
		want := map[int32]bool{}
		for id, c := range w.cwCounts {
			if c > 0 && w.twCounts[id] > 0 {
				want[int32(id)] = true
			}
		}
		if len(w.overlapIDs) != len(want) {
			t.Fatalf("step %d: overlap set size = %d, want %d", step, len(w.overlapIDs), len(want))
		}
		for i, id := range w.overlapIDs {
			if !want[id] {
				t.Fatalf("step %d: id %d in overlap set but not in both windows", step, id)
			}
			if w.overlapPos[id] != int32(i+1) {
				t.Fatalf("step %d: overlapPos[%d] = %d, want %d", step, id, w.overlapPos[id], i+1)
			}
		}
	}
	for i := 0; i < 5000; i++ {
		pushAll(w, int32(next(12)))
		check(i)
		switch next(100) {
		case 0:
			w.anchorAt(w.anchorIndex(AnchorRN), ResizeSlide)
			check(i)
		case 1:
			w.anchorAt(w.anchorIndex(AnchorLNN), ResizeMove)
			check(i)
		case 2:
			w.clear([]int32{int32(next(12))})
			check(i)
		}
	}
}

func TestCompaction(t *testing.T) {
	w := newWindows(4, 4, ConstantTW)
	for i := 0; i < 50000; i++ {
		pushAll(w, int32(i%9))
	}
	if len(w.buf) > 10000 {
		t.Errorf("buffer not compacted: len %d", len(w.buf))
	}
	if w.cwLen() != 4 || w.twLen != 4 {
		t.Errorf("sizes after compaction: cw=%d tw=%d", w.cwLen(), w.twLen)
	}
	if w.firstIndex != 50000-8 {
		t.Errorf("firstIndex = %d, want %d", w.firstIndex, 50000-8)
	}
}

// longPhaseTrace is 3,000 noisy elements, each new, then n elements
// drawn from 50 sites: the detector enters one phase and stays in it.
func longPhaseTrace(n int) trace.Trace {
	tr := make(trace.Trace, 0, 3000+n)
	for i := 0; i < 3000; i++ {
		tr = append(tr, trace.MakeBranch(1, i, true))
	}
	rng := uint64(5)
	for i := 0; i < n; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		tr = append(tr, trace.MakeBranch(0, int(rng>>33)%50, true))
	}
	return tr
}

// TestWindowMemoryBound pins that window storage is O(CW+TW): through a
// phase of a million elements the window buffer's capacity stays within
// 2·(CW+TW+1) elements, whether the TW is constant or an anchored
// Adaptive TW that grows to hold the whole phase.
func TestWindowMemoryBound(t *testing.T) {
	tr := longPhaseTrace(1_000_000)
	for _, cfg := range []Config{
		{CWSize: 500, SkipFactor: 8, TW: AdaptiveTW, Anchor: AnchorRN, Resize: ResizeSlide,
			Model: UnweightedModel, Analyzer: ThresholdAnalyzer, Param: 0.6},
		{CWSize: 300, TWSize: 700, SkipFactor: 1, TW: AdaptiveTW, Anchor: AnchorLNN, Resize: ResizeMove,
			Model: WeightedModel, Analyzer: AverageAnalyzer, Param: 0.3},
		{CWSize: 100, SkipFactor: 4, TW: ConstantTW, Model: WeightedModel, Analyzer: ThresholdAnalyzer, Param: 0.5},
		{CWSize: 500, SkipFactor: 1, TW: ConstantTW, Model: UnweightedModel, Analyzer: AverageAnalyzer, Param: 0.3},
	} {
		d := cfg.MustNew()
		w := d.sm.win
		bound := 2 * (w.cwSize + w.twSize + 1)
		most := 0
		for i := 0; i < len(tr); i += 4096 {
			d.ProcessBatch(tr[i:min(i+4096, len(tr))])
			most = max(most, cap(w.buf))
		}
		if cfg.TW == AdaptiveTW && (!w.anchored || len(d.Phases()) != 0 || w.twLen < 900_000) {
			t.Fatalf("%s: the trace must hold the detector in its first phase (anchored %v, %d phases closed, TW %d)",
				cfg.ID(), w.anchored, len(d.Phases()), w.twLen)
		}
		if most > bound {
			t.Errorf("%s: window buffer reached %d slots, bound 2·(CW+TW+1) = %d", cfg.ID(), most, bound)
		}
	}
}

// TestSnapshotMidPhaseRoundTrip pins the anchored TW's snapshot form: a
// snapshot cut deep in a phase restores within the memory bound,
// re-snapshots to identical bytes, and continues to the uninterrupted
// run's output.
func TestSnapshotMidPhaseRoundTrip(t *testing.T) {
	tr := longPhaseTrace(200_000)
	tr = append(tr, batchTestTrace(20000)...)
	for _, cfg := range []Config{
		{CWSize: 400, TWSize: 600, SkipFactor: 16, TW: AdaptiveTW, Anchor: AnchorRN, Resize: ResizeSlide,
			Model: WeightedModel, Analyzer: AverageAnalyzer, Param: 0.3},
		{CWSize: 250, SkipFactor: 1, TW: AdaptiveTW, Anchor: AnchorLNN, Resize: ResizeMove,
			Model: UnweightedModel, Analyzer: ThresholdAnalyzer, Param: 0.6},
		{CWSize: 250, SkipFactor: 5, TW: ConstantTW, Model: WeightedModel, Analyzer: ThresholdAnalyzer, Param: 0.5},
	} {
		var wantEvents, gotEvents []eventRec
		want := cfg.MustNew()
		recordHooks(want, &wantEvents)
		feedChunks(t, want, tr, -1, nil)

		const cut = 120_003
		d := cfg.MustNew()
		recordHooks(d, &gotEvents)
		d.ProcessBatch(tr[:cut])
		if !d.State().IsPhase() {
			t.Fatalf("%s: the cut must fall mid-phase", cfg.ID())
		}
		snap, err := d.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := RestoreDetector(snap)
		if err != nil {
			t.Fatalf("%s: restore: %v", cfg.ID(), err)
		}
		again, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(again, snap) {
			t.Fatalf("%s: Snapshot → Restore → Snapshot changed the bytes (%d → %d)", cfg.ID(), len(snap), len(again))
		}
		w := r.sm.win
		if bound := 2 * (w.cwSize + w.twSize + 1); cap(w.buf) > bound {
			t.Errorf("%s: restored window buffer has %d slots, bound %d", cfg.ID(), cap(w.buf), bound)
		}
		recordHooks(r, &gotEvents)
		for i := cut; i < len(tr); i += 1000 {
			r.ProcessBatch(tr[i:min(i+1000, len(tr))])
		}
		r.Finish()
		if r.SimilarityComputations() != want.SimilarityComputations() ||
			!equalIntervals(r.Phases(), want.Phases()) || !equalIntervals(r.AdjustedPhases(), want.AdjustedPhases()) ||
			math.Float64bits(r.Confidence()) != math.Float64bits(want.Confidence()) {
			t.Errorf("%s: restored run diverges: sims %d/%d phases %v/%v adjusted %v/%v",
				cfg.ID(), r.SimilarityComputations(), want.SimilarityComputations(),
				r.Phases(), want.Phases(), r.AdjustedPhases(), want.AdjustedPhases())
		}
		if !slices.Equal(gotEvents, wantEvents) {
			t.Errorf("%s: events diverge:\n got %v\nwant %v", cfg.ID(), gotEvents, wantEvents)
		}
	}
}

// TestRestoreRejectsOversizedWindows pins that a snapshot whose CW
// exceeds CWSize, or whose unanchored TW exceeds TWSize, is refused with
// ErrSnapshot: either would break the window memory bound.
func TestRestoreRejectsOversizedWindows(t *testing.T) {
	cfg := Config{CWSize: 50, TWSize: 60, SkipFactor: 1, TW: AdaptiveTW, Model: UnweightedModel,
		Analyzer: ThresholdAnalyzer, Param: 0.6}
	tr := longPhaseTrace(0)[:500] // all noise: the TW never anchors
	for _, grow := range []func(w *windows){
		func(w *windows) { w.cwSize += 10 },
		func(w *windows) { w.twSize += 10 },
	} {
		d := cfg.MustNew()
		w := d.sm.win
		cw, tw := w.cwSize, w.twSize
		grow(w)
		d.ProcessBatch(tr)
		w.cwSize, w.twSize = cw, tw
		snap, err := d.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := RestoreDetector(snap); !errors.Is(err, ErrSnapshot) {
			t.Errorf("oversized windows (CW %d, TW %d of %d/%d) restored: %v", w.cwLen(), w.twLen, cw, tw, err)
		}
	}
}
